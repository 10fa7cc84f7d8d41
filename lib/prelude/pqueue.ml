(* Monomorphic (float priority, int payload) heap for solver hot loops:
   both backing arrays are unboxed, so push/pop allocate nothing — a
   polymorphic heap would wrap every payload in [Some]. *)
module Int_heap = struct
  type t = {
    mutable prio : float array;
    mutable data : int array;
    mutable size : int;
  }

  let create ?(capacity = 16) () =
    let capacity = max 1 capacity in
    { prio = Array.make capacity 0.0; data = Array.make capacity 0; size = 0 }

  let length q = q.size
  let is_empty q = q.size = 0

  let grow q =
    let capacity = Array.length q.prio in
    let prio = Array.make (2 * capacity) 0.0 in
    let data = Array.make (2 * capacity) 0 in
    Array.blit q.prio 0 prio 0 q.size;
    Array.blit q.data 0 data 0 q.size;
    q.prio <- prio;
    q.data <- data

  let rec sift_up q i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if q.prio.(i) < q.prio.(parent) then begin
        let p = q.prio.(i) and d = q.data.(i) in
        q.prio.(i) <- q.prio.(parent);
        q.data.(i) <- q.data.(parent);
        q.prio.(parent) <- p;
        q.data.(parent) <- d;
        sift_up q parent
      end
    end

  let rec sift_down q i =
    let left = (2 * i) + 1 and right = (2 * i) + 2 in
    let smallest = ref i in
    if left < q.size && q.prio.(left) < q.prio.(!smallest) then
      smallest := left;
    if right < q.size && q.prio.(right) < q.prio.(!smallest) then
      smallest := right;
    if !smallest <> i then begin
      let j = !smallest in
      let p = q.prio.(i) and d = q.data.(i) in
      q.prio.(i) <- q.prio.(j);
      q.data.(i) <- q.data.(j);
      q.prio.(j) <- p;
      q.data.(j) <- d;
      sift_down q j
    end

  let push q prio x =
    if q.size = Array.length q.prio then grow q;
    q.prio.(q.size) <- prio;
    q.data.(q.size) <- x;
    q.size <- q.size + 1;
    sift_up q (q.size - 1)

  let min_prio q =
    if q.size = 0 then invalid_arg "Pqueue.Int_heap.min_prio: empty";
    q.prio.(0)

  let pop q =
    if q.size = 0 then invalid_arg "Pqueue.Int_heap.pop: empty";
    let x = q.data.(0) in
    q.size <- q.size - 1;
    q.prio.(0) <- q.prio.(q.size);
    q.data.(0) <- q.data.(q.size);
    if q.size > 0 then sift_down q 0;
    x

  let clear q = q.size <- 0
end
