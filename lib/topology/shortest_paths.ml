type dist_row = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type pred_row =
  (int, Bigarray.int16_signed_elt, Bigarray.c_layout) Bigarray.Array1.t

type csr = { row_ptr : int array; targets : int array; weights : float array }

let csr g =
  {
    row_ptr = Graph.csr_row_ptr g;
    targets = Graph.csr_targets g;
    weights = Graph.csr_weights g;
  }

(* All-pairs rows live in Bigarrays, not OCaml arrays, for a reason that
   is easy to miss: a flat [int array] of |V|² predecessor slots is a
   scannable (tag-0) heap block, so every major GC mark pass reads the
   whole matrix — ~700 MB per cycle on a k=32 fat-tree, which throttled
   the previous nested representation far below memory bandwidth.
   Bigarray storage is off-heap: never scanned, never moved, no
   initialization cost at allocation.

   Predecessors are 16-bit: an entry is a node id or -1, and a store
   silently keeps the low 16 bits, so every entry point refuses a graph
   with more nodes than an entry can name before it allocates a row. *)
let max_nodes = 32_767

let check_nodes fn n =
  if n > max_nodes then
    invalid_arg
      (Printf.sprintf
         "Shortest_paths.%s: %d nodes, but a predecessor row holds at most %d"
         fn n max_nodes)

(* The relaxation discipline:

   - strict improvement moves [dist]/[pred] and (re)queues the node;
   - an equal-cost candidate only rewrites [pred.(v)] towards the
     lowest-numbered predecessor while [v] is NOT yet settled.

   The [settled] guard is load-bearing. Without it, a node [u] settling
   *after* [v] (possible when [d +. w = d] under floating-point rounding,
   i.e. equal queue priorities) could rewrite [pred.(v)] after paths
   through [v] were already extracted from the old tree — and if [v] lies
   on [u]'s own predecessor chain, the rewrite creates a pred cycle and
   path extraction diverges. With the guard, [pred.(v)] freezes at
   settlement, and since every equal-cost predecessor of [v] settles no
   later than [v], the final tree is still the lowest-numbered-
   predecessor tree, independent of the queue discipline. *)

(* Per-domain scratch, reused across the all-pairs per-source fan-out:
   [heap] holds the queued node ids in binary-heap order, and [pos.(v)]
   is [v]'s slot in it, or [unreached]/[settled]. Keyed by Domain.DLS —
   each worker domain owns one scratch, so concurrent sources never
   share. [pos] is reset before every run and [heap] is only read below
   its live size, so no state leaks between runs. *)
type scratch = { mutable heap : int array; mutable pos : int array }

let unreached = -1
let settled = -2

let scratch_key = Domain.DLS.new_key (fun () -> { heap = [||]; pos = [||] })

(* The heap is keyed by each node's own entry in the row being written,
   so its operations take and return node ids and slots only: no float
   crosses a call boundary, and without flambda that is what keeps the
   loop from boxing one per push and pop. [sift_up]/[sift_down] place
   [v] by moving the hole from slot [i]. *)
let sift_up heap pos (dist : dist_row) base i v =
  let key = dist.{base + v} in
  let i = ref i in
  while
    !i > 0 && dist.{base + Array.unsafe_get heap ((!i - 1) / 2)} > key
  do
    let parent = (!i - 1) / 2 in
    let p = Array.unsafe_get heap parent in
    Array.unsafe_set heap !i p;
    Array.unsafe_set pos p !i;
    i := parent
  done;
  Array.unsafe_set heap !i v;
  Array.unsafe_set pos v !i

let sift_down heap pos (dist : dist_row) base size i v =
  let key = dist.{base + v} in
  let i = ref i and sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    if l >= size then sinking := false
    else begin
      let c =
        if
          l + 1 < size
          && dist.{base + Array.unsafe_get heap (l + 1)}
             < dist.{base + Array.unsafe_get heap l}
        then l + 1
        else l
      in
      let cv = Array.unsafe_get heap c in
      if dist.{base + cv} < key then begin
        Array.unsafe_set heap !i cv;
        Array.unsafe_set pos cv !i;
        i := c
      end
      else sinking := false
    end
  done;
  Array.unsafe_set heap !i v;
  Array.unsafe_set pos v !i

(* Dijkstra over an indexed binary heap with decrease-key, so the heap
   never holds a stale entry. A degree-1 node other than the source is
   settled at its first relaxation instead of being queued: its only
   neighbour is the node settling now, so popping it later would relax
   nothing, and nothing else can reach it to move its [dist] or [pred].
   The degree comes from [row_ptr], not the node kind — a multi-homed
   host is not a leaf, and a pendant switch is. *)
let dijkstra_into { row_ptr; targets; weights } ~src ~start ~(dist : dist_row)
    ~(pred : pred_row) ~base =
  let n = Array.length row_ptr - 1 in
  check_nodes "dijkstra_into" n;
  if src < 0 || src >= n then invalid_arg "Shortest_paths.dijkstra: bad source";
  if
    base < 0
    || base + n > Bigarray.Array1.dim dist
    || base + n > Bigarray.Array1.dim pred
  then invalid_arg "Shortest_paths.dijkstra_into: row out of bounds";
  let s = Domain.DLS.get scratch_key in
  if Array.length s.pos < n then begin
    s.heap <- Array.make n 0;
    s.pos <- Array.make n unreached
  end
  else Array.fill s.pos 0 n unreached;
  let heap = s.heap and pos = s.pos in
  for v = base to base + n - 1 do
    dist.{v} <- infinity;
    pred.{v} <- -1
  done;
  dist.{base + src} <- start;
  pred.{base + src} <- src;
  heap.(0) <- src;
  pos.(src) <- 0;
  let size = ref 1 in
  while !size > 0 do
    let u = heap.(0) in
    pos.(u) <- settled;
    decr size;
    if !size > 0 then sift_down heap pos dist base !size 0 heap.(!size);
    let du = dist.{base + u} in
    for i = row_ptr.(u) to row_ptr.(u + 1) - 1 do
      let v = Array.unsafe_get targets i in
      let p = Array.unsafe_get pos v in
      if p <> settled then begin
        let candidate = du +. Array.unsafe_get weights i in
        let dv = dist.{base + v} in
        if candidate < dv then begin
          dist.{base + v} <- candidate;
          pred.{base + v} <- u;
          if p <> unreached then sift_up heap pos dist base p v
          else if row_ptr.(v + 1) - row_ptr.(v) = 1 then pos.(v) <- settled
          else begin
            sift_up heap pos dist base !size v;
            incr size
          end
        end
        else if Float.equal candidate dv && u < pred.{base + v} then
          pred.{base + v} <- u
      end
    done
  done

let alloc_dist_rows len : dist_row =
  Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len

let alloc_pred_rows len : pred_row =
  Bigarray.Array1.create Bigarray.int16_signed Bigarray.c_layout len

let dijkstra g ~src =
  let n = Graph.num_nodes g in
  check_nodes "dijkstra" n;
  let dist = alloc_dist_rows (max n 1) in
  let pred = alloc_pred_rows (max n 1) in
  dijkstra_into (csr g) ~src ~start:0.0 ~dist ~pred ~base:0;
  (Array.init n (fun v -> dist.{v}), Array.init n (fun v -> pred.{v}))

let path_from_pred ?(base = 0) ~pred ~src ~dst () =
  if pred.(base + dst) = -1 then None
  else begin
    let rec walk v acc =
      if v = src then v :: acc else walk pred.(base + v) (v :: acc)
    in
    Some (walk dst [])
  end
