(* Doubly-linked recency list threaded through a hash table. [head] is
   the most recently used entry, [tail] the eviction candidate. *)

type ('k, 'v) node = {
  key : 'k;
  value : 'v;
  mutable prev : ('k, 'v) node option;  (* towards head *)
  mutable next : ('k, 'v) node option;  (* towards tail *)
}

(* The tables, the recency list and the counters are only read and
   written under [lock]. *)
type ('k, 'v) t = {
  cap : int;
  lock : Mutex.t; [@ppdc.guards "lru"]
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  (* Keys whose value one caller is building outside [lock], and how
     many callers wait for one of them. A key is never both here and in
     [table]. *)
  building : ('k, unit) Hashtbl.t;
  mutable waiting : int;
  built : Condition.t;  (* broadcast under [lock] when a build ends *)
  build_hook : ('k -> unit) option Atomic.t;
  mutable hits : int;
  mutable misses : int;
  mutable builds : int;
  mutable derived : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  {
    cap = capacity;
    lock = Mutex.create ();
    table = Hashtbl.create (2 * capacity);
    head = None;
    tail = None;
    building = Hashtbl.create 8;
    waiting = 0;
    built = Condition.create ();
    build_hook = Atomic.make None;
    hits = 0;
    misses = 0;
    builds = 0;
    derived = 0;
  }

let set_build_test_hook t hook = Atomic.set t.build_hook hook
let mem t k = Mutexes.with_lock t.lock (fun () -> Hashtbl.mem t.table k)

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let touch t node =
  match node.prev with
  | None -> ()  (* already at the head *)
  | Some _ ->
      unlink t node;
      push_front t node

(* Under [lock], for a key that is not resident: make it the most
   recent entry, evicting the least recent one if the cache is full. *)
let install t k v =
  if Hashtbl.length t.table >= t.cap then
    Option.iter
      (fun node ->
        unlink t node;
        Hashtbl.remove t.table node.key)
      t.tail;
  let node = { key = k; value = v; prev = None; next = None } in
  push_front t node;
  Hashtbl.replace t.table k node

(* Under [lock]: return once no caller is building [k]. [Condition.wait]
   releases the lock meanwhile, so other keys are looked up, claimed and
   installed while this caller waits. *)
let rec await_build t k =
  if Hashtbl.mem t.building k then begin
    t.waiting <- t.waiting + 1;
    Condition.wait t.built t.lock;
    t.waiting <- t.waiting - 1;
    await_build t k
  end

(* Run [build] as the one build of [k], which the caller claimed in
   [building] under [lock], holding none of the cache's locks. Then,
   under the lock, drop the claim, install the value [value] finds in
   the result (counting it with [on_install]) and wake every waiter —
   also when [build] raised, so a waiter retries instead of waiting
   forever. *)
let build_claimed t k ~value ~on_install build =
  let result = ref None in
  Fun.protect
    ~finally:(fun () ->
      Mutexes.with_lock t.lock (fun () ->
          Hashtbl.remove t.building k;
          Option.iter
            (fun v ->
              install t k v;
              on_install ())
            (Option.bind !result value);
          Condition.broadcast t.built))
    (fun () ->
      Option.iter (fun hook -> hook k) (Atomic.get t.build_hook);
      let r = build () in
      result := Some r;
      r)

let find_or_add t k build =
  let found =
    Mutexes.with_lock t.lock (fun () ->
        await_build t k;
        match Hashtbl.find_opt t.table k with
        | Some node ->
            t.hits <- t.hits + 1;
            touch t node;
            Some node.value
        | None ->
            t.misses <- t.misses + 1;
            Hashtbl.replace t.building k ();
            None)
  in
  match found with
  | Some v -> (true, v)
  | None ->
      ( false,
        build_claimed t k ~value:Option.some
          ~on_install:(fun () -> t.builds <- t.builds + 1)
          build )
[@@ppdc.domain_safe
  "holds only the cache's own leaf lock, never across [build], and \
   waiting for another caller's build releases it"]

type derivation = Cached | Absent | Derived

let derive t k ~parent f =
  let claim =
    Mutexes.with_lock t.lock (fun () ->
        await_build t k;
        if Hashtbl.mem t.table k then Error Cached
        else
          match Hashtbl.find_opt t.table parent with
          | None -> Error Absent
          | Some node ->
              Hashtbl.replace t.building k ();
              Ok node.value)
  in
  match claim with
  | Error answer -> answer
  | Ok v -> (
      match
        build_claimed t k ~value:Fun.id
          ~on_install:(fun () -> t.derived <- t.derived + 1)
          (fun () -> f v)
      with
      | Some _ -> Derived
      | None -> Absent)

type stats = {
  capacity : int;
  entries : int;
  hits : int;
  misses : int;
  builds : int;
  derived : int;
  in_flight : int;
  waiting : int;
}

let stats (t : (_, _) t) =
  Mutexes.with_lock t.lock (fun () ->
      {
        capacity = t.cap;
        entries = Hashtbl.length t.table;
        hits = t.hits;
        misses = t.misses;
        builds = t.builds;
        derived = t.derived;
        in_flight = Hashtbl.length t.building;
        waiting = t.waiting;
      })
