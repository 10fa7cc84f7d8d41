(* Sharded, tenant-aware session store (DESIGN.md §4j).

   Keys are session names; the shard of a name is a stable hash masked
   to a power-of-two shard count, so the mapping never depends on the
   machine, the run, or insertion order. Each shard owns a hash table,
   an intrusive LRU recency list, a bounded tombstone set (names that
   were evicted, so lookups can answer "evicted" rather than
   "unknown"), and the accounting records of the tenants whose *tenant
   id* hashes into it (a tenant's counters live in exactly one shard —
   its home shard — regardless of where its sessions land).

   Lock discipline: every shard has its own mutex, class "shard" in
   the engine's declared order (shard > session > stats). No
   operation ever holds two shard locks at once — eviction is phased:
   pick a victim reading one shard at a time, then remove it under its
   own shard lock, re-checking the recency stamp in case the victim
   was touched in between. Recency stamps come from one global atomic
   logical clock, which makes LRU choice a total order across shards:
   for any sequential workload the eviction victims are identical for
   every shard count — the invariant the model-based test in
   test/test_server_shard.ml replays. *)

module Mutexes = Ppdc_prelude.Mutexes

type reason = Budget | Tenant_sessions | Tenant_bytes

let reason_slug = function
  | Budget -> "budget"
  | Tenant_sessions -> "tenant_sessions"
  | Tenant_bytes -> "tenant_bytes"

type 'v node = {
  name : string;
  tenant : string;
  mutable value : 'v;
  mutable bytes : int;
  mutable stamp : int;  (* global logical clock at last create/touch *)
  (* Intrusive doubly-linked recency list: head = most recent. *)
  mutable prev : 'v node option;
  mutable next : 'v node option;
}

type tenant_state = {
  mutable t_sessions : int;
  mutable t_bytes : int;
  mutable t_inflight : int;
}

type 'v shard = {
  mutex : Mutex.t; [@ppdc.guards "shard"]
  table : (string, 'v node) Hashtbl.t;
  mutable head : 'v node option;
  mutable tail : 'v node option;
  (* Evicted names, bounded by [max_tombstones]; [tomb_fifo] may hold
     stale entries (a re-created name clears its tombstone without
     scrubbing the FIFO) — overflow pops until it removed a live one. *)
  tombs : (string, unit) Hashtbl.t;
  tomb_fifo : string Queue.t;
  tenants : (string, tenant_state) Hashtbl.t;  (* home-shard tenants only *)
}

type limits = {
  session_budget : int option;
  tenant_sessions : int option;
  tenant_bytes : int option;
  tenant_inflight : int option;
}

type 'v t = {
  shards : 'v shard array;
  mask : int;
  limits : limits;
  clock : int Atomic.t;
  total : int Atomic.t;
  evicted_budget : int Atomic.t;
  evicted_tenant_sessions : int Atomic.t;
  evicted_tenant_bytes : int Atomic.t;
  fairness_rejections : int Atomic.t;
  (* Test hook: called with the name being put, inside the shard
     critical section. Lets a test prove two creates on different
     shards hold their locks concurrently (regression for the old
     global registry lock). *)
  put_hook : (string -> unit) option Atomic.t;
}

type eviction = { victim : string; victim_tenant : string; reason : reason }
type put_outcome = { replaced : bool; evicted : eviction list }
type 'v find_result = Found of 'v | Was_evicted | Unknown

(* Tenant = session-name prefix before the first '-'; a name with no
   '-' is its own tenant. Stable, documented wire-level convention
   ("acme-edge3" belongs to tenant "acme"). *)
let tenant_of name =
  match String.index_opt name '-' with
  | Some i -> String.sub name 0 i
  | None -> name

(* FNV-1a over the bytes, folded into OCaml's 63-bit int (the 64-bit
   offset basis is truncated to fit a native literal; wrap-around
   multiplication is the usual FNV behavior). Stability matters more
   than quality here: the shard of a name must never change across
   runs or machines, because the committed bench and the model tests
   partition work by shard id. *)
let hash_name s =
  let h = ref 0x1bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  !h land max_int

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?shards ?session_budget ?tenant_sessions ?tenant_bytes
    ?tenant_inflight () =
  let requested =
    match shards with
    | Some s -> s
    | None -> Ppdc_prelude.Parallel.domain_count ()
  in
  if requested < 1 then invalid_arg "Registry.create: shards must be >= 1";
  let check label = function
    | Some v when v < 1 ->
        invalid_arg (Printf.sprintf "Registry.create: %s must be >= 1" label)
    | _ -> ()
  in
  check "session_budget" session_budget;
  check "tenant_sessions" tenant_sessions;
  check "tenant_bytes" tenant_bytes;
  check "tenant_inflight" tenant_inflight;
  let n = next_pow2 requested in
  {
    shards =
      Array.init n (fun _ ->
          {
            mutex = Mutex.create ();
            table = Hashtbl.create 16;
            head = None;
            tail = None;
            tombs = Hashtbl.create 16;
            tomb_fifo = Queue.create ();
            tenants = Hashtbl.create 8;
          });
    mask = n - 1;
    limits = { session_budget; tenant_sessions; tenant_bytes; tenant_inflight };
    clock = Atomic.make 0;
    total = Atomic.make 0;
    evicted_budget = Atomic.make 0;
    evicted_tenant_sessions = Atomic.make 0;
    evicted_tenant_bytes = Atomic.make 0;
    fairness_rejections = Atomic.make 0;
    put_hook = Atomic.make None;
  }

let shard_count t = Array.length t.shards
let shard_id t name = hash_name name land t.mask
let shard_of t name = t.shards.(shard_id t name)
let home_of t tenant = t.shards.(hash_name tenant land t.mask)
let next_stamp t = Atomic.fetch_and_add t.clock 1
let set_test_hook t hook = Atomic.set t.put_hook hook

(* --- recency list (all under the owning shard's lock) ------------------- *)

let unlink sh node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> sh.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> sh.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front sh node =
  node.prev <- None;
  node.next <- sh.head;
  (match sh.head with Some h -> h.prev <- Some node | None -> ());
  sh.head <- Some node;
  match sh.tail with None -> sh.tail <- Some node | Some _ -> ()

let touch sh node stamp =
  node.stamp <- stamp;
  match sh.head with
  | Some h when h == node -> ()
  | _ ->
      unlink sh node;
      push_front sh node

(* Evicted names each shard remembers; past this the oldest tombstone
   is forgotten and its name answers [Unknown] again. *)
let max_tombstones = 1024

let add_tombstone sh name =
  if not (Hashtbl.mem sh.tombs name) then Queue.push name sh.tomb_fifo;
  Hashtbl.replace sh.tombs name ();
  while Hashtbl.length sh.tombs > max_tombstones do
    match Queue.pop sh.tomb_fifo with
    | popped -> Hashtbl.remove sh.tombs popped
    | exception Queue.Empty -> Hashtbl.reset sh.tombs (* unreachable *)
  done

(* --- tenant accounting (under the tenant's home-shard lock) ------------- *)

let tenant_state sh tenant =
  match Hashtbl.find_opt sh.tenants tenant with
  | Some ts -> ts
  | None ->
      let ts = { t_sessions = 0; t_bytes = 0; t_inflight = 0 } in
      Hashtbl.add sh.tenants tenant ts;
      ts

let drop_if_idle sh tenant ts =
  if ts.t_sessions = 0 && ts.t_bytes = 0 && ts.t_inflight = 0 then
    Hashtbl.remove sh.tenants tenant

(* --- eviction ------------------------------------------------------------ *)

(* Unlink and tombstone [name], then release its tenant's share;
   returns the tenant. With [stamp], only if the entry was not touched
   since the victim scan that read that stamp. *)
let remove ?stamp t name =
  let sh = shard_of t name in
  let removed =
    Mutexes.with_lock sh.mutex (fun () ->
        match Hashtbl.find_opt sh.table name with
        | Some node
          when Option.fold ~none:true ~some:(Int.equal node.stamp) stamp ->
            unlink sh node;
            Hashtbl.remove sh.table name;
            add_tombstone sh name;
            Some (node.tenant, node.bytes)
        | Some _ | None -> None)
  in
  match removed with
  | None -> None
  | Some (tenant, bytes) ->
      let home = home_of t tenant in
      Mutexes.with_lock home.mutex (fun () ->
          let ts = tenant_state home tenant in
          ts.t_sessions <- ts.t_sessions - 1;
          ts.t_bytes <- ts.t_bytes - bytes;
          drop_if_idle home tenant ts);
      ignore (Atomic.fetch_and_add t.total (-1));
      Some tenant

(* Oldest node of [tenant] across all shards (one shard lock at a
   time), excluding [keep]; [None] filter scans every tenant. The
   global logical clock totally orders stamps, so "oldest" is
   well-defined across shards. *)
let victim_scan t ?tenant ~keep () =
  let best = ref None in
  Array.iter
    (fun sh ->
      Mutexes.with_lock sh.mutex (fun () ->
          (* Walk from the LRU tail; the first matching node in this
             shard is this shard's oldest candidate. *)
          let rec from_tail = function
            | None -> ()
            | Some node ->
                let matches =
                  (not (String.equal node.name keep))
                  && match tenant with
                     | Some tn -> String.equal node.tenant tn
                     | None -> true
                in
                if matches then begin
                  match !best with
                  | Some (stamp, _, _) when stamp <= node.stamp -> ()
                  | _ -> best := Some (node.stamp, node.name, node.tenant)
                end
                else from_tail node.prev
          in
          from_tail sh.tail))
    t.shards;
  !best

(* Evict one LRU entry (of [tenant] when given), never holding two
   shard locks at once. A concurrent touch can invalidate the chosen
   victim between scan and removal; retry a bounded number of times —
   sequential callers always succeed on the first pass. *)
let evict_one t ?tenant ~keep ~reason () =
  let rec go attempts =
    if attempts = 0 then None
    else
      match victim_scan t ?tenant ~keep () with
      | None -> None
      | Some (stamp, name, victim_tenant) -> (
          match remove ~stamp t name with
          | Some _ ->
              (match reason with
              | Budget -> Atomic.incr t.evicted_budget
              | Tenant_sessions -> Atomic.incr t.evicted_tenant_sessions
              | Tenant_bytes -> Atomic.incr t.evicted_tenant_bytes);
              Some { victim = name; victim_tenant; reason }
          | None -> go (attempts - 1))
  in
  go 8

let tenant_usage t tenant =
  let home = home_of t tenant in
  Mutexes.with_lock home.mutex (fun () ->
      match Hashtbl.find_opt home.tenants tenant with
      | Some ts -> (ts.t_sessions, ts.t_bytes)
      | None -> (0, 0))

(* Enforce limits after a put: per-tenant session count, per-tenant
   bytes, then the global budget. Each loop re-reads the live counters
   so concurrent evictions are never double-counted. The entry just
   created ([keep]) is never the victim — a put must succeed even when
   it alone exceeds a byte budget (the next put will reclaim it). *)
let enforce t ~tenant ~keep =
  let evictions = ref [] in
  let note = function
    | Some e -> evictions := e :: !evictions; true
    | None -> false
  in
  (match t.limits.tenant_sessions with
  | None -> ()
  | Some cap ->
      let continue = ref true in
      while !continue && fst (tenant_usage t tenant) > cap do
        continue := note (evict_one t ~tenant ~keep ~reason:Tenant_sessions ())
      done);
  (match t.limits.tenant_bytes with
  | None -> ()
  | Some cap ->
      let continue = ref true in
      while !continue && snd (tenant_usage t tenant) > cap do
        continue := note (evict_one t ~tenant ~keep ~reason:Tenant_bytes ())
      done);
  (match t.limits.session_budget with
  | None -> ()
  | Some cap ->
      let continue = ref true in
      while !continue && Atomic.get t.total > cap do
        continue := note (evict_one t ~keep ~reason:Budget ())
      done);
  List.rev !evictions

(* --- public operations --------------------------------------------------- *)

let put t ~name ~bytes v =
  let tenant = tenant_of name in
  let sh = shard_of t name in
  let stamp = next_stamp t in
  let replaced, delta_sessions, delta_bytes =
    Mutexes.with_lock sh.mutex (fun () ->
        (match Atomic.get t.put_hook with Some f -> f name | None -> ());
        if Hashtbl.mem sh.tombs name then Hashtbl.remove sh.tombs name;
        match Hashtbl.find_opt sh.table name with
        | Some node ->
            let old_bytes = node.bytes in
            node.value <- v;
            node.bytes <- bytes;
            touch sh node stamp;
            (true, 0, bytes - old_bytes)
        | None ->
            let node =
              { name; tenant; value = v; bytes; stamp; prev = None; next = None }
            in
            Hashtbl.add sh.table name node;
            push_front sh node;
            (false, 1, bytes))
  in
  let home = home_of t tenant in
  Mutexes.with_lock home.mutex (fun () ->
      let ts = tenant_state home tenant in
      ts.t_sessions <- ts.t_sessions + delta_sessions;
      ts.t_bytes <- ts.t_bytes + delta_bytes);
  if not replaced then Atomic.incr t.total;
  { replaced; evicted = enforce t ~tenant ~keep:name }

let find t name =
  let sh = shard_of t name in
  Mutexes.with_lock sh.mutex (fun () ->
      match Hashtbl.find_opt sh.table name with
      | Some node ->
          touch sh node (next_stamp t);
          Found node.value
      | None -> if Hashtbl.mem sh.tombs name then Was_evicted else Unknown)

(* Explicit removal (administrative, and the model test's op set).
   Tombstones like an eviction — a later request for the name answers
   session_evicted, not unknown_session. *)
let evict t name = Option.is_some (remove t name)

let length t = Atomic.get t.total

let shard_sizes t =
  Array.map
    (fun sh -> Mutexes.with_lock sh.mutex (fun () -> Hashtbl.length sh.table))
    t.shards

(* Snapshot fold, one shard lock at a time. The order is unspecified
   (callers sort); the snapshot is consistent per shard, not global. *)
let fold t ~init ~f =
  Array.fold_left
    (fun acc sh ->
      let entries =
        Mutexes.with_lock sh.mutex (fun () ->
            Hashtbl.fold
              (fun name node l -> (name, node.tenant, node.value) :: l)
              sh.table [])
      in
      List.fold_left
        (fun acc (name, tenant, v) -> f acc ~name ~tenant v)
        acc entries)
    init t.shards

(* --- per-tenant in-flight admission -------------------------------------- *)

let enter_tenant t tenant =
  match t.limits.tenant_inflight with
  | None -> true
  | Some cap ->
      let home = home_of t tenant in
      let admitted =
        Mutexes.with_lock home.mutex (fun () ->
            let ts = tenant_state home tenant in
            if ts.t_inflight >= cap then false
            else begin
              ts.t_inflight <- ts.t_inflight + 1;
              true
            end)
      in
      if not admitted then Atomic.incr t.fairness_rejections;
      admitted

let exit_tenant t tenant =
  match t.limits.tenant_inflight with
  | None -> ()
  | Some _ ->
      let home = home_of t tenant in
      Mutexes.with_lock home.mutex (fun () ->
          match Hashtbl.find_opt home.tenants tenant with
          | Some ts ->
              ts.t_inflight <- max 0 (ts.t_inflight - 1);
              drop_if_idle home tenant ts
          | None -> ())

(* --- counters ------------------------------------------------------------ *)

type counters = {
  evicted_budget : int;
  evicted_tenant_sessions : int;
  evicted_tenant_bytes : int;
  fairness_rejections : int;
}

let counters (t : _ t) =
  {
    evicted_budget = Atomic.get t.evicted_budget;
    evicted_tenant_sessions = Atomic.get t.evicted_tenant_sessions;
    evicted_tenant_bytes = Atomic.get t.evicted_tenant_bytes;
    fairness_rejections = Atomic.get t.fairness_rejections;
  }

let limits t = t.limits
