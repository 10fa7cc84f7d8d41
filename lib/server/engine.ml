module Json = Ppdc_prelude.Json
module Clock = Ppdc_prelude.Clock
module Mutexes = Ppdc_prelude.Mutexes
module Lru = Ppdc_prelude.Lru
module Obs = Ppdc_prelude.Obs
module Rng = Ppdc_prelude.Rng
module Graph = Ppdc_topology.Graph
module Fat_tree = Ppdc_topology.Fat_tree
module Cost_matrix = Ppdc_topology.Cost_matrix
module Flow = Ppdc_traffic.Flow
module Workload = Ppdc_traffic.Workload
module Failures = Ppdc_extensions.Failures
open Ppdc_core

(* Concurrency model (see DESIGN.md §4e/§4j). Two lock classes,
   always taken in this order and never the reverse:

     shard (Registry)  >  session.lock

   ["shard"] is the per-shard mutex of the sharded session registry
   ({!Registry}): a lookup or insert locks only the shard its session
   name hashes to, so distinct sessions contend only on hash
   collisions instead of one global lock. [session.lock] serializes
   the requests of one session (two clients of the same session see a
   consistent placement/rates/graph) while distinct sessions run in
   parallel on the transport's worker pool. The request counters, the
   per-method meters and the load probe are atomics and need no lock
   at all. The shared cost-matrix cache is an {!Lru}, which takes its
   own leaf lock and builds a missing matrix outside it, under the
   session lock alone: a request for another fabric never waits
   behind a build, while concurrent misses for the same digest wait
   for the one build. The session's attachment memo ([attached]) is
   read and replaced only under [session.lock], like the rest of the
   session's state. *)
[@@@ppdc.lock_order "shard session"]

(* The attachment sums (A_in, A_out, Λ) of a session's last dp or
   mpareto solve, and the three inputs they were computed from, each
   held for an identity check: the matrix by its [Cost_matrix.id] (a
   number, so an evicted matrix is not kept alive), the flows and the
   rates by the arrays themselves. *)
type attached = {
  key_cm : int;
  key_flows : Flow.t array;
  key_rates : float array;
  att : Cost.attach;
}

type session = {
  k : int;
  lock : Mutex.t; [@ppdc.guards "session"]
      (* serializes requests against this session *)
  mutable graph : Graph.t;
  mutable digest : string;
  mutable flows : Flow.t array;
  mutable rates : float array;
  n : int;
  mutable placement : Placement.t option;
  (* Episode log of every link failed so far, kept newest-first so each
     episode is a constant-time [List.rev_append] instead of the former
     [old @ new] — which re-copied the whole log every episode and made
     a long failure stream quadratic. Readers use [failed_links]. *)
  mutable failed_rev : (int * int) list;
  mutable failed_count : int;
  mutable attached : attached option;
}

let failed_links (s : session) = List.rev s.failed_rev

(* What one method has cost so far, counted without a lock: its
   calls, and the total and the largest time from its lookup to its
   encoded answer, in nanoseconds. When metrics are on the same time
   feeds the Obs [span]; the meter every unknown name shares has
   none. *)
type meter = {
  meth : string;
  span : string option;
  calls : int Atomic.t;
  total_ns : int Atomic.t;
  max_ns : int Atomic.t;
}

type load = {
  workers : int;
  active_connections : int;
  queue_depth : int;
  rejected_connections : int;
}

type t = {
  cache : (string, Cost_matrix.t) Lru.t;
  registry : session Registry.t;
  started : float;
  methods : (meter * (t -> Json.t -> Json.t)) list;  (* one per handler *)
  unknown : meter;  (* shared by every name no handler serves *)
  total_requests : int Atomic.t;
  errors : int Atomic.t;
  deadline_errors : int Atomic.t;
  (* Requests answered [session_evicted]: the client-visible cost of
     the budgets, distinct from the eviction counts themselves (one
     eviction can cause any number of evicted answers). *)
  evicted_answers : int Atomic.t;
  load_probe : (unit -> load) option Atomic.t;
  stop : bool Atomic.t;
}

let set_registry_test_hook t hook = Registry.set_test_hook t.registry hook
let set_build_test_hook t hook = Lru.set_build_test_hook t.cache hook
let stopped t = Atomic.get t.stop
let set_load_probe t probe = Atomic.set t.load_probe (Some probe)

(* Handler-side failure: mapped to an error response by [handle_line]. *)
exception Reject of Protocol.error_code * string

let reject code fmt =
  Printf.ksprintf (fun msg -> raise (Reject (code, msg))) fmt

(* --- small JSON builders ------------------------------------------------ *)

let num i = Json.Num (float_of_int i)
let fnum x = Json.Num x
let placement_json (p : Placement.t) = Json.List (Array.to_list (Array.map num p))

(* A non-finite μ makes every cost non-finite, and Algo. 6's bound is
   admissible only for μ ≥ 0. *)
let mu_param params =
  let mu = Option.value ~default:1e4 (Protocol.float_param params "mu") in
  if (not (Float.is_finite mu)) || Float.compare mu 0.0 < 0 then
    reject Invalid_params "mu must be finite and non-negative";
  mu

(* Finite rates can still overflow a cost; such an answer is refused
   before it changes the session. *)
let check_cost cost =
  if not (Float.is_finite cost) then
    reject Invalid_params "the session's rates overflow the cost to %g" cost

(* --- session helpers ---------------------------------------------------- *)

(* Look the session up in the sharded registry (which locks only the
   name's shard and refreshes its LRU recency), then run [f] holding
   only the session's own lock, so requests against distinct sessions
   proceed in parallel while two against the same session serialize.
   [load_topology] may replace the registry entry meanwhile; the
   in-flight request keeps operating on the record it resolved — the
   same outcome as finishing just before the replacement. A session
   reclaimed by a budget answers [session_evicted] (with the id
   echoed by [handle_line]) so the client knows to re-create it,
   rather than the "typo" semantics of [unknown_session]. *)
let with_session t params f =
  let name = Protocol.req_str_param params "session" in
  match Registry.find t.registry name with
  | Registry.Found s -> Mutexes.with_lock s.lock (fun () -> f s)
  | Registry.Was_evicted ->
      Atomic.incr t.evicted_answers;
      reject Session_evicted
        "session %S was evicted by a session budget; load_topology again" name
  | Registry.Unknown ->
      reject Unknown_session "no session named %S; load_topology first" name
[@@ppdc.calls_under "session"]

(* --- cost-matrix cache ---------------------------------------------------- *)

(* Resolve the session's all-pairs matrix through the LRU: the single
   expensive step of every query, skipped whenever this fabric (by
   structural digest) has been seen before. *)
let problem_of t s =
  let hit, cm =
    Lru.find_or_add t.cache s.digest (fun () -> Cost_matrix.compute s.graph)
  in
  (hit, Problem.make ~cm ~flows:s.flows ~n:s.n ())

(* The attachment sums of [problem], which [problem_of] built for [s]:
   the memo's while the matrix, the flows and the rates are the ones it
   was computed from, so every dp and mpareto decision on one rate
   vector shares one pass. A handler that changes the flows or the
   rates stores a new array, and a repaired or rebuilt matrix has a new
   id, so any change misses. A miss writes into the memo's rows when
   they fit the matrix: a row a session keeps is promoted to the major
   heap, and fresh ones on every rate change would grow it. *)
let attach_of (s : session) problem =
  let cm = Problem.cm problem in
  let key_cm = Cost_matrix.id cm in
  match s.attached with
  | Some m
    when m.key_cm = key_cm && m.key_flows == s.flows && m.key_rates == s.rates
    ->
      m.att
  | memo ->
      let att =
        match memo with
        | Some { att = { a_in; a_out; _ }; _ }
          when Array.length a_in = Cost_matrix.num_nodes cm ->
            Cost.attach_into problem ~rates:s.rates ~a_in ~a_out
        | _ -> Cost.attach problem ~rates:s.rates
      in
      s.attached <-
        Some { key_cm; key_flows = s.flows; key_rates = s.rates; att };
      att

(* --- handlers ----------------------------------------------------------- *)

let health t _params =
  Json.Obj
    [
      ("status", Str "ok");
      ("schema", Str "ppdc.rpc/1");
      ("version", Str "1.0.0");
      ("uptime_s", fnum (Clock.elapsed_s ~since:t.started));
      ("sessions", num (Registry.length t.registry));
    ]

(* Resident-size estimate charged against the owning tenant's byte
   budget: the CSR graph (two int arrays over edges plus node offsets),
   the flow records and the rates vector. Deliberately coarse — the
   budgets exist to bound a tenant's footprint, not to audit the
   allocator — but deterministic, so byte-budget eviction choreography
   is reproducible in tests. The shared cost-matrix cache is bounded
   separately and charged to nobody. *)
let session_bytes ~graph ~flows =
  64
  + (16 * Graph.num_nodes graph)
  + (32 * Graph.num_edges graph)
  + (48 * Array.length flows)

let load_topology t params =
  let name = Protocol.req_str_param params "session" in
  let k = Option.value ~default:8 (Protocol.int_param params "k") in
  let l = Option.value ~default:100 (Protocol.int_param params "l") in
  let n = Option.value ~default:5 (Protocol.int_param params "n") in
  let seed = Option.value ~default:1 (Protocol.int_param params "seed") in
  let weighted =
    Option.value ~default:false (Protocol.bool_param params "weighted")
  in
  if l < 1 then reject Invalid_params "l must be >= 1";
  if n < 1 then reject Invalid_params "n must be >= 1";
  (* The largest fabrics whose cost matrix the daemon can hold, refused
     before anything is built: a unit k=48 matrix is ≈116 MB, and a
     weighted fabric gives every host its own leaf class, so weighted
     k=32 (≈121 MB) is the same size. *)
  let max_k = if weighted then 32 else 48 in
  if k > max_k then
    reject Invalid_params "k must be <= %d%s" max_k
      (if weighted then " for a weighted fabric" else "");
  if l > 1_000_000 then reject Invalid_params "l must be <= 1000000";
  let rng = Rng.create seed in
  let ft =
    if weighted then Fat_tree.build_weighted ~rng k else Fat_tree.build k
  in
  let graph = ft.Fat_tree.graph in
  (* A chain longer than the fabric would make every later place fail
     in Problem.make; refused before the flows are drawn. *)
  if n > Graph.num_switches graph then
    reject Invalid_params "n must be <= %d, the fabric's switch count"
      (Graph.num_switches graph);
  let flows = Workload.generate_on_fat_tree ~rng ~l ft in
  let digest = Graph.digest graph in
  let session =
    {
      k;
      lock = Mutex.create ();
      graph;
      digest;
      flows;
      rates = Flow.base_rates flows;
      n;
      placement = None;
      failed_rev = [];
      failed_count = 0;
      attached = None;
    }
  in
  (* The session was fully constructed above, outside every lock: the
     fat-tree build and workload draw are the expensive part of a
     create, and holding the (per-shard) registry lock across them
     would serialize creates that land on the same shard — the
     regression the concurrent-create test in test_server_shard.ml
     pins. [put] holds only the name's shard lock for the table
     insert, then enforces the budgets. *)
  let outcome =
    Registry.put t.registry ~name ~bytes:(session_bytes ~graph ~flows) session
  in
  let cached = Lru.mem t.cache digest in
  Json.Obj
    [
      ("session", Str name);
      ("tenant", Str (Registry.tenant_of name));
      ("replaced", Bool outcome.replaced);
      ( "evicted",
        Json.List
          (List.map
             (fun (e : Registry.eviction) ->
               Json.Obj
                 [
                   ("session", Json.Str e.victim);
                   ("tenant", Json.Str e.victim_tenant);
                   ("reason", Json.Str (Registry.reason_slug e.reason));
                 ])
             outcome.evicted) );
      ("k", num k);
      ("hosts", num (Graph.num_hosts graph));
      ("switches", num (Graph.num_switches graph));
      ("links", num (Graph.num_edges graph));
      ("flows", num (Array.length flows));
      ("n", num n);
      ("digest", Str digest);
      ("cached_cost_matrix", Bool cached);
    ]

let place t params =
  with_session t params @@ fun s ->
  let algo = Option.value ~default:"dp" (Protocol.str_param params "algo") in
  let budget = Protocol.int_param params "budget" in
  let pair_limit = Protocol.int_param params "pair_limit" in
  let t0 = Clock.now () in
  let hit, problem = problem_of t s in
  let rates = s.rates in
  let placement, cost, extra =
    match algo with
    | "dp" ->
        let o =
          Placement_dp.solve_attached problem (attach_of s problem) ?pair_limit
            ()
        in
        (o.placement, o.cost, [ ("objective", fnum o.objective) ])
    | "optimal" ->
        let o = Placement_opt.solve problem ~rates ?budget () in
        ( o.placement,
          o.cost,
          [
            ("proven_optimal", Json.Bool o.proven_optimal);
            ("explored", num o.explored);
          ] )
    | "primal_dual" ->
        (* Approximate by construction: served to compare it against dp
           and optimal on live instances. *)
        let placement, stroll = Stroll_primal_dual.place problem ~rates in
        let detail =
          match stroll with
          | Some o ->
              [ ("prize", fnum o.prize); ("iterations", num o.iterations) ]
          | None -> []
        in
        let cost = Cost.comm_cost problem ~rates placement in
        (placement, cost, [ ("primal_dual", Json.Obj detail) ])
    | "steering" ->
        let o = Ppdc_baselines.Steering.place problem ~rates in
        (o.placement, o.cost, [])
    | "greedy" ->
        let o = Ppdc_baselines.Greedy_liu.place problem ~rates in
        (o.placement, o.cost, [])
    | other ->
        reject Invalid_params
          "unknown algo %S (expected primal_dual, dp, optimal, steering or \
           greedy)"
          other
  in
  check_cost cost;
  s.placement <- Some placement;
  Json.Obj
    (("algo", Json.Str algo)
    :: ("placement", placement_json placement)
    :: ("cost", fnum cost)
    :: ("cache_hit", Json.Bool hit)
    :: ("elapsed_ms", fnum (1000.0 *. Clock.elapsed_s ~since:t0))
    :: extra)

let migrate t params =
  with_session t params @@ fun s ->
  let algo =
    Option.value ~default:"mpareto" (Protocol.str_param params "algo")
  in
  let mu = mu_param params in
  let budget = Protocol.int_param params "budget" in
  let current =
    match s.placement with
    | Some p -> p
    | None ->
        reject Invalid_params
          "session has no current placement; call place first"
  in
  let t0 = Clock.now () in
  let hit, problem = problem_of t s in
  let rates = s.rates in
  let vnf_result migration ~migration_cost ~comm_cost ~total_cost extra =
    check_cost total_cost;
    s.placement <- Some migration;
    ("placement", placement_json migration)
    :: ("moved", num (Cost.moved ~src:current ~dst:migration))
    :: ("migration_cost", fnum migration_cost)
    :: ("comm_cost", fnum comm_cost)
    :: ("total_cost", fnum total_cost)
    :: extra
  in
  let vm_result (o : Ppdc_baselines.Vm.outcome) =
    (* VM baselines move endpoints, not VNFs: persist the rehosted
       flows so later requests see the migrated workload. *)
    check_cost o.total_cost;
    s.flows <- o.flows;
    [
      ("moved_vms", num o.migrations);
      ("migration_cost", fnum o.migration_cost);
      ("comm_cost", fnum o.comm_cost);
      ("total_cost", fnum o.total_cost);
    ]
  in
  let fields =
    match algo with
    | "mpareto" ->
        let o =
          Mpareto.migrate_attached problem (attach_of s problem) ~mu ~current ()
        in
        vnf_result o.migration ~migration_cost:o.migration_cost
          ~comm_cost:o.comm_cost ~total_cost:o.total_cost
          [ ("frontiers", num (List.length o.points)) ]
    | "optimal" ->
        let o = Migration_opt.solve problem ~rates ~mu ~current ?budget () in
        let migration_cost =
          Cost.migration_cost problem ~mu ~src:current ~dst:o.migration
        in
        vnf_result o.migration ~migration_cost
          ~comm_cost:(Cost.comm_cost problem ~rates o.migration)
          ~total_cost:o.cost
          [
            ("proven_optimal", Json.Bool o.proven_optimal);
            ("explored", num o.explored);
          ]
    | "plan" ->
        vm_result
          (Ppdc_baselines.Plan.migrate problem ~rates ~mu_vm:mu
             ~placement:current)
    | "mcf" ->
        vm_result
          (Ppdc_baselines.Mcf_migration.migrate problem ~rates ~mu_vm:mu
             ~placement:current ())
    | "none" ->
        let o =
          Ppdc_baselines.No_migration.evaluate problem ~rates
            ~placement:current
        in
        check_cost o.total_cost;
        [
          ("moved", num 0);
          ("migration_cost", fnum 0.0);
          ("comm_cost", fnum o.comm_cost);
          ("total_cost", fnum o.total_cost);
        ]
    | other ->
        reject Invalid_params
          "unknown algo %S (expected mpareto, optimal, plan, mcf or none)"
          other
  in
  Json.Obj
    (("algo", Json.Str algo)
    :: ("cache_hit", Json.Bool hit)
    :: ("elapsed_ms", fnum (1000.0 *. Clock.elapsed_s ~since:t0))
    :: fields)

let rates_update t params =
  with_session t params @@ fun s ->
  let explicit = Protocol.float_list_param params "rates" in
  let seed = Protocol.int_param params "seed" in
  let scale = Protocol.float_param params "scale" in
  let rates =
    match (explicit, seed, scale) with
    | Some r, None, None ->
        if Array.length r <> Array.length s.flows then
          reject Invalid_params "expected %d rates, got %d"
            (Array.length s.flows) (Array.length r);
        Array.iter
          (fun x ->
            if (not (Float.is_finite x)) || Float.compare x 0.0 < 0 then
              reject Invalid_params "rates must be finite and non-negative")
          r;
        r
    | None, Some seed, None ->
        Workload.redraw_rates ~rng:(Rng.create seed) s.flows
    | None, None, Some c ->
        if (not (Float.is_finite c)) || Float.compare c 0.0 < 0 then
          reject Invalid_params "scale must be finite and non-negative";
        Array.map (fun x -> c *. x) s.rates
    | _ ->
        reject Invalid_params
          "exactly one of \"rates\", \"seed\" or \"scale\" is required"
  in
  (* Finite rates, or a finite scale, can still overflow the total rate
     Λ; refused before the session's rates change. *)
  let total_rate = Flow.total_rate rates in
  if not (Float.is_finite total_rate) then
    reject Invalid_params "the rates overflow the total rate to %g" total_rate;
  s.rates <- rates;
  Json.Obj
    [
      ("flows", num (Array.length rates));
      ("total_rate", fnum total_rate);
    ]

let fail_links t params =
  with_session t params @@ fun s ->
  let fraction =
    match Protocol.float_param params "fraction" with
    | Some f -> f
    | None -> reject Invalid_params "missing required parameter \"fraction\""
  in
  let seed = Option.value ~default:0 (Protocol.int_param params "seed") in
  let parent_digest = s.digest in
  let degraded, failed =
    Failures.fail_links ~rng:(Rng.create seed) ~fraction s.graph
  in
  s.graph <- degraded;
  s.digest <- Graph.digest degraded;
  s.failed_rev <- List.rev_append failed s.failed_rev;
  s.failed_count <- s.failed_count + List.length failed;
  (* Incremental repair: the degraded fabric is the parent minus the
     failed links, so when the parent's matrix is cached we derive the
     degraded matrix from it (only rows whose shortest-path trees used
     a failed link re-run) and install it under the new digest — the
     next [place] is a warm hit instead of a cold all-pairs sweep. *)
  let repaired, cached =
    match
      Lru.derive t.cache s.digest ~parent:parent_digest (fun parent ->
          Option.map fst (Cost_matrix.repair_to parent degraded))
    with
    | Lru.Cached -> (false, true)
    | Lru.Absent -> (false, false)
    | Lru.Derived -> (true, true)
  in
  Json.Obj
    [
      ("failed_count", num (List.length failed));
      ( "failed",
        Json.List
          (List.map (fun (u, v) -> Json.List [ num u; num v ]) failed) );
      ("links", num (Graph.num_edges degraded));
      ("digest", Str s.digest);
      ("cached_cost_matrix", Bool cached);
      ("repaired_cost_matrix", Bool repaired);
    ]

(* Replay a discrete-event day against the session's fabric and
   workload. Everything runs on copies — the event engine owns its
   placement/problem state and the session's graph, flows, rates and
   placement are left untouched — so a monitoring client can explore
   "what would a threshold trigger have done" without perturbing the
   live session. *)
let simulate_events t params =
  with_session t params @@ fun s ->
  let mu = mu_param params in
  let trigger =
    let spec =
      Option.value ~default:"periodic:1" (Protocol.str_param params "trigger")
    in
    match Ppdc_sim.Event_engine.trigger_of_string spec with
    | trigger -> trigger
    | exception Invalid_argument msg -> reject Invalid_params "%s" msg
  in
  let policy =
    let name =
      Option.value ~default:"mpareto" (Protocol.str_param params "policy")
    in
    match List.assoc_opt name Ppdc_sim.Engine.policies with
    | Some policy -> policy
    | None ->
        reject Invalid_params "unknown policy %S (expected %s)" name
          (String.concat ", " (List.map fst Ppdc_sim.Engine.policies))
  in
  let t0 = Clock.now () in
  let hit, problem = problem_of t s in
  let scenario = Ppdc_sim.Scenario.make ~mu problem in
  let events =
    let base = Ppdc_sim.Scenario.events_of_diurnal scenario in
    match Protocol.float_param params "probe_every" with
    | None -> base
    | Some every when Float.is_finite every && Float.compare every 0.0 > 0 ->
        Ppdc_traffic.Events.merge base
          (Ppdc_traffic.Events.probes ~every
             ~horizon:(Ppdc_traffic.Events.horizon base))
    | Some _ -> reject Invalid_params "probe_every must be finite positive"
  in
  let r =
    match
      Ppdc_sim.Event_engine.run scenario ~policy ~trigger ~events ()
    with
    | r -> r
    | exception Invalid_argument msg -> reject Invalid_params "%s" msg
  in
  Json.Obj
    [
      ("policy", Json.Str (Ppdc_sim.Engine.policy_name policy));
      ("trigger", Json.Str (Ppdc_sim.Event_engine.trigger_name trigger));
      ("mu", fnum mu);
      ("events", num (Array.length r.Ppdc_sim.Event_engine.records));
      ("reconfigurations", num r.Ppdc_sim.Event_engine.reconfigurations);
      ("moves", num r.Ppdc_sim.Event_engine.total_moves);
      ("comm_cost", fnum r.Ppdc_sim.Event_engine.total_comm);
      ("migration_cost", fnum r.Ppdc_sim.Event_engine.total_migration);
      ("total_cost", fnum r.Ppdc_sim.Event_engine.total_cost);
      ( "final_placement",
        placement_json r.Ppdc_sim.Event_engine.final_placement );
      ("cache_hit", Json.Bool hit);
      ("elapsed_ms", fnum (1000.0 *. Clock.elapsed_s ~since:t0));
    ]

let num_opt = function None -> Json.Null | Some v -> num v

let stats t _params =
  (* Snapshot the registry one shard lock at a time, then render
     session fields without taking the per-session locks: single
     mutable-field reads are atomic in OCaml, and stats is a
     monitoring view — a request racing it simply shows its
     before-or-after state. Sessions are sorted by name so the
     rendering never depends on shard count or hash order. *)
  let session_list =
    Registry.fold t.registry ~init:[] ~f:(fun acc ~name ~tenant s ->
        (name, tenant, s) :: acc)
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  (* The methods called so far, by name, each meter read once: a
     method's count and its latency agree. *)
  let counts, latency =
    List.filter_map
      (fun m ->
        let calls = Atomic.get m.calls in
        if calls = 0 then None
        else
          let total_ns = float_of_int (Atomic.get m.total_ns) in
          let max_ns = float_of_int (Atomic.get m.max_ns) in
          Some
            ( (m.meth, num calls),
              ( m.meth,
                Json.Obj
                  [
                    ("count", num calls);
                    ("total_ms", fnum (total_ns /. 1e6));
                    ("mean_ms", fnum (total_ns /. float_of_int calls /. 1e6));
                    ("max_ms", fnum (max_ns /. 1e6));
                  ] ) ))
      (t.unknown :: List.map fst t.methods)
    |> List.sort (fun ((a, _), _) ((b, _), _) -> String.compare a b)
    |> List.split
  in
  let sessions =
    List.map
      (fun (name, tenant, (s : session)) ->
        Json.Obj
          [
            ("name", Str name);
            ("tenant", Str tenant);
            ("k", num s.k);
            ("nodes", num (Graph.num_nodes s.graph));
            ("links", num (Graph.num_edges s.graph));
            ("flows", num (Array.length s.flows));
            ("n", num s.n);
            ("placed", Bool (Option.is_some s.placement));
            ("failed_links", num s.failed_count);
            (* Episode order, oldest first — the log the operator
               replays to reconstruct the fabric's lineage. *)
            ( "failed",
              Json.List
                (List.map
                   (fun (u, v) -> Json.List [ num u; num v ])
                   (failed_links s)) );
            ("digest", Str s.digest);
          ])
      session_list
  in
  let cache =
    let c = Lru.stats t.cache in
    Json.Obj
      [
        ("capacity", num c.capacity);
        ("entries", num c.entries);
        ("hits", num c.hits);
        ("misses", num c.misses);
        ("repairs", num c.derived);
        ("rebuilds", num c.builds);
        ("in_flight", num c.in_flight);
        ("waiting", num c.waiting);
      ]
  in
  let c = Registry.counters t.registry and l = Registry.limits t.registry in
  let registry_section =
    Json.Obj
      [
        ("shards", num (Registry.shard_count t.registry));
        ("sessions", num (Registry.length t.registry));
        ( "shard_sessions",
          Json.List
            (Array.to_list (Array.map num (Registry.shard_sizes t.registry)))
        );
        ("session_budget", num_opt l.session_budget);
        ("tenant_sessions", num_opt l.tenant_sessions);
        ("tenant_bytes", num_opt l.tenant_bytes);
        ( "evictions",
          Json.Obj
            [
              ( "total",
                num
                  (c.evicted_budget + c.evicted_tenant_sessions
                 + c.evicted_tenant_bytes) );
              ("budget", num c.evicted_budget);
              ("tenant_sessions", num c.evicted_tenant_sessions);
              ("tenant_bytes", num c.evicted_tenant_bytes);
            ] );
        ("evicted_answers", num (Atomic.get t.evicted_answers));
      ]
  in
  let fairness_section =
    Json.Obj
      [
        ("tenant_inflight", num_opt l.tenant_inflight);
        ("rejections", num c.fairness_rejections);
      ]
  in
  (* Process-wide GC counters: a worker domain and the main domain read
     the same counts. A mix whose [major_collections] climb with every
     request is paying for the bytes it allocates, off-heap rows
     included (DESIGN.md §4f). *)
  let runtime =
    let g = Gc.quick_stat () in
    Json.Obj
      [
        ("major_collections", num g.major_collections);
        ("minor_collections", num g.minor_collections);
        ("heap_words", num g.heap_words);
        ("top_heap_words", num g.top_heap_words);
      ]
  in
  let server =
    match Atomic.get t.load_probe with
    | None -> []
    | Some probe ->
        let l = probe () in
        [
          ( "server",
            Json.Obj
              [
                ("workers", num l.workers);
                ("connections", Json.Obj [ ("active", num l.active_connections) ]);
                ("queue", Json.Obj [ ("depth", num l.queue_depth) ]);
                ("rejected", num l.rejected_connections);
              ] );
        ]
  in
  Json.Obj
    ([
       ("schema", Json.Str "ppdc.rpc/1");
       ("uptime_s", fnum (Clock.elapsed_s ~since:t.started));
       ( "requests",
         Json.Obj
           [
             ("total", num (Atomic.get t.total_requests));
             ("errors", num (Atomic.get t.errors));
             ("deadline_exceeded", num (Atomic.get t.deadline_errors));
             ("by_method", Json.Obj counts);
             ("latency_ms", Json.Obj latency);
           ] );
       ("cache", cache);
       ("registry", registry_section);
       ("fairness", fairness_section);
       ("runtime", runtime);
     ]
    @ server
    @ [ ("sessions", Json.List sessions) ])

let shutdown t _params =
  Atomic.set t.stop true;
  Json.Obj [ ("stopping", Bool true) ]

(* --- dispatch ----------------------------------------------------------- *)

let handlers =
  [
    ("health", health);
    ("load_topology", load_topology);
    ("place", place);
    ("migrate", migrate);
    ("rates_update", rates_update);
    ("fail_links", fail_links);
    ("simulate_events", simulate_events);
    ("stats", stats);
    ("shutdown", shutdown);
  ]

let meter meth span =
  {
    meth;
    span;
    calls = Atomic.make 0;
    total_ns = Atomic.make 0;
    max_ns = Atomic.make 0;
  }

let create ?(cache_capacity = 8) ?shards ?session_budget ?tenant_sessions
    ?tenant_bytes ?tenant_inflight () =
  {
    cache = Lru.create ~capacity:cache_capacity;
    registry =
      Registry.create ?shards ?session_budget ?tenant_sessions ?tenant_bytes
        ?tenant_inflight ();
    started = Clock.now ();
    methods =
      List.map
        (fun (m, handler) -> (meter m (Some ("rpc." ^ m)), handler))
        handlers;
    (* One meter for every name no handler serves: a client choosing
       method names must not grow [stats]. *)
    unknown = meter "unknown_method" None;
    total_requests = Atomic.make 0;
    errors = Atomic.make 0;
    deadline_errors = Atomic.make 0;
    evicted_answers = Atomic.make 0;
    load_probe = Atomic.make None;
    stop = Atomic.make false;
  }

(* The call is counted last, so [stats] never reads a call without
   its time. *)
let record m dt =
  let ns = Float.to_int (dt *. 1e9) in
  let rec raise_max () =
    let seen = Atomic.get m.max_ns in
    if ns > seen && not (Atomic.compare_and_set m.max_ns seen ns) then
      raise_max ()
  in
  raise_max ();
  ignore (Atomic.fetch_and_add m.total_ns ns);
  Atomic.incr m.calls;
  match m.span with Some span -> Obs.observe_span span dt | None -> ()

let error_of = function
  | Reject (code, msg) -> (code, msg)
  | Protocol.Bad_params msg | Invalid_argument msg ->
      (Protocol.Invalid_params, msg)
  | exn -> (Protocol.Internal_error, Printexc.to_string exn)

(* Tenant of a tenant-scoped request (one that names a session). Total:
   an ill-typed "session" field is left for the handler's own parameter
   checking — admission must never turn a type error into overloaded. *)
let request_tenant (req : Protocol.request) =
  match Json.member "session" req.params with
  | Some (Json.Str name) -> Some (Registry.tenant_of name)
  | _ -> None

let run_handler t (req : Protocol.request) =
  let t0 = Clock.now () in
  let meter, handler =
    match
      List.find_opt (fun (m, _) -> String.equal m.meth req.meth) t.methods
    with
    | Some served -> served
    | None ->
        ( t.unknown,
          fun _ _ -> reject Unknown_method "unknown method %S" req.meth )
  in
  let response =
    match handler t req.params with
    | result -> Protocol.ok_response ~id:req.id result
    | exception exn ->
        Atomic.incr t.errors;
        let code, msg = error_of exn in
        Protocol.error_response ~id:req.id code msg
  in
  record meter (Clock.elapsed_s ~since:t0);
  response

let handle_line ?deadline t line =
  Atomic.incr t.total_requests;
  match Protocol.request_of_line line with
  | Error (code, msg) ->
      Atomic.incr t.errors;
      Protocol.error_response ~id:Json.Null code msg
  | Ok req -> (
      match deadline with
      | Some d when Float.compare (Clock.now ()) d > 0 ->
          (* The request spent its whole time budget queued; answer
             without starting the handler so the worker moves on. *)
          Atomic.incr t.errors;
          Atomic.incr t.deadline_errors;
          Protocol.error_response ~id:req.id Deadline_exceeded
            "request deadline expired before the handler could start"
      | _ -> (
          (* Per-tenant admission: a tenant already running its
             configured share of concurrent handlers is answered
             overloaded before the handler starts, so one tenant's
             burst cannot occupy every worker. Requests that name no
             session (health, stats, shutdown) are never gated. *)
          match request_tenant req with
          | Some tenant when not (Registry.enter_tenant t.registry tenant) ->
              Atomic.incr t.errors;
              Protocol.error_response ~id:req.id Overloaded
                (Printf.sprintf
                   "tenant %S is at its in-flight request cap; retry later"
                   tenant)
          | Some tenant ->
              Fun.protect
                ~finally:(fun () -> Registry.exit_tenant t.registry tenant)
                (fun () -> run_handler t req)
          | None -> run_handler t req))

let overlong_response =
  Protocol.error_response ~id:Json.Null Line_too_long
    "request line exceeds the transport's maximum length"

let overloaded_response =
  Protocol.error_response ~id:Json.Null Overloaded
    "server is overloaded (worker pool and pending queue are full); retry \
     later"
