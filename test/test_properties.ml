(* Property-based tests (qcheck) over randomly generated PPDC instances.

   Each property draws a whole problem — topology, workload, rates — from
   a seed, so shrinking reports a reproducible counterexample seed. *)

module Graph = Ppdc_topology.Graph
module Fat_tree = Ppdc_topology.Fat_tree
module Random_topology = Ppdc_topology.Random_topology
module Cost_matrix = Ppdc_topology.Cost_matrix
module Workload = Ppdc_traffic.Workload
module Flow = Ppdc_traffic.Flow
module Rng = Ppdc_prelude.Rng
open Ppdc_core

(* --- generators --------------------------------------------------------- *)

(* A random connected PPDC with flows: either a small fat-tree or a
   random fabric, 3..12 flows, n in 2..4. *)
let random_problem seed =
  let rng = Rng.create seed in
  let use_fat_tree = Rng.bool rng in
  let cm, hosts =
    if use_fat_tree then begin
      let ft = Fat_tree.build 4 in
      (Cost_matrix.compute ft.graph, ft.hosts)
    end
    else begin
      let rt =
        Random_topology.build
          ~weight:(fun () -> Rng.uniform rng ~lo:0.5 ~hi:3.0)
          ~rng
          ~num_switches:(8 + Rng.int rng 10)
          ~extra_edges:(Rng.int rng 12) ~hosts_per_switch:1 ()
      in
      (Cost_matrix.compute rt.graph, rt.hosts)
    end
  in
  let l = 3 + Rng.int rng 10 in
  let flows = Workload.generate_on_hosts ~rng ~l ~hosts () in
  let n = 2 + Rng.int rng 3 in
  let problem = Problem.make ~cm ~flows ~n () in
  let rates = Flow.base_rates flows in
  (problem, rates, rng)

let seed_gen = QCheck.int_bound 100_000

let property ?(count = 60) name f =
  QCheck.Test.make ~name ~count seed_gen f

(* --- cost model ---------------------------------------------------------- *)

let prop_comm_cost_nonnegative =
  property "C_a is non-negative" (fun seed ->
      let problem, rates, rng = random_problem seed in
      let p = Placement.random ~rng problem in
      Cost.comm_cost problem ~rates p >= 0.0)

let prop_attach_agrees_with_direct =
  property "attach-based C_a equals direct Eq. 1" (fun seed ->
      let problem, rates, rng = random_problem seed in
      let att = Cost.attach problem ~rates in
      let p = Placement.random ~rng problem in
      let a = Cost.comm_cost problem ~rates p in
      let b = Cost.comm_cost_with_attach problem att p in
      Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 a)

let prop_scaling_rates_scales_cost =
  property "C_a is linear in the rate vector" (fun seed ->
      let problem, rates, rng = random_problem seed in
      let p = Placement.random ~rng problem in
      let doubled = Array.map (fun r -> 2.0 *. r) rates in
      let a = Cost.comm_cost problem ~rates p in
      let b = Cost.comm_cost problem ~rates:doubled p in
      Float.abs (b -. (2.0 *. a)) <= 1e-6 *. Float.max 1.0 b)

let prop_migration_cost_symmetric =
  property "C_b(p,m) = C_b(m,p) (metric symmetry)" (fun seed ->
      let problem, _, rng = random_problem seed in
      let a = Placement.random ~rng problem in
      let b = Placement.random ~rng problem in
      let mu = 1.0 +. Rng.float rng 100.0 in
      Float.abs
        (Cost.migration_cost problem ~mu ~src:a ~dst:b
        -. Cost.migration_cost problem ~mu ~src:b ~dst:a)
      <= 1e-6)

let prop_migration_cost_identity =
  property "C_b(p,p) = 0 and moved = 0" (fun seed ->
      let problem, _, rng = random_problem seed in
      let p = Placement.random ~rng problem in
      Cost.migration_cost problem ~mu:123.0 ~src:p ~dst:p = 0.0
      && Cost.moved ~src:p ~dst:p = 0)

let prop_migration_triangle =
  property "C_b obeys the triangle inequality" (fun seed ->
      let problem, _, rng = random_problem seed in
      let a = Placement.random ~rng problem in
      let b = Placement.random ~rng problem in
      let c = Placement.random ~rng problem in
      let d x y = Cost.migration_cost problem ~mu:1.0 ~src:x ~dst:y in
      d a c <= d a b +. d b c +. 1e-6)

(* --- placement algorithms ------------------------------------------------- *)

let prop_dp_upper_bounds_optimal =
  property ~count:40 "Optimal <= DP <= Steering-or-random" (fun seed ->
      let problem, rates, rng = random_problem seed in
      let dp = (Placement_dp.solve problem ~rates ()).cost in
      let opt = (Placement_opt.solve problem ~rates ()).cost in
      let random_cost =
        Cost.comm_cost problem ~rates (Placement.random ~rng problem)
      in
      opt <= dp +. 1e-6 && dp <= random_cost +. 1e-6)

let prop_placements_valid =
  property ~count:40 "every algorithm returns a valid placement" (fun seed ->
      let problem, rates, _ = random_problem seed in
      Placement.is_valid problem (Placement_dp.solve problem ~rates ()).placement
      && Placement.is_valid problem
           (Placement_opt.solve problem ~rates ()).placement
      && Placement.is_valid problem
           (Ppdc_baselines.Steering.place problem ~rates).placement
      && Placement.is_valid problem
           (Ppdc_baselines.Greedy_liu.place problem ~rates).placement)

let prop_optimal_is_permutation_invariant_lower_bound =
  property ~count:30 "optimal placement beats any sampled placement"
    (fun seed ->
      let problem, rates, rng = random_problem seed in
      let opt = (Placement_opt.solve problem ~rates ()).cost in
      let ok = ref true in
      for _ = 1 to 10 do
        let p = Placement.random ~rng problem in
        if Cost.comm_cost problem ~rates p < opt -. 1e-6 then ok := false
      done;
      !ok)

(* --- strolls ---------------------------------------------------------------- *)

let prop_stroll_dp_bounded =
  property ~count:40 "exact <= DP-stroll <= 2·exact (metric instances)"
    (fun seed ->
      let problem, _, rng = random_problem seed in
      let cm = Problem.cm problem in
      let g = Problem.graph problem in
      let hosts = Graph.hosts g in
      let src = Rng.pick rng hosts and dst = Rng.pick rng hosts in
      let n = 1 + Rng.int rng 3 in
      if Graph.num_switches g < n + 2 then true
      else begin
        let dp = Stroll_dp.solve ~cm ~src ~dst ~n () in
        let exact =
          Stroll_exact.solve ~cm ~src ~dst ~n
            ~incumbent:(dp.cost, dp.switches) ()
        in
        exact.cost <= dp.cost +. 1e-6
        && (not exact.proven_optimal || dp.cost <= (2.0 *. exact.cost) +. 1e-6)
      end)

let prop_stroll_visits_requested_count =
  property ~count:40 "stroll returns exactly n distinct switches" (fun seed ->
      let problem, _, rng = random_problem seed in
      let cm = Problem.cm problem in
      let g = Problem.graph problem in
      let hosts = Graph.hosts g in
      let src = Rng.pick rng hosts and dst = Rng.pick rng hosts in
      let n = 1 + Rng.int rng 3 in
      if Graph.num_switches g < n + 2 then true
      else begin
        let dp = Stroll_dp.solve ~cm ~src ~dst ~n () in
        Array.length dp.switches = n
        && List.length (List.sort_uniq compare (Array.to_list dp.switches)) = n
        && Array.for_all (fun s -> s <> src && s <> dst) dp.switches
      end)

let prop_theorem1_top1_equals_stroll =
  property ~count:30 "Theorem 1: TOP-1 optimum = n-stroll optimum" (fun seed ->
      let problem, _, rng = random_problem seed in
      let g = Problem.graph problem in
      let hosts = Graph.hosts g in
      let src = Rng.pick rng hosts and dst = Rng.pick rng hosts in
      let n = min (Problem.n problem) (Graph.num_switches g - 2) in
      if n < 1 then true
      else begin
        let rate = 1.0 +. Rng.float rng 100.0 in
        let flow =
          Ppdc_traffic.Flow.make ~id:0 ~src_host:src ~dst_host:dst
            ~base_rate:rate ~coast:East
        in
        let single =
          Problem.make ~cm:(Problem.cm problem) ~flows:[| flow |] ~n ()
        in
        let top = Placement_opt.solve single ~rates:[| rate |] () in
        let stroll =
          Stroll_exact.solve ~cm:(Problem.cm problem) ~src ~dst ~n ()
        in
        (not (top.proven_optimal && stroll.proven_optimal))
        || Float.abs (top.cost -. (rate *. stroll.cost))
           <= 1e-6 *. Float.max 1.0 top.cost
      end)

(* --- migration ---------------------------------------------------------------- *)

let prop_mpareto_sandwich =
  property ~count:40 "Optimal-TOM <= mPareto <= stay" (fun seed ->
      let problem, rates, rng = random_problem seed in
      let current = Placement.random ~rng problem in
      let rates' = Workload.redraw_rates ~rng (Problem.flows problem) in
      let mu = Rng.float rng 1000.0 in
      let mp = Mpareto.migrate problem ~rates:rates' ~mu ~current () in
      let stay = Cost.comm_cost problem ~rates:rates' current in
      let opt =
        Migration_opt.solve problem ~rates:rates' ~mu ~current
          ~incumbent:mp.migration ()
      in
      ignore rates;
      mp.total_cost <= stay +. 1e-6 && opt.cost <= mp.total_cost +. 1e-6)

let prop_mpareto_accounting =
  property ~count:40 "mPareto outcome accounting is consistent" (fun seed ->
      let problem, _, rng = random_problem seed in
      let current = Placement.random ~rng problem in
      let rates = Workload.redraw_rates ~rng (Problem.flows problem) in
      let mu = Rng.float rng 500.0 in
      let mp = Mpareto.migrate problem ~rates ~mu ~current () in
      let recomputed_b =
        Cost.migration_cost problem ~mu ~src:current ~dst:mp.migration
      in
      let recomputed_a = Cost.comm_cost problem ~rates mp.migration in
      Float.abs (mp.migration_cost -. recomputed_b) <= 1e-6
      && Float.abs (mp.comm_cost -. recomputed_a)
         <= 1e-6 *. Float.max 1.0 recomputed_a
      && Float.abs (mp.total_cost -. (mp.migration_cost +. mp.comm_cost))
         <= 1e-6)

let prop_frontier_pareto_shape =
  property ~count:40 "parallel frontiers: C_b rises monotonically" (fun seed ->
      let problem, _, rng = random_problem seed in
      let current = Placement.random ~rng problem in
      let rates = Workload.redraw_rates ~rng (Problem.flows problem) in
      let mp = Mpareto.migrate problem ~rates ~mu:100.0 ~current () in
      let rec rising = function
        | (a : Mpareto.point) :: (b : Mpareto.point) :: rest ->
            a.migration_cost <= b.migration_cost +. 1e-6
            && rising (b :: rest)
        | _ -> true
      in
      rising mp.points)

let prop_tom_mu_zero_equals_top =
  property ~count:30 "Theorem 4 over random instances" (fun seed ->
      let problem, rates, rng = random_problem seed in
      let current = Placement.random ~rng problem in
      let top = Placement_opt.solve problem ~rates () in
      let tom = Migration_opt.solve problem ~rates ~mu:0.0 ~current () in
      (not (top.proven_optimal && tom.proven_optimal))
      || Float.abs (top.cost -. tom.cost) <= 1e-6 *. Float.max 1.0 top.cost)

(* --- traces ------------------------------------------------------------------- *)

let prop_trace_roundtrip =
  property ~count:40 "trace CSV round-trips" (fun seed ->
      let problem, _, rng = random_problem seed in
      let flows = Problem.flows problem in
      let epochs = 2 + Rng.int rng 10 in
      let trace = Ppdc_traffic.Trace.churn ~rng ~epochs flows in
      let back = Ppdc_traffic.Trace.of_csv (Ppdc_traffic.Trace.to_csv trace) in
      back.Ppdc_traffic.Trace.flows = trace.Ppdc_traffic.Trace.flows
      && back.Ppdc_traffic.Trace.rates = trace.Ppdc_traffic.Trace.rates)

let prop_trace_diurnal_consistent =
  property ~count:40 "diurnal trace equals Diurnal.rates_at" (fun seed ->
      let problem, _, _ = random_problem seed in
      let flows = Problem.flows problem in
      let m = Ppdc_traffic.Diurnal.default in
      let trace = Ppdc_traffic.Trace.of_diurnal m ~flows in
      let ok = ref true in
      for hour = 1 to m.hours do
        if
          Ppdc_traffic.Trace.rates_at trace ~epoch:(hour - 1)
          <> Ppdc_traffic.Diurnal.rates_at m ~flows ~hour
        then ok := false
      done;
      !ok)

(* --- extensions ------------------------------------------------------------------ *)

let prop_capacity_monotone =
  property ~count:30 "capacity never raises the DP cost" (fun seed ->
      let problem, rates, _ = random_problem seed in
      let c1 = (Ppdc_extensions.Capacity.solve problem ~rates ~capacity:1).cost in
      let c2 = (Ppdc_extensions.Capacity.solve problem ~rates ~capacity:2).cost in
      (* Both are heuristic DP results of the reduction, but c=2 places
         ceil(n/2) blocks and stacking is free, so the reduction can only
         shrink the chain; compare against c=1 with tolerance for DP
         noise. *)
      c2 <= c1 +. 1e-6 *. Float.max 1.0 c1 || c2 <= c1 *. 1.05)

let prop_replication_never_hurts =
  property ~count:25 "a replica never raises any flow's route cost"
    (fun seed ->
      let problem, rates, rng = random_problem seed in
      let p = (Placement_dp.solve problem ~rates ()).placement in
      let base = Ppdc_extensions.Replication.of_placement p in
      (* Add one replica of a random VNF at a random free switch. *)
      let switches = Problem.switches problem in
      let free =
        Array.of_list
          (List.filter
             (fun s -> not (Array.exists (( = ) s) p))
             (Array.to_list switches))
      in
      if Array.length free = 0 then true
      else begin
        let j = Rng.int rng (Array.length p) in
        let s = Rng.pick rng free in
        let replicated =
          {
            Ppdc_extensions.Replication.replicas =
              Array.mapi
                (fun j' c -> if j' = j then Array.append c [| s |] else c)
                base.replicas;
          }
        in
        let ok = ref true in
        Array.iter
          (fun (f : Flow.t) ->
            let before =
              Ppdc_extensions.Replication.flow_route_cost problem base
                ~src:f.src_host ~dst:f.dst_host
            in
            let after =
              Ppdc_extensions.Replication.flow_route_cost problem replicated
                ~src:f.src_host ~dst:f.dst_host
            in
            if after > before +. 1e-6 then ok := false)
          (Problem.flows problem);
        !ok
      end)

(* --- differential oracles ------------------------------------------------------ *)

(* The paper's approximation guarantee, as a testable bound: on metric
   cost matrices (all-pairs shortest paths always are) the stroll DP is
   a 2-approximation, and the pair scan preserves the factor, so the
   whole-chain DP never lands below the optimum and never beyond twice
   it. *)
let prop_dp_paper_factor_two =
  property ~count:40 "paper bound: Optimal <= DP <= 2·Optimal" (fun seed ->
      let problem, rates, _ = random_problem seed in
      let dp = (Placement_dp.solve problem ~rates ()).cost in
      let opt = Placement_opt.solve problem ~rates () in
      opt.cost <= dp +. (1e-6 *. Float.max 1.0 dp)
      && ((not opt.proven_optimal)
         || dp <= (2.0 *. opt.cost) +. (1e-6 *. Float.max 1.0 dp)))

let prop_mpareto_bounded_below_by_tom =
  property ~count:40 "mPareto total cost is never below Optimal-TOM's"
    (fun seed ->
      let problem, _, rng = random_problem seed in
      let current = Placement.random ~rng problem in
      let rates = Workload.redraw_rates ~rng (Problem.flows problem) in
      let mu = Rng.float rng 500.0 in
      let mp = Mpareto.migrate problem ~rates ~mu ~current () in
      let tom =
        Migration_opt.solve problem ~rates ~mu ~current
          ~incumbent:mp.migration ()
      in
      tom.cost <= mp.total_cost +. 1e-6)

(* Engine-vs-library differential: drive the full RPC conversation
   (load → place optimal → place primal_dual → place dp → rates_update
   → migrate) through [Engine.handle_line] and replay the engine's
   documented construction through the library API. Agreement must be
   exact — same floats, same switches — because the engine is a thin
   shell over these very functions; any drift means the RPC layer
   computes something else than the paper code. *)
module Engine = Ppdc_server.Engine
module Json = Ppdc_prelude.Json

let rpc engine line =
  let j = Json.parse (Engine.handle_line engine line) in
  match (Json.member "ok" j, Json.member "result" j) with
  | Some (Json.Bool true), Some r -> r
  | _ -> QCheck.Test.fail_reportf "rpc request failed: %s" (Json.to_string j)

let jnum field j =
  match Json.member field j with
  | Some (Json.Num x) -> x
  | _ ->
      QCheck.Test.fail_reportf "missing numeric %S in %s" field
        (Json.to_string j)

let jplacement j =
  match Json.member "placement" j with
  | Some (Json.List xs) ->
      Array.of_list
        (List.map
           (function
             | Json.Num x -> int_of_float x
             | _ -> QCheck.Test.fail_reportf "non-numeric placement entry")
           xs)
  | _ ->
      QCheck.Test.fail_reportf "missing placement in %s" (Json.to_string j)

let same_float a b = Float.compare a b = 0

(* One session, unit or weighted links, against the library on the
   instance [Runner.fat_tree_problem] builds: [load_topology] copies its
   recipe, link delays included. *)
let engine_matches_library ~weighted seed =
  let k = 4 and l = 4 + (seed mod 5) and n = 2 + (seed mod 3) in
  let mu = 100.0 in
  (* Engine side: one session, the documented request sequence. *)
  let engine = Engine.create () in
  let req fmt = Printf.ksprintf (rpc engine) fmt in
  ignore
    (req
       {|{"id":1,"method":"load_topology","params":{"session":"d","k":%d,"l":%d,"n":%d,"seed":%d,"weighted":%b}}|}
       k l n seed weighted);
  let e_opt =
    req {|{"id":2,"method":"place","params":{"session":"d","algo":"optimal"}}|}
  in
  let e_pd =
    req
      {|{"id":3,"method":"place","params":{"session":"d","algo":"primal_dual"}}|}
  in
  let e_dp =
    req {|{"id":4,"method":"place","params":{"session":"d","algo":"dp"}}|}
  in
  ignore
    (req
       {|{"id":5,"method":"rates_update","params":{"session":"d","seed":%d}}|}
       (seed + 1));
  let e_mig =
    req
      {|{"id":6,"method":"migrate","params":{"session":"d","algo":"mpareto","mu":%g}}|}
      mu
  in
  let e_mig_opt =
    req
      {|{"id":7,"method":"migrate","params":{"session":"d","algo":"optimal","mu":%g}}|}
      mu
  in
  (* Library side: the same instance, built by the experiments. *)
  let problem =
    Ppdc_experiments.Runner.fat_tree_problem ~weighted ~k ~l ~n ~seed ()
  in
  let flows = Problem.flows problem in
  let rates = Flow.base_rates flows in
  let opt = Placement_opt.solve problem ~rates () in
  let pd, stroll = Stroll_primal_dual.place problem ~rates in
  let dp = Placement_dp.solve problem ~rates () in
  let rates' = Workload.redraw_rates ~rng:(Rng.create (seed + 1)) flows in
  (* The engine applied place dp last, so its session placement —
     the migration's starting point — is dp's. *)
  let mp =
    Mpareto.migrate problem ~rates:rates' ~mu ~current:dp.placement ()
  in
  (* ... and mPareto's answer is where the optimal migration starts. *)
  let mo =
    Migration_opt.solve problem ~rates:rates' ~mu ~current:mp.migration ()
  in
  let jbool field j = Json.member field j = Some (Json.Bool true) in
  jplacement e_opt = opt.placement
  && same_float (jnum "cost" e_opt) opt.cost
  && jnum "explored" e_opt = float_of_int opt.explored
  && jbool "proven_optimal" e_opt = opt.proven_optimal
  && jplacement e_pd = pd
  && same_float (jnum "cost" e_pd) (Cost.comm_cost problem ~rates pd)
  && (match (Json.member "primal_dual" e_pd, stroll) with
     | Some (Json.Obj []), None -> n <= 2
     | Some detail, Some o ->
         n >= 3
         && same_float (jnum "prize" detail) o.prize
         && jnum "iterations" detail = float_of_int o.iterations
     | _ -> false)
  && jplacement e_dp = dp.placement
  && same_float (jnum "cost" e_dp) dp.cost
  && jplacement e_mig = mp.migration
  && same_float (jnum "migration_cost" e_mig) mp.migration_cost
  && same_float (jnum "comm_cost" e_mig) mp.comm_cost
  && same_float (jnum "total_cost" e_mig) mp.total_cost
  && jnum "moved" e_mig
     = float_of_int (Cost.moved ~src:dp.placement ~dst:mp.migration)
  && jplacement e_mig_opt = mo.migration
  && same_float (jnum "total_cost" e_mig_opt) mo.cost
  && same_float
       (jnum "migration_cost" e_mig_opt)
       (Cost.migration_cost problem ~mu ~src:mp.migration ~dst:mo.migration)
  && same_float
       (jnum "comm_cost" e_mig_opt)
       (Cost.comm_cost problem ~rates:rates' mo.migration)
  && jnum "explored" e_mig_opt = float_of_int mo.explored
  && jbool "proven_optimal" e_mig_opt = mo.proven_optimal

let prop_engine_matches_library =
  property ~count:12 "RPC engine agrees exactly with the library API"
    (fun seed ->
      engine_matches_library ~weighted:false seed
      && engine_matches_library ~weighted:true seed)

(* An oracle independent of the shared branch-and-bound: enumerate every
   ordered sequence of n <= 3 distinct switches and take the minimum
   cost, for Algo. 4, Algo. 6 (mu in {0, 10, 1000}) and the exact
   n-stroll. Each solver must match it whenever it claims a proof. *)
let prop_exact_matches_enumeration =
  let rec sequences k n =
    if n = 0 then [ [] ]
    else
      List.concat_map
        (fun rest ->
          List.filter_map
            (fun x -> if List.mem x rest then None else Some (x :: rest))
            (List.init k Fun.id))
        (sequences k (n - 1))
  in
  let minimum switches n cost =
    List.fold_left
      (fun acc s ->
        Float.min acc (cost (Array.of_list (List.map (Array.get switches) s))))
      infinity
      (sequences (Array.length switches) n)
  in
  property "exact searches = enumeration (n <= 3)" (fun seed ->
      let rng = Rng.create seed in
      let cm, hosts =
        if seed mod 2 = 0 then begin
          let ft = Fat_tree.build 4 in
          (Cost_matrix.compute ft.graph, ft.hosts)
        end
        else begin
          let rt =
            Random_topology.build
              ~weight:(fun () -> Rng.uniform rng ~lo:0.5 ~hi:3.0)
              ~rng
              ~num_switches:(6 + Rng.int rng 6)
              ~extra_edges:(Rng.int rng 8) ~hosts_per_switch:1 ()
          in
          (Cost_matrix.compute rt.graph, rt.hosts)
        end
      in
      let flows =
        Workload.generate_on_hosts ~rng ~l:(3 + Rng.int rng 6) ~hosts ()
      in
      let n = 1 + Rng.int rng 3 in
      let problem = Problem.make ~cm ~flows ~n () in
      let rates = Flow.base_rates flows in
      let switches = Problem.switches problem in
      let agrees ~proven cost best =
        (not proven) || Float.abs (cost -. best) <= 1e-9 *. Float.max 1.0 best
      in
      let top = Placement_opt.solve problem ~rates () in
      let current = Placement.random ~rng problem in
      let tom mu =
        let o = Migration_opt.solve problem ~rates ~mu ~current () in
        agrees ~proven:o.proven_optimal o.cost
          (minimum switches n (fun m ->
               Cost.total_cost problem ~rates ~mu ~src:current ~dst:m))
      in
      let src = Rng.pick rng hosts and dst = Rng.pick rng hosts in
      let stroll = Stroll_exact.solve ~cm ~src ~dst ~n () in
      let stroll_cost xs =
        let c = ref (Cost_matrix.cost cm src xs.(0)) in
        for j = 1 to n - 1 do
          c := !c +. Cost_matrix.cost cm xs.(j - 1) xs.(j)
        done;
        !c +. Cost_matrix.cost cm xs.(n - 1) dst
      in
      agrees ~proven:top.proven_optimal top.cost
        (minimum switches n (Cost.comm_cost problem ~rates))
      && List.for_all tom [ 0.0; 10.0; 1000.0 ]
      && agrees ~proven:stroll.proven_optimal stroll.cost
           (minimum switches n stroll_cost))

let qsuite name tests = (name, List.map (fun t -> QCheck_alcotest.to_alcotest t) tests)

let () =
  Alcotest.run "ppdc_properties"
    [
      qsuite "cost-model"
        [
          prop_comm_cost_nonnegative;
          prop_attach_agrees_with_direct;
          prop_scaling_rates_scales_cost;
          prop_migration_cost_symmetric;
          prop_migration_cost_identity;
          prop_migration_triangle;
        ];
      qsuite "placement"
        [
          prop_dp_upper_bounds_optimal;
          prop_placements_valid;
          prop_optimal_is_permutation_invariant_lower_bound;
          prop_theorem1_top1_equals_stroll;
        ];
      qsuite "stroll"
        [ prop_stroll_dp_bounded; prop_stroll_visits_requested_count ];
      qsuite "migration"
        [
          prop_mpareto_sandwich;
          prop_mpareto_accounting;
          prop_frontier_pareto_shape;
          prop_tom_mu_zero_equals_top;
        ];
      qsuite "traces" [ prop_trace_roundtrip; prop_trace_diurnal_consistent ];
      qsuite "extensions"
        [ prop_capacity_monotone; prop_replication_never_hurts ];
      qsuite "differential"
        [
          prop_dp_paper_factor_two;
          prop_mpareto_bounded_below_by_tom;
          prop_engine_matches_library;
          prop_exact_matches_enumeration;
        ];
    ]
