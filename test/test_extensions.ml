module Fat_tree = Ppdc_topology.Fat_tree
module Random_topology = Ppdc_topology.Random_topology
module Cost_matrix = Ppdc_topology.Cost_matrix
module Workload = Ppdc_traffic.Workload
module Flow = Ppdc_traffic.Flow
module Rng = Ppdc_prelude.Rng
open Ppdc_core
open Ppdc_extensions

let k4_problem ~l ~n ~seed =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let rng = Rng.create seed in
  let flows = Workload.generate_on_fat_tree ~rng ~l ft in
  Problem.make ~cm ~flows ~n ()

(* --- capacity ---------------------------------------------------------- *)

let test_capacity_validate () =
  let problem = k4_problem ~l:4 ~n:4 ~seed:1 in
  Capacity.validate problem ~capacity:2 [| 0; 0; 1; 1 |];
  Alcotest.(check bool) "over capacity rejected" false
    (Capacity.is_valid problem ~capacity:2 [| 0; 0; 0; 1 |]);
  Alcotest.(check bool) "plain distinct ok at capacity 1" true
    (Capacity.is_valid problem ~capacity:1 [| 0; 1; 2; 3 |]);
  Alcotest.(check bool) "repeat rejected at capacity 1" false
    (Capacity.is_valid problem ~capacity:1 [| 0; 0; 1; 2 |])

let test_capacity_stacks_whole_chain () =
  let problem = k4_problem ~l:6 ~n:4 ~seed:2 in
  let rates = Flow.base_rates (Problem.flows problem) in
  let out = Capacity.solve problem ~rates ~capacity:4 in
  Alcotest.(check int) "one block" 1 out.blocks;
  let s = out.placement.(0) in
  Alcotest.(check bool) "all co-located" true
    (Array.for_all (( = ) s) out.placement);
  (* Stacking on one switch zeroes the chain-internal cost, so the cost
     is the best single-switch attach sum — the n=1 optimum. *)
  let n1 = Problem.with_n problem 1 in
  let best_single = Placement_opt.solve n1 ~rates () in
  Alcotest.(check (float 1e-6)) "equals the single-switch optimum"
    best_single.cost out.cost

let test_capacity_one_equals_plain_dp () =
  for seed = 1 to 4 do
    let problem = k4_problem ~l:8 ~n:4 ~seed in
    let rates = Flow.base_rates (Problem.flows problem) in
    let plain = Placement_dp.solve problem ~rates () in
    let capped = Capacity.solve problem ~rates ~capacity:1 in
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "capacity 1 = paper model (seed %d)" seed)
      plain.cost capped.cost
  done

let test_capacity_block_reduction_is_optimal () =
  (* The reduction theorem: optimal capacity-TOP equals optimal TOP on
     ceil(n/c) block switches, expanded. Certify against the direct
     capacity-aware exhaustive search. *)
  for seed = 1 to 3 do
    let problem = k4_problem ~l:5 ~n:4 ~seed in
    let rates = Flow.base_rates (Problem.flows problem) in
    List.iter
      (fun capacity ->
        let direct, proved =
          Capacity.solve_optimal problem ~rates ~capacity
        in
        Alcotest.(check bool) "search completed" true proved;
        let q = (4 + capacity - 1) / capacity in
        let reduced = Problem.with_n problem q in
        let blocks = Placement_opt.solve reduced ~rates () in
        Alcotest.(check bool) "reduced search completed" true
          blocks.proven_optimal;
        Alcotest.(check (float 1e-6))
          (Printf.sprintf "reduction exact (seed %d, c=%d)" seed capacity)
          blocks.cost direct.cost)
      [ 1; 2; 4 ]
  done

let test_capacity_monotone_in_capacity () =
  let problem = k4_problem ~l:8 ~n:4 ~seed:5 in
  let rates = Flow.base_rates (Problem.flows problem) in
  let cost c = (fst (Capacity.solve_optimal problem ~rates ~capacity:c)).cost in
  let c1 = cost 1 and c2 = cost 2 and c4 = cost 4 in
  Alcotest.(check bool) "capacity 2 <= capacity 1" true (c2 <= c1 +. 1e-9);
  Alcotest.(check bool) "capacity 4 <= capacity 2" true (c4 <= c2 +. 1e-9)

(* --- multi-SFC ---------------------------------------------------------- *)

let two_chain_instance ~seed =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let rng = Rng.create seed in
  let flows = Workload.generate_on_fat_tree ~rng ~l:10 ft in
  let spec =
    {
      Multi_sfc.chains = [| Chain.typical 3; Chain.typical 4 |];
      assignment = Array.init 10 (fun i -> i mod 2);
    }
  in
  (Multi_sfc.make ~cm ~flows ~spec, flows)

let test_multi_sfc_make_validation () =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let rng = Rng.create 1 in
  let flows = Workload.generate_on_fat_tree ~rng ~l:4 ft in
  let reject name spec =
    Alcotest.(check bool) name true
      (try
         ignore (Multi_sfc.make ~cm ~flows ~spec);
         false
       with Invalid_argument _ -> true)
  in
  reject "assignment length"
    { Multi_sfc.chains = [| Chain.typical 2 |]; assignment = [| 0 |] };
  reject "chain index range"
    { Multi_sfc.chains = [| Chain.typical 2 |]; assignment = [| 0; 0; 0; 1 |] };
  reject "empty chain bucket"
    {
      Multi_sfc.chains = [| Chain.typical 2; Chain.typical 3 |];
      assignment = [| 0; 0; 0; 0 |];
    }

let test_multi_sfc_place_disjoint () =
  let t, flows = two_chain_instance ~seed:3 in
  let rates = Flow.base_rates flows in
  let out = Multi_sfc.place t ~rates in
  Multi_sfc.validate t out.placement;
  Alcotest.(check int) "chain 0 length" 3 (Array.length out.placement.(0));
  Alcotest.(check int) "chain 1 length" 4 (Array.length out.placement.(1));
  Alcotest.(check (float 1e-6)) "cost recomputes" out.cost
    (Multi_sfc.total_cost t ~rates out.placement)

let test_multi_sfc_single_chain_degenerates () =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let rng = Rng.create 4 in
  let flows = Workload.generate_on_fat_tree ~rng ~l:8 ft in
  let t =
    Multi_sfc.make ~cm ~flows
      ~spec:
        {
          Multi_sfc.chains = [| Chain.typical 4 |];
          assignment = Array.make 8 0;
        }
  in
  let rates = Flow.base_rates flows in
  let multi = Multi_sfc.place t ~rates in
  let plain =
    Placement_dp.solve (Problem.make ~cm ~flows ~n:4 ()) ~rates ()
  in
  Alcotest.(check (float 1e-6)) "one chain = plain TOP" plain.cost multi.cost

let test_multi_sfc_flows_partition () =
  let t, flows = two_chain_instance ~seed:5 in
  let c0 = Multi_sfc.flows_of_chain t 0 and c1 = Multi_sfc.flows_of_chain t 1 in
  Alcotest.(check int) "partition sizes" (Array.length flows)
    (Array.length c0 + Array.length c1);
  Array.iter
    (fun (f : Flow.t) ->
      Alcotest.(check int) "chain 0 flows are even ids" 0 (f.id mod 2))
    c0

let test_multi_sfc_migrate_improves () =
  let t, flows = two_chain_instance ~seed:6 in
  let rates0 = Flow.base_rates flows in
  let current = (Multi_sfc.place t ~rates:rates0).placement in
  let rng = Rng.create 99 in
  let rates = Workload.redraw_rates ~rng flows in
  let out, migration_cost, moves = Multi_sfc.migrate t ~rates ~mu:10.0 ~current in
  Multi_sfc.validate t out.placement;
  Alcotest.(check bool) "non-negative accounting" true
    (migration_cost >= 0.0 && moves >= 0);
  let stay = Multi_sfc.total_cost t ~rates current in
  Alcotest.(check bool) "migrate <= stay" true (out.cost <= stay +. 1e-6)

(* --- restricted problems (the mechanism multi-SFC relies on) ------------ *)

let test_restricted_problem () =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let rng = Rng.create 7 in
  let flows = Workload.generate_on_fat_tree ~rng ~l:6 ft in
  let candidates = [| 4; 5; 6; 7; 8 |] in
  let problem = Problem.make ~switch_candidates:candidates ~cm ~flows ~n:3 () in
  let rates = Flow.base_rates flows in
  let dp = Placement_dp.solve problem ~rates () in
  Array.iter
    (fun s ->
      Alcotest.(check bool) "placement stays inside candidates" true
        (Array.exists (( = ) s) candidates))
    dp.placement;
  let opt = Placement_opt.solve problem ~rates () in
  Array.iter
    (fun s ->
      Alcotest.(check bool) "optimal stays inside candidates" true
        (Array.exists (( = ) s) candidates))
    opt.placement;
  let rates' = Workload.redraw_rates ~rng flows in
  let mp = Mpareto.migrate problem ~rates:rates' ~mu:5.0 ~current:dp.placement () in
  Array.iter
    (fun s ->
      Alcotest.(check bool) "migration rests inside candidates" true
        (Array.exists (( = ) s) candidates))
    mp.migration

(* --- replication --------------------------------------------------------- *)

let test_replication_single_copy_equals_eq1 () =
  for seed = 1 to 4 do
    let problem = k4_problem ~l:8 ~n:4 ~seed in
    let rates = Flow.base_rates (Problem.flows problem) in
    let rng = Rng.create (seed * 7) in
    let p = Placement.random ~rng problem in
    let d = Replication.of_placement p in
    Replication.validate problem d;
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "single copies = Eq.1 (seed %d)" seed)
      (Cost.comm_cost problem ~rates p)
      (Replication.comm_cost problem ~rates d)
  done

let test_replication_viterbi_matches_bruteforce () =
  let problem = k4_problem ~l:2 ~n:3 ~seed:9 in
  let d =
    { Replication.replicas = [| [| 0; 4 |]; [| 1; 5 |]; [| 2 |] |] }
  in
  Replication.validate problem d;
  let flows = Problem.flows problem in
  Array.iter
    (fun (f : Flow.t) ->
      let c = Problem.cost problem in
      let brute = ref infinity in
      Array.iter
        (fun a ->
          Array.iter
            (fun b ->
              Array.iter
                (fun e ->
                  let route =
                    c f.src_host a +. c a b +. c b e +. c e f.dst_host
                  in
                  if route < !brute then brute := route)
                d.replicas.(2))
            d.replicas.(1))
        d.replicas.(0);
      Alcotest.(check (float 1e-9)) "viterbi = brute force" !brute
        (Replication.flow_route_cost problem d ~src:f.src_host ~dst:f.dst_host))
    flows

let test_replication_never_hurts () =
  for seed = 1 to 4 do
    let problem = k4_problem ~l:10 ~n:4 ~seed in
    let rates = Flow.base_rates (Problem.flows problem) in
    let base = Replication.place problem ~rates ~budget:0 in
    let replicated = Replication.place problem ~rates ~budget:4 in
    Replication.validate problem replicated.deployment;
    Alcotest.(check bool)
      (Printf.sprintf "budget 4 <= budget 0 (seed %d)" seed)
      true
      (replicated.cost <= base.cost +. 1e-6);
    Alcotest.(check bool) "added within budget" true (replicated.added <= 4)
  done

let test_replication_budget_zero_is_dp () =
  let problem = k4_problem ~l:8 ~n:4 ~seed:11 in
  let rates = Flow.base_rates (Problem.flows problem) in
  let base = Replication.place problem ~rates ~budget:0 in
  let dp = Placement_dp.solve problem ~rates () in
  Alcotest.(check (float 1e-6)) "budget 0 = Algo 3" dp.cost base.cost;
  Alcotest.(check int) "n copies" (Problem.n problem)
    (Replication.total_replicas base.deployment)

let test_replication_rejects_conflicts () =
  let problem = k4_problem ~l:4 ~n:2 ~seed:12 in
  let reject name replicas =
    Alcotest.(check bool) name true
      (try
         Replication.validate problem { Replication.replicas };
         false
       with Invalid_argument _ -> true)
  in
  reject "shared switch across VNFs" [| [| 0 |]; [| 0 |] |];
  reject "duplicate copy" [| [| 0; 0 |]; [| 1 |] |];
  reject "empty replica set" [| [| 0 |]; [||] |];
  reject "wrong arity" [| [| 0 |] |]

(* --- simulated annealing -------------------------------------------------- *)

let test_anneal_between_optimal_and_random () =
  for seed = 1 to 3 do
    let problem = k4_problem ~l:10 ~n:4 ~seed in
    let rates = Flow.base_rates (Problem.flows problem) in
    let rng = Rng.create (seed * 1000) in
    let annealed = Placement_anneal.solve ~rng problem ~rates in
    Placement.validate problem annealed.placement;
    let opt = Placement_opt.solve problem ~rates () in
    Alcotest.(check bool)
      (Printf.sprintf "anneal >= optimal (seed %d)" seed)
      true
      (annealed.cost >= opt.cost -. 1e-6);
    Alcotest.(check (float 1e-6)) "reported cost recomputes"
      (Cost.comm_cost problem ~rates annealed.placement)
      annealed.cost;
    (* With 20k proposals on a 20-switch fabric the anneal should land
       within 20% of optimal. *)
    Alcotest.(check bool)
      (Printf.sprintf "anneal within 1.2x optimal (seed %d)" seed)
      true
      (annealed.cost <= 1.2 *. opt.cost)
  done

let test_anneal_deterministic () =
  let problem = k4_problem ~l:8 ~n:3 ~seed:4 in
  let rates = Flow.base_rates (Problem.flows problem) in
  let run () = (Placement_anneal.solve ~rng:(Rng.create 5) problem ~rates).cost in
  Alcotest.(check (float 0.0)) "same rng seed, same anneal" (run ()) (run ())

let test_capacity_one_matches_placement_validate () =
  let problem = k4_problem ~l:4 ~n:3 ~seed:20 in
  let rng = Rng.create 21 in
  for _ = 1 to 20 do
    let p = Placement.random ~rng problem in
    Alcotest.(check bool) "capacity-1 validity = plain validity"
      (Placement.is_valid problem p)
      (Capacity.is_valid problem ~capacity:1 p)
  done

let test_replication_respects_candidates () =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let rng = Rng.create 22 in
  let flows = Workload.generate_on_fat_tree ~rng ~l:8 ft in
  let candidates = [| 0; 1; 2; 3; 4; 5; 6; 7 |] in
  let problem =
    Problem.make ~switch_candidates:candidates ~cm ~flows ~n:3 ()
  in
  let rates = Flow.base_rates flows in
  let out = Replication.place problem ~rates ~budget:3 in
  Replication.validate problem out.deployment;
  Array.iter
    (Array.iter (fun s ->
         Alcotest.(check bool) "replica inside candidates" true
           (Array.exists (( = ) s) candidates)))
    out.deployment.replicas

let test_multi_sfc_exclusion_under_migration () =
  (* After per-chain migration, chains must still be pairwise disjoint
     even when their targets would prefer the same hot switches. *)
  for seed = 1 to 4 do
    let t, flows = two_chain_instance ~seed in
    let rates0 = Flow.base_rates flows in
    let current = (Multi_sfc.place t ~rates:rates0).placement in
    let rng = Rng.create (seed * 5) in
    let rates = Workload.redraw_rates ~rng flows in
    let out, _, _ = Multi_sfc.migrate t ~rates ~mu:0.0 ~current in
    (* mu = 0 maximizes movement; validate still must pass. *)
    Multi_sfc.validate t out.placement
  done

(* --- link failures ---------------------------------------------------------- *)

let test_failures_preserve_connectivity () =
  for seed = 1 to 5 do
    let ft = Fat_tree.build 4 in
    let rng = Rng.create seed in
    let degraded, failed =
      Failures.fail_links ~rng ~fraction:0.3 ft.graph
    in
    Alcotest.(check bool) "some links failed" true (List.length failed > 0);
    (* compute raises on disconnection *)
    ignore (Cost_matrix.compute degraded);
    List.iter
      (fun (u, v) ->
        Alcotest.(check bool) "failed links are switch-switch" true
          (Ppdc_topology.Graph.is_switch ft.graph u
          && Ppdc_topology.Graph.is_switch ft.graph v))
      failed
  done

let test_failures_fraction_zero () =
  let ft = Fat_tree.build 4 in
  let rng = Rng.create 1 in
  let degraded, failed = Failures.fail_links ~rng ~fraction:0.0 ft.graph in
  Alcotest.(check int) "nothing failed" 0 (List.length failed);
  Alcotest.(check int) "same edge count"
    (Ppdc_topology.Graph.num_edges ft.graph)
    (Ppdc_topology.Graph.num_edges degraded)

let test_failures_floor_semantics () =
  (* A k=4 fat-tree has 32 switch-switch links. The budget is the
     floor, not the rounding: 0.049 · 32 = 1.568 buys exactly 1 link,
     and 0.03 · 32 = 0.96 buys none. *)
  let ft = Fat_tree.build 4 in
  let switch_links =
    List.filter
      (fun (u, v, _) ->
        Ppdc_topology.Graph.is_switch ft.graph u
        && Ppdc_topology.Graph.is_switch ft.graph v)
      (Ppdc_topology.Graph.edges ft.graph)
  in
  Alcotest.(check int) "k=4 switch links" 32 (List.length switch_links);
  let _, failed =
    Failures.fail_links ~rng:(Rng.create 1) ~fraction:0.049 ft.graph
  in
  Alcotest.(check int) "0.049 buys exactly one link" 1 (List.length failed);
  let degraded, failed =
    Failures.fail_links ~rng:(Rng.create 1) ~fraction:0.03 ft.graph
  in
  Alcotest.(check int) "0.03 buys nothing" 0 (List.length failed);
  (* A zero budget returns the input graph itself — same digest, so
     the server's cache key does not churn. *)
  Alcotest.(check bool) "zero budget returns the graph unchanged" true
    (degraded == ft.graph)

let test_failures_no_switch_links () =
  (* A single switch with hosts has no switch-switch links at all: any
     fraction is a no-op and the graph comes back unchanged. *)
  let g =
    Ppdc_topology.Graph.(
      make
        ~kinds:[| Switch; Host; Host |]
        ~edges:[ (0, 1, 1.0); (0, 2, 1.0) ])
  in
  let degraded, failed = Failures.fail_links ~rng:(Rng.create 3) ~fraction:1.0 g in
  Alcotest.(check int) "nothing to fail" 0 (List.length failed);
  Alcotest.(check bool) "graph unchanged" true (degraded == g)

let test_failures_rejects_bad_fraction () =
  let ft = Fat_tree.build 4 in
  let reject fraction =
    try
      ignore (Failures.fail_links ~rng:(Rng.create 1) ~fraction ft.graph);
      Alcotest.failf "fraction %f accepted" fraction
    with Invalid_argument _ -> ()
  in
  reject (-0.1);
  reject 1.5;
  reject Float.nan;
  reject Float.infinity

let prop_failures_sound =
  QCheck.Test.make
    ~name:"degraded stays connected; failures switch-switch, within budget"
    ~count:60
    QCheck.(pair (int_bound 10_000) (float_range 0.0 1.0))
    (fun (seed, fraction) ->
      let rng = Rng.create (seed + 1) in
      let rt =
        Random_topology.build ~rng
          ~num_switches:(2 + Rng.int rng 10)
          ~extra_edges:(Rng.int rng 12)
          ~hosts_per_switch:(1 + Rng.int rng 2)
          ()
      in
      let g = rt.graph in
      let switch_links =
        List.length
          (List.filter
             (fun (u, v, _) ->
               Ppdc_topology.Graph.is_switch g u
               && Ppdc_topology.Graph.is_switch g v)
             (Ppdc_topology.Graph.edges g))
      in
      let budget =
        int_of_float (fraction *. float_of_int switch_links)
      in
      let degraded, failed = Failures.fail_links ~rng ~fraction g in
      (* compute raises on a disconnected graph *)
      ignore (Cost_matrix.compute degraded);
      List.length failed <= budget
      && List.for_all
           (fun (u, v) ->
             Ppdc_topology.Graph.is_switch g u
             && Ppdc_topology.Graph.is_switch g v)
           failed
      && (budget > 0 || degraded == g))

let test_failures_impact_matches_cold_pipeline () =
  (* impact now repairs the matrix incrementally; with the same RNG
     seed it must report exactly what the old cold-recompute pipeline
     did. *)
  let problem = k4_problem ~l:10 ~n:4 ~seed:6 in
  let rates = Flow.base_rates (Problem.flows problem) in
  let placement = (Placement_dp.solve problem ~rates ()).placement in
  let out =
    Failures.impact ~rng:(Rng.create 8) ~fraction:0.25 ~mu:100.0 problem
      ~rates ~placement
  in
  let degraded_graph, failed =
    Failures.fail_links ~rng:(Rng.create 8) ~fraction:0.25
      (Problem.graph problem)
  in
  Alcotest.(check (list (pair int int))) "same failures" failed out.failed;
  let cold =
    Problem.make
      ~cm:(Cost_matrix.compute degraded_graph)
      ~flows:(Problem.flows problem) ~n:(Problem.n problem) ()
  in
  let cost_after = Cost.comm_cost cold ~rates placement in
  let response = Mpareto.migrate cold ~rates ~mu:100.0 ~current:placement () in
  Alcotest.(check (float 0.0)) "bit-equal degraded cost" cost_after
    out.cost_after;
  Alcotest.(check (float 0.0)) "bit-equal migrated cost" response.total_cost
    out.cost_migrated;
  Alcotest.(check int) "same moves" response.moved out.moved

let test_failures_impact_story () =
  let problem = k4_problem ~l:10 ~n:4 ~seed:6 in
  let rates = Flow.base_rates (Problem.flows problem) in
  let placement = (Placement_dp.solve problem ~rates ()).placement in
  let rng = Rng.create 8 in
  let out =
    Failures.impact ~rng ~fraction:0.25 ~mu:100.0 problem ~rates ~placement
  in
  (* Rerouting around failures can only lengthen paths... *)
  Alcotest.(check bool) "degradation raises cost" true
    (out.cost_after >= out.cost_before -. 1e-6);
  (* ...and the migration response never loses to staying put. *)
  Alcotest.(check bool) "migration response helps or stays" true
    (out.cost_migrated <= out.cost_after +. 1e-6)

let () =
  Alcotest.run "ppdc_extensions"
    [
      ( "capacity",
        [
          Alcotest.test_case "capacity-aware validation" `Quick
            test_capacity_validate;
          Alcotest.test_case "capacity >= n stacks the chain" `Quick
            test_capacity_stacks_whole_chain;
          Alcotest.test_case "capacity 1 = paper model" `Quick
            test_capacity_one_equals_plain_dp;
          Alcotest.test_case "block reduction is exact" `Quick
            test_capacity_block_reduction_is_optimal;
          Alcotest.test_case "cost monotone in capacity" `Quick
            test_capacity_monotone_in_capacity;
        ] );
      ( "multi-sfc",
        [
          Alcotest.test_case "construction validation" `Quick
            test_multi_sfc_make_validation;
          Alcotest.test_case "placements are chain-disjoint" `Quick
            test_multi_sfc_place_disjoint;
          Alcotest.test_case "single chain degenerates to TOP" `Quick
            test_multi_sfc_single_chain_degenerates;
          Alcotest.test_case "flows partition by chain" `Quick
            test_multi_sfc_flows_partition;
          Alcotest.test_case "migration never hurts" `Quick
            test_multi_sfc_migrate_improves;
        ] );
      ( "restricted-problems",
        [
          Alcotest.test_case "all algorithms respect candidate switches"
            `Quick test_restricted_problem;
        ] );
      ( "annealing",
        [
          Alcotest.test_case "lands between optimal and random" `Quick
            test_anneal_between_optimal_and_random;
          Alcotest.test_case "deterministic from seed" `Quick
            test_anneal_deterministic;
        ] );
      ( "restricted-interactions",
        [
          Alcotest.test_case "capacity-1 equals plain validity" `Quick
            test_capacity_one_matches_placement_validate;
          Alcotest.test_case "replication respects candidates" `Quick
            test_replication_respects_candidates;
          Alcotest.test_case "multi-SFC disjoint after mu=0 migration" `Quick
            test_multi_sfc_exclusion_under_migration;
        ] );
      ( "failures",
        [
          Alcotest.test_case "connectivity preserved" `Quick
            test_failures_preserve_connectivity;
          Alcotest.test_case "fraction 0 is a no-op" `Quick
            test_failures_fraction_zero;
          Alcotest.test_case "budget is the floor" `Quick
            test_failures_floor_semantics;
          Alcotest.test_case "no switch-switch links is a no-op" `Quick
            test_failures_no_switch_links;
          Alcotest.test_case "bad fractions rejected" `Quick
            test_failures_rejects_bad_fraction;
          QCheck_alcotest.to_alcotest prop_failures_sound;
          Alcotest.test_case "impact = cold-recompute pipeline" `Quick
            test_failures_impact_matches_cold_pipeline;
          Alcotest.test_case "degrade-and-respond story" `Quick
            test_failures_impact_story;
        ] );
      ( "replication",
        [
          Alcotest.test_case "single copy equals Eq. 1" `Quick
            test_replication_single_copy_equals_eq1;
          Alcotest.test_case "viterbi equals brute force" `Quick
            test_replication_viterbi_matches_bruteforce;
          Alcotest.test_case "replication never hurts" `Quick
            test_replication_never_hurts;
          Alcotest.test_case "budget 0 is Algo 3" `Quick
            test_replication_budget_zero_is_dp;
          Alcotest.test_case "conflicting deployments rejected" `Quick
            test_replication_rejects_conflicts;
        ] );
    ]
