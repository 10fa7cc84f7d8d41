(* Core-library tests anchored on the paper's worked examples:
   - Example 1 / Fig. 3: the 5-switch linear PPDC where the optimal
     placement costs 410, the rate swap raises it to 1004, and mPareto
     recovers 410 + 6 migration = 416 total;
   - Fig. 4: the optimal 2-stroll of cost 6 that is a walk, not a path;
   - Theorem 4: TOM with mu = 0 degenerates to TOP. *)

module Graph = Ppdc_topology.Graph
module Cost_matrix = Ppdc_topology.Cost_matrix
module Linear = Ppdc_topology.Linear
module Fat_tree = Ppdc_topology.Fat_tree
module Flow = Ppdc_traffic.Flow
module Workload = Ppdc_traffic.Workload
module Rng = Ppdc_prelude.Rng
open Ppdc_core

let check_float = Alcotest.(check (float 1e-9))

(* --- Fig. 1 / Fig. 3 fixture --------------------------------------- *)

(* Linear PPDC: switches 0..4 in a chain, host 5 at switch 0 (h1), host 6
   at switch 4 (h2). Flow 0 has both VMs on h1, flow 1 both on h2. *)
let fig3 () =
  let lin = Linear.build ~num_switches:5 in
  let h1 = lin.hosts.(0) and h2 = lin.hosts.(1) in
  let cm = Cost_matrix.compute lin.graph in
  let flows =
    [|
      Flow.make ~id:0 ~src_host:h1 ~dst_host:h1 ~base_rate:100.0 ~coast:East;
      Flow.make ~id:1 ~src_host:h2 ~dst_host:h2 ~base_rate:1.0 ~coast:West;
    |]
  in
  Problem.make ~cm ~flows ~n:2 ()

let test_fig3_initial_placement () =
  let problem = fig3 () in
  let rates = [| 100.0; 1.0 |] in
  let opt = Placement_opt.solve problem ~rates () in
  Alcotest.(check bool) "proved" true opt.proven_optimal;
  check_float "optimal cost 410" 410.0 opt.cost;
  let dp = Placement_dp.solve problem ~rates () in
  check_float "DP matches optimal here" 410.0 dp.cost

let test_fig3_rate_swap_cost () =
  let problem = fig3 () in
  (* Paper's initial optimal placement: f1 at s1, f2 at s2. *)
  let p = [| 0; 1 |] in
  check_float "C_a under initial rates" 410.0
    (Cost.comm_cost problem ~rates:[| 100.0; 1.0 |] p);
  check_float "C_a after the swap" 1004.0
    (Cost.comm_cost problem ~rates:[| 1.0; 100.0 |] p)

let test_fig3_mpareto_migration () =
  let problem = fig3 () in
  let rates = [| 1.0; 100.0 |] in
  let outcome = Mpareto.migrate problem ~rates ~mu:1.0 ~current:[| 0; 1 |] () in
  check_float "migration cost 6" 6.0 outcome.migration_cost;
  check_float "post-migration C_a 410" 410.0 outcome.comm_cost;
  check_float "total 416" 416.0 outcome.total_cost;
  Alcotest.(check int) "both VNFs moved" 2 outcome.moved

let test_fig3_migration_is_paper_example () =
  (* The paper reports a 58.6% reduction: 1 - 416/1004. *)
  let problem = fig3 () in
  let rates = [| 1.0; 100.0 |] in
  let stay = Cost.comm_cost problem ~rates [| 0; 1 |] in
  let outcome = Mpareto.migrate problem ~rates ~mu:1.0 ~current:[| 0; 1 |] () in
  let reduction = 1.0 -. (outcome.total_cost /. stay) in
  Alcotest.(check bool) "~58.6% reduction"
    true
    (Float.abs (reduction -. 0.586) < 0.01)

(* Algo. 1 as a whole-chain placement on Fig. 3: one VNF goes to the
   switch of least entry plus exit cost, h1's switch (100·2 + 1·10 =
   210); two take the cheapest ingress and the cheapest other egress,
   which is the optimal 410. No stroll is solved below n = 3. *)
let test_fig3_primal_dual_short_chains () =
  let problem = fig3 () in
  let rates = [| 100.0; 1.0 |] in
  List.iter
    (fun (n, expected, cost) ->
      let problem = Problem.with_n problem n in
      let placement, stroll = Stroll_primal_dual.place problem ~rates in
      let name = Printf.sprintf "n = %d" n in
      Alcotest.(check (array int)) name expected placement;
      check_float (name ^ " cost") cost (Cost.comm_cost problem ~rates placement);
      check_float (name ^ " is optimal")
        (Placement_opt.solve problem ~rates ()).cost cost;
      Alcotest.(check bool) (name ^ " solves no stroll") true (stroll = None))
    [ (1, [| 0 |], 210.0); (2, [| 0; 1 |], 410.0) ]

(* --- Fig. 4: optimal stroll is a walk ------------------------------- *)

(* Nodes: s=4 (host), t=5 (host), switches A=0, B=1, C=2, D=3.
   Weights: s-A=2, A-B=3, B-t=2 (the cost-7 path) and s-D=2, D-t=2,
   t-C=1 (enabling the cost-6 walk s,D,t,C,t). *)
let fig4_cm () =
  let kinds =
    [| Graph.Switch; Graph.Switch; Graph.Switch; Graph.Switch; Graph.Host; Graph.Host |]
  in
  let edges =
    [ (4, 0, 2.0); (0, 1, 3.0); (1, 5, 2.0); (4, 3, 2.0); (3, 5, 2.0); (5, 2, 1.0) ]
  in
  Cost_matrix.compute (Graph.make ~kinds ~edges)

let test_fig4_dp_stroll_finds_walk () =
  let cm = fig4_cm () in
  let r = Stroll_dp.solve ~cm ~src:4 ~dst:5 ~n:2 () in
  check_float "2-stroll cost 6" 6.0 r.cost;
  Alcotest.(check int) "visits two distinct switches" 2
    (Array.length r.switches)

let test_fig4_exact_matches () =
  let cm = fig4_cm () in
  let e = Stroll_exact.solve ~cm ~src:4 ~dst:5 ~n:2 () in
  Alcotest.(check bool) "proved" true e.proven_optimal;
  check_float "exact 2-stroll cost 6" 6.0 e.cost

let test_fig4_primal_dual_within_guarantee () =
  let cm = fig4_cm () in
  let pd = Stroll_primal_dual.solve ~cm ~src:4 ~dst:5 ~n:2 () in
  Alcotest.(check bool) "within 2x optimal + slack"
    true
    (pd.cost <= (2.0 *. 6.0) +. 1e-6);
  Alcotest.(check int) "visits 2 switches" 2 (Array.length pd.switches)

(* --- stroll properties on a fat-tree --------------------------------- *)

let k4_problem ~l ~n ~seed =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let rng = Rng.create seed in
  let flows = Workload.generate_on_fat_tree ~rng ~l ft in
  (Problem.make ~cm ~flows ~n (), ft)

let test_seven_stroll_on_fat_tree () =
  (* Example 3: placing 7 VNFs between two hosts of a k=4 fat-tree needs
     a 7-stroll; with unit weights its optimum is the 8-edge path. *)
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let h4 = ft.hosts.(3) and h5 = ft.hosts.(4) in
  let dp = Stroll_dp.solve ~cm ~src:h4 ~dst:h5 ~n:7 () in
  Alcotest.(check int) "7 distinct switches" 7 (Array.length dp.switches);
  let exact = Stroll_exact.solve ~cm ~src:h4 ~dst:h5 ~n:7 () in
  Alcotest.(check bool) "proved" true exact.proven_optimal;
  check_float "optimal 7-stroll is the 8-edge path" 8.0 exact.cost;
  Alcotest.(check bool) "DP within 2x of optimal"
    true
    (dp.cost <= 2.0 *. exact.cost)

let test_dp_stroll_never_beats_exact () =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  for n = 1 to 6 do
    let src = ft.hosts.(0) and dst = ft.hosts.(7) in
    let dp = Stroll_dp.solve ~cm ~src ~dst ~n () in
    let exact = Stroll_exact.solve ~cm ~src ~dst ~n () in
    Alcotest.(check bool)
      (Printf.sprintf "dp >= exact at n=%d" n)
      true
      (dp.cost >= exact.cost -. 1e-9);
    Alcotest.(check bool)
      (Printf.sprintf "dp within 2+eps at n=%d" n)
      true
      (dp.cost <= (2.0 *. exact.cost) +. 1e-9)
  done

let test_closed_stroll_src_eq_dst () =
  (* Regression: when src = dst the optimal 1-stroll is the immediate
     out-and-back dst -> u -> dst. The DP's no-backtrack rule used to
     ban exactly that walk (every level-1 successor is dst), forcing a
     3-edge detour that broke the 2x bound. On a unit-weight fat-tree
     the closed 1-stroll from a host is host -> edge switch -> host,
     cost 2. *)
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let h = ft.hosts.(5) in
  let dp = Stroll_dp.solve ~cm ~src:h ~dst:h ~n:1 () in
  check_float "closed 1-stroll is out-and-back" 2.0 dp.cost;
  Alcotest.(check int) "two edges" 2 dp.edges;
  let exact = Stroll_exact.solve ~cm ~src:h ~dst:h ~n:1 () in
  check_float "exact agrees" 2.0 exact.cost;
  for n = 1 to 4 do
    let dp = Stroll_dp.solve ~cm ~src:h ~dst:h ~n () in
    let exact = Stroll_exact.solve ~cm ~src:h ~dst:h ~n () in
    Alcotest.(check bool)
      (Printf.sprintf "closed stroll within 2x at n=%d" n)
      true
      ((not exact.proven_optimal)
      || dp.cost <= (2.0 *. exact.cost) +. 1e-9)
  done

let test_stroll_switches_distinct () =
  let problem, ft = k4_problem ~l:4 ~n:5 ~seed:7 in
  ignore problem;
  let cm = Cost_matrix.compute ft.graph in
  let r = Stroll_dp.solve ~cm ~src:ft.hosts.(1) ~dst:ft.hosts.(9) ~n:5 () in
  let sorted = Array.copy r.switches in
  Array.sort compare sorted;
  let distinct = Array.length sorted in
  let dedup =
    Array.to_list sorted |> List.sort_uniq compare |> List.length
  in
  Alcotest.(check int) "no duplicates" distinct dedup

(* --- placement algorithms ------------------------------------------- *)

let test_dp_placement_close_to_optimal () =
  let problem, _ = k4_problem ~l:6 ~n:4 ~seed:11 in
  let rates = Flow.base_rates (Problem.flows problem) in
  let dp = Placement_dp.solve problem ~rates () in
  let opt = Placement_opt.solve problem ~rates () in
  Alcotest.(check bool) "proved" true opt.proven_optimal;
  Alcotest.(check bool) "dp >= opt" true (dp.cost >= opt.cost -. 1e-9);
  Alcotest.(check bool) "dp within 1.5x of opt" true
    (dp.cost <= 1.5 *. opt.cost);
  Placement.validate problem dp.placement;
  Placement.validate problem opt.placement

let test_placement_cost_equals_eq1 () =
  let problem, _ = k4_problem ~l:5 ~n:3 ~seed:3 in
  let rates = Flow.base_rates (Problem.flows problem) in
  let dp = Placement_dp.solve problem ~rates () in
  check_float "reported cost = Eq.1 evaluation" dp.cost
    (Cost.comm_cost problem ~rates dp.placement)

let test_rescore_never_worse () =
  for seed = 1 to 5 do
    let problem, _ = k4_problem ~l:8 ~n:5 ~seed in
    let rates = Flow.base_rates (Problem.flows problem) in
    let plain = Placement_dp.solve problem ~rates () in
    let rescored = Placement_dp.solve problem ~rates ~rescore:true () in
    Alcotest.(check bool)
      (Printf.sprintf "rescore <= plain (seed %d)" seed)
      true
      (rescored.cost <= plain.cost +. 1e-9)
  done

(* --- migration ------------------------------------------------------- *)

let test_theorem4_mu_zero_degenerates_to_top () =
  let problem, _ = k4_problem ~l:5 ~n:3 ~seed:21 in
  let rates = Flow.base_rates (Problem.flows problem) in
  let rng = Rng.create 99 in
  let current = Placement.random ~rng problem in
  let top = Placement_opt.solve problem ~rates () in
  let tom = Migration_opt.solve problem ~rates ~mu:0.0 ~current () in
  Alcotest.(check bool) "both proved" true
    (top.proven_optimal && tom.proven_optimal);
  check_float "TOM(mu=0) = TOP" top.cost tom.cost

let test_mpareto_never_worse_than_staying () =
  for seed = 1 to 6 do
    let problem, _ = k4_problem ~l:6 ~n:4 ~seed in
    let rng = Rng.create (seed * 13) in
    let rates0 = Flow.base_rates (Problem.flows problem) in
    let current = (Placement_dp.solve problem ~rates:rates0 ()).placement in
    let rates1 = Workload.redraw_rates ~rng (Problem.flows problem) in
    let outcome = Mpareto.migrate problem ~rates:rates1 ~mu:100.0 ~current () in
    let stay = Cost.comm_cost problem ~rates:rates1 current in
    Alcotest.(check bool)
      (Printf.sprintf "mpareto <= stay (seed %d)" seed)
      true
      (outcome.total_cost <= stay +. 1e-9)
  done

let test_mpareto_not_better_than_exhaustive () =
  for seed = 1 to 4 do
    let problem, _ = k4_problem ~l:4 ~n:3 ~seed in
    let rng = Rng.create (seed * 7) in
    let rates0 = Flow.base_rates (Problem.flows problem) in
    let current = (Placement_dp.solve problem ~rates:rates0 ()).placement in
    let rates = Workload.redraw_rates ~rng (Problem.flows problem) in
    let mp = Mpareto.migrate problem ~rates ~mu:50.0 ~current () in
    let opt = Migration_opt.solve problem ~rates ~mu:50.0 ~current () in
    Alcotest.(check bool) "proved" true opt.proven_optimal;
    Alcotest.(check bool)
      (Printf.sprintf "opt <= mpareto (seed %d)" seed)
      true
      (opt.cost <= mp.total_cost +. 1e-9)
  done

let test_mpareto_row0_is_current () =
  let problem, _ = k4_problem ~l:4 ~n:3 ~seed:5 in
  let rates = Flow.base_rates (Problem.flows problem) in
  let rng = Rng.create 2 in
  let current = Placement.random ~rng problem in
  let outcome = Mpareto.migrate problem ~rates ~mu:1e6 ~current () in
  (* Enormous mu: migration can never pay off, so mPareto stays put. *)
  Alcotest.(check bool) "no movement under huge mu" true
    (Placement.equal outcome.migration current);
  check_float "zero migration cost" 0.0 outcome.migration_cost

let test_frontier_rows_interpolate () =
  let problem, _ = k4_problem ~l:4 ~n:3 ~seed:8 in
  let rng = Rng.create 31 in
  let src = Placement.random ~rng problem in
  let dst = Placement.random ~rng problem in
  let paths = Frontier.migration_paths problem ~src ~dst in
  let rows = Frontier.parallel paths in
  Alcotest.(check bool) "row 0 = src" true (rows.(0) = src);
  Alcotest.(check bool) "last row = dst" true
    (rows.(Array.length rows - 1) = dst)

let test_frontier_search_sandwich () =
  for seed = 1 to 4 do
    let problem, _ = k4_problem ~l:6 ~n:4 ~seed in
    let rng = Rng.create (seed * 17) in
    let current = Placement.random ~rng problem in
    let rates = Workload.redraw_rates ~rng (Problem.flows problem) in
    let mu = 200.0 in
    let parallel = Mpareto.migrate problem ~rates ~mu ~current () in
    let full = Frontier_search.migrate problem ~rates ~mu ~current () in
    let opt = Migration_opt.solve problem ~rates ~mu ~current () in
    Alcotest.(check bool) "full frontier set explored" false full.truncated;
    Alcotest.(check bool)
      (Printf.sprintf "full <= parallel (seed %d)" seed)
      true
      (full.total_cost <= parallel.total_cost +. 1e-6);
    Alcotest.(check bool)
      (Printf.sprintf "optimal <= full (seed %d)" seed)
      true
      (opt.cost <= full.total_cost +. 1e-6);
    Placement.validate problem full.migration
  done

let test_frontier_search_truncation () =
  let problem, _ = k4_problem ~l:6 ~n:4 ~seed:9 in
  let rng = Rng.create 41 in
  let current = Placement.random ~rng problem in
  let rates = Workload.redraw_rates ~rng (Problem.flows problem) in
  let out =
    Frontier_search.migrate problem ~rates ~mu:1.0 ~current
      ~max_combinations:1 ()
  in
  (* Even fully truncated, "stay" guards the result. *)
  let stay = Cost.comm_cost problem ~rates current in
  Alcotest.(check bool) "never worse than staying" true
    (out.total_cost <= stay +. 1e-6);
  Alcotest.(check bool) "evaluation count bounded" true
    (out.frontiers_evaluated <= 1)

(* --- cost decomposition ---------------------------------------------- *)

let test_total_cost_decomposition () =
  let problem, _ = k4_problem ~l:5 ~n:3 ~seed:17 in
  let rates = Flow.base_rates (Problem.flows problem) in
  let rng = Rng.create 4 in
  let a = Placement.random ~rng problem in
  let b = Placement.random ~rng problem in
  let mu = 123.0 in
  check_float "C_t = C_b + C_a"
    (Cost.total_cost problem ~rates ~mu ~src:a ~dst:b)
    (Cost.migration_cost problem ~mu ~src:a ~dst:b
    +. Cost.comm_cost problem ~rates b)

let test_attach_consistency () =
  let problem, _ = k4_problem ~l:7 ~n:4 ~seed:23 in
  let rates = Flow.base_rates (Problem.flows problem) in
  let att = Cost.attach problem ~rates in
  let rng = Rng.create 77 in
  for _ = 1 to 10 do
    let p = Placement.random ~rng problem in
    check_float "attach-based C_a = direct C_a"
      (Cost.comm_cost problem ~rates p)
      (Cost.comm_cost_with_attach problem att p)
  done

(* The attachment sums as a switch-outer loop over [Problem.cost] — the
   shape [Cost.attach] had before it read the flat cost rows. Both add
   each switch's flows in flow order, so they must agree bit for bit. *)
let switch_outer_attach problem ~rates =
  let num_nodes = Graph.num_nodes (Problem.graph problem) in
  let a_in = Array.make num_nodes 0.0 and a_out = Array.make num_nodes 0.0 in
  Array.iter
    (fun s ->
      Array.iter
        (fun (f : Flow.t) ->
          let rate = rates.(f.id) in
          a_in.(s) <- a_in.(s) +. (rate *. Problem.cost problem f.src_host s);
          a_out.(s) <- a_out.(s) +. (rate *. Problem.cost problem s f.dst_host))
        (Problem.flows problem))
    (Problem.switches problem);
  (a_in, a_out)

let test_attach_bit_identical () =
  List.iter
    (fun weighted ->
      let rng = Rng.create 31 in
      let ft =
        if weighted then
          let w = Rng.split rng in
          Fat_tree.build ~weight:(fun _ _ -> Rng.uniform w ~lo:0.2 ~hi:2.8) 4
        else Fat_tree.build 4
      in
      let flows = Workload.generate_on_fat_tree ~rng ~l:40 ft in
      let problem =
        Problem.make ~cm:(Cost_matrix.compute ft.graph) ~flows ~n:3 ()
      in
      for _ = 1 to 20 do
        let rates = Workload.redraw_rates ~rng flows in
        let att = Cost.attach problem ~rates in
        let a_in, a_out = switch_outer_attach problem ~rates in
        let bits a = Array.map Int64.bits_of_float a in
        Alcotest.(check (array int64)) "a_in bits" (bits a_in) (bits att.a_in);
        Alcotest.(check (array int64))
          "a_out bits" (bits a_out) (bits att.a_out)
      done)
    [ false; true ]

(* --- flow metrics -------------------------------------------------------- *)

let test_flow_metrics_fig2 () =
  (* Fig. 2's single flow: with the chain on its shortest path region,
     route >= direct always; the known instance gives route 10 for the
     black dashed flow. *)
  let problem, _ = k4_problem ~l:5 ~n:3 ~seed:13 in
  let rates = Flow.base_rates (Problem.flows problem) in
  let p = (Placement_dp.solve problem ~rates ()).placement in
  let m = Flow_metrics.compute problem p in
  Array.iter
    (fun (pf : Flow_metrics.per_flow) ->
      Alcotest.(check bool) "route >= direct" true
        (pf.route_delay >= pf.direct_delay -. 1e-9);
      Alcotest.(check bool) "stretch >= 1 for separated pairs" true
        (pf.direct_delay = 0.0 || pf.stretch >= 1.0 -. 1e-9))
    m.per_flow;
  Alcotest.(check bool) "mean <= p95 <= max" true
    (m.mean_delay <= m.p95_delay +. 1e-9 && m.p95_delay <= m.max_delay +. 1e-9)

let test_flow_metrics_consistency_with_cost () =
  (* Rate-weighted sum of route delays must equal C_a. *)
  let problem, _ = k4_problem ~l:7 ~n:4 ~seed:14 in
  let rates = Flow.base_rates (Problem.flows problem) in
  let rng = Rng.create 15 in
  let p = Placement.random ~rng problem in
  let m = Flow_metrics.compute problem p in
  let weighted =
    Array.fold_left
      (fun acc (pf : Flow_metrics.per_flow) ->
        acc +. (rates.(pf.flow) *. pf.route_delay))
      0.0 m.per_flow
  in
  Alcotest.(check bool) "sum rate*route = C_a" true
    (Float.abs (weighted -. Cost.comm_cost problem ~rates p)
    <= 1e-6 *. Float.max 1.0 weighted)

(* --- link loads -------------------------------------------------------- *)

let test_link_load_equals_eq1 () =
  for seed = 1 to 5 do
    let problem, _ = k4_problem ~l:8 ~n:4 ~seed in
    let rates = Flow.base_rates (Problem.flows problem) in
    let rng = Rng.create (seed * 3) in
    let p = Placement.random ~rng problem in
    let loads = Link_load.compute problem ~rates p in
    Alcotest.(check bool)
      (Printf.sprintf "sum of load*weight = C_a (seed %d)" seed)
      true
      (Float.abs (Link_load.weighted_total loads -. Cost.comm_cost problem ~rates p)
      <= 1e-6 *. Float.max 1.0 (Cost.comm_cost problem ~rates p))
  done

let test_link_load_structure () =
  let problem = fig3 () in
  (* Fig. 3(a): f1@s0, f2@s1, rates <100,1>. Flow 0 (both VMs on h1 at
     s0): h1-s0 carries 100 twice (in and out) = 200; link s0-s1 carries
     100 + ... flow 1 (h2 at s4): h2..s0 legs cross s3-s4 etc. *)
  let loads = Link_load.compute problem ~rates:[| 100.0; 1.0 |] [| 0; 1 |] in
  let h1 = 5 in
  Alcotest.(check (float 1e-9)) "host uplink carries flow 0 twice" 200.0
    (Link_load.load loads h1 0);
  Alcotest.(check bool) "hottest list is sorted" true
    (match Link_load.hottest loads 3 with
    | (_, _, a) :: (_, _, b) :: _ -> a >= b
    | _ -> false);
  Alcotest.(check bool) "max >= mean" true
    (Link_load.max_load loads >= Link_load.mean_load loads)

let test_link_load_nan_rate_rejected () =
  (* Regression for the poly-compare hazard (ppdc-lint R1): a NaN rate
     used to flow into the load table and let [hottest]'s old
     polymorphic sort rank the poisoned edge arbitrarily. *)
  let problem = fig3 () in
  Alcotest.check_raises "NaN rate rejected"
    (Invalid_argument "Link_load.compute: NaN rate for flow 1") (fun () ->
      ignore (Link_load.compute problem ~rates:[| 100.0; Float.nan |] [| 0; 1 |]))

let test_link_load_edgeless_mean_is_zero () =
  (* Regression: 0 total / 0 edges used to evaluate to NaN. *)
  let g = Ppdc_topology.Graph.make ~kinds:[| Ppdc_topology.Graph.Switch |] ~edges:[] in
  let idle = Link_load.of_graph g in
  Alcotest.(check (float 0.0)) "edgeless mean is zero" 0.0
    (Link_load.mean_load idle);
  Alcotest.(check bool) "finite, not NaN" false
    (Float.is_nan (Link_load.mean_load idle));
  (* And an idle table over a real graph reports zero everywhere. *)
  let problem = fig3 () in
  let idle = Link_load.of_graph (Problem.graph problem) in
  Alcotest.(check (float 0.0)) "idle mean" 0.0 (Link_load.mean_load idle);
  Alcotest.(check (float 0.0)) "idle max" 0.0 (Link_load.max_load idle)

let () =
  Alcotest.run "ppdc_core"
    [
      ( "fig3-anchor",
        [
          Alcotest.test_case "initial optimal placement costs 410" `Quick
            test_fig3_initial_placement;
          Alcotest.test_case "rate swap raises C_a to 1004" `Quick
            test_fig3_rate_swap_cost;
          Alcotest.test_case "mPareto migrates for 6 and lands at 410" `Quick
            test_fig3_mpareto_migration;
          Alcotest.test_case "58.6% total-cost reduction" `Quick
            test_fig3_migration_is_paper_example;
          Alcotest.test_case "primal-dual places n = 1 and n = 2" `Quick
            test_fig3_primal_dual_short_chains;
        ] );
      ( "fig4-stroll",
        [
          Alcotest.test_case "DP stroll finds the cost-6 walk" `Quick
            test_fig4_dp_stroll_finds_walk;
          Alcotest.test_case "exact stroll agrees" `Quick test_fig4_exact_matches;
          Alcotest.test_case "primal-dual within its guarantee" `Quick
            test_fig4_primal_dual_within_guarantee;
        ] );
      ( "stroll",
        [
          Alcotest.test_case "7-stroll on k=4 fat-tree (Example 3)" `Quick
            test_seven_stroll_on_fat_tree;
          Alcotest.test_case "DP bounded by exact and 2x exact" `Quick
            test_dp_stroll_never_beats_exact;
          Alcotest.test_case "closed stroll (src = dst) is out-and-back"
            `Quick test_closed_stroll_src_eq_dst;
          Alcotest.test_case "stroll switches are distinct" `Quick
            test_stroll_switches_distinct;
        ] );
      ( "placement",
        [
          Alcotest.test_case "DP close to optimal" `Quick
            test_dp_placement_close_to_optimal;
          Alcotest.test_case "reported cost equals Eq. 1" `Quick
            test_placement_cost_equals_eq1;
          Alcotest.test_case "rescoring never hurts" `Quick
            test_rescore_never_worse;
        ] );
      ( "migration",
        [
          Alcotest.test_case "Theorem 4: TOM(mu=0) = TOP" `Quick
            test_theorem4_mu_zero_degenerates_to_top;
          Alcotest.test_case "mPareto never worse than staying" `Quick
            test_mpareto_never_worse_than_staying;
          Alcotest.test_case "mPareto never beats exhaustive TOM" `Quick
            test_mpareto_not_better_than_exhaustive;
          Alcotest.test_case "huge mu freezes the placement" `Quick
            test_mpareto_row0_is_current;
          Alcotest.test_case "parallel frontiers interpolate p to p'" `Quick
            test_frontier_rows_interpolate;
          Alcotest.test_case "Definition-1 search sandwiched by Algo 5/6"
            `Quick test_frontier_search_sandwich;
          Alcotest.test_case "Definition-1 search truncation" `Quick
            test_frontier_search_truncation;
        ] );
      ( "flow-metrics",
        [
          Alcotest.test_case "route/stretch invariants" `Quick
            test_flow_metrics_fig2;
          Alcotest.test_case "rate-weighted delays reproduce C_a" `Quick
            test_flow_metrics_consistency_with_cost;
        ] );
      ( "link-load",
        [
          Alcotest.test_case "weighted loads reproduce Eq. 1" `Quick
            test_link_load_equals_eq1;
          Alcotest.test_case "per-link accounting on Fig. 3" `Quick
            test_link_load_structure;
          Alcotest.test_case "edgeless mean load is zero" `Quick
            test_link_load_edgeless_mean_is_zero;
          Alcotest.test_case "NaN rate rejected (poly-compare regression)"
            `Quick test_link_load_nan_rate_rejected;
        ] );
      ( "cost-model",
        [
          Alcotest.test_case "C_t decomposes into C_b + C_a" `Quick
            test_total_cost_decomposition;
          Alcotest.test_case "attach sums match direct evaluation" `Quick
            test_attach_consistency;
          Alcotest.test_case "attach bit-identical to switch-outer sums"
            `Quick test_attach_bit_identical;
        ] );
    ]
