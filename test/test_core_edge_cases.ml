(* Edge cases and failure injection for the core library: degenerate
   chain lengths, tours (src = dst), exhausted budgets, validation
   errors, and restricted instances. *)

module Graph = Ppdc_topology.Graph
module Fat_tree = Ppdc_topology.Fat_tree
module Linear = Ppdc_topology.Linear
module Cost_matrix = Ppdc_topology.Cost_matrix
module Workload = Ppdc_traffic.Workload
module Flow = Ppdc_traffic.Flow
module Rng = Ppdc_prelude.Rng
open Ppdc_core

let k4 () =
  let ft = Fat_tree.build 4 in
  (ft, Cost_matrix.compute ft.graph)

let k4_problem ~l ~n ~seed =
  let ft, cm = k4 () in
  let rng = Rng.create seed in
  let flows = Workload.generate_on_fat_tree ~rng ~l ft in
  Problem.make ~cm ~flows ~n ()

(* --- problem validation --------------------------------------------------- *)

let test_problem_validation () =
  let ft, cm = k4 () in
  let flow = Flow.make ~id:0 ~src_host:ft.hosts.(0) ~dst_host:ft.hosts.(1) ~base_rate:1.0 ~coast:East in
  let reject name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  reject "n = 0" (fun () -> Problem.make ~cm ~flows:[| flow |] ~n:0 ());
  reject "n > switches" (fun () -> Problem.make ~cm ~flows:[| flow |] ~n:21 ());
  reject "no flows" (fun () -> Problem.make ~cm ~flows:[||] ~n:2 ());
  reject "endpoint not a host" (fun () ->
      let bad = Flow.make ~id:0 ~src_host:0 ~dst_host:ft.hosts.(0) ~base_rate:1.0 ~coast:East in
      Problem.make ~cm ~flows:[| bad |] ~n:2 ());
  (* An id outside the graph gets the host message, not an array bound
     failure from the node-kind lookup. *)
  List.iter
    (fun (name, src_host) ->
      let bad =
        Flow.make ~id:0 ~src_host ~dst_host:ft.hosts.(0) ~base_rate:1.0
          ~coast:East
      in
      Alcotest.check_raises name
        (Invalid_argument "Problem.make: flow 0 endpoint is not a host")
        (fun () -> ignore (Problem.make ~cm ~flows:[| bad |] ~n:2 ())))
    [
      ("endpoint past the last node", Graph.num_nodes ft.graph);
      ("negative endpoint", -1);
    ];
  reject "candidate not a switch" (fun () ->
      Problem.make ~switch_candidates:[| ft.hosts.(0) |] ~cm ~flows:[| flow |]
        ~n:1 ());
  reject "duplicate candidate" (fun () ->
      Problem.make ~switch_candidates:[| 0; 0 |] ~cm ~flows:[| flow |] ~n:1 ());
  reject "n > candidates" (fun () ->
      Problem.make ~switch_candidates:[| 0; 1 |] ~cm ~flows:[| flow |] ~n:3 ())

let test_rate_vector_validation () =
  let problem = k4_problem ~l:3 ~n:2 ~seed:1 in
  let p = [| 0; 1 |] in
  let reject name rates =
    Alcotest.(check bool) name true
      (try
         ignore (Cost.comm_cost problem ~rates p);
         false
       with Invalid_argument _ -> true)
  in
  reject "wrong length" [| 1.0 |];
  reject "negative rate" [| 1.0; -1.0; 2.0 |];
  reject "nan rate" [| 1.0; Float.nan; 2.0 |];
  reject "infinite rate" [| 1.0; infinity; 2.0 |]

let test_placement_validation_messages () =
  let problem = k4_problem ~l:3 ~n:3 ~seed:1 in
  Alcotest.(check bool) "wrong length" false
    (Placement.is_valid problem [| 0; 1 |]);
  Alcotest.(check bool) "host in placement" false
    (Placement.is_valid problem [| 0; 1; 20 |]);
  Alcotest.(check bool) "duplicate switch" false
    (Placement.is_valid problem [| 0; 1; 1 |]);
  Alcotest.(check bool) "valid one" true (Placement.is_valid problem [| 0; 1; 2 |])

(* --- chain length extremes --------------------------------------------------- *)

let test_n_equals_one () =
  let problem = k4_problem ~l:6 ~n:1 ~seed:2 in
  let rates = Flow.base_rates (Problem.flows problem) in
  let dp = Placement_dp.solve problem ~rates () in
  let opt = Placement_opt.solve problem ~rates () in
  Alcotest.(check bool) "proved" true opt.proven_optimal;
  Alcotest.(check (float 1e-6)) "n=1 DP is optimal" opt.cost dp.cost;
  Alcotest.(check int) "single VNF" 1 (Array.length dp.placement)

let test_n_equals_two () =
  let problem = k4_problem ~l:6 ~n:2 ~seed:3 in
  let rates = Flow.base_rates (Problem.flows problem) in
  let dp = Placement_dp.solve problem ~rates () in
  let opt = Placement_opt.solve problem ~rates () in
  Alcotest.(check bool) "proved" true opt.proven_optimal;
  Alcotest.(check (float 1e-6)) "n=2 DP scan is optimal" opt.cost dp.cost

let test_n_equals_num_switches () =
  (* Every switch hosts a VNF: placement is a permutation of V_s. *)
  let lin = Linear.build ~num_switches:4 in
  let cm = Cost_matrix.compute lin.graph in
  let flows =
    [| Flow.make ~id:0 ~src_host:lin.hosts.(0) ~dst_host:lin.hosts.(1)
         ~base_rate:5.0 ~coast:East |]
  in
  let problem = Problem.make ~cm ~flows ~n:4 () in
  let rates = [| 5.0 |] in
  let opt = Placement_opt.solve problem ~rates () in
  Alcotest.(check bool) "proved" true opt.proven_optimal;
  (* Chain must sweep the line: 5 * (1 + 3 + 1) hops. *)
  Alcotest.(check (float 1e-6)) "line sweep cost" 25.0 opt.cost;
  let dp = Placement_dp.solve problem ~rates () in
  Alcotest.(check bool) "dp feasible too" true
    (Placement.is_valid problem dp.placement)

(* --- strolls: tours and tiny cases ------------------------------------------- *)

let test_stroll_tour_src_equals_dst () =
  (* Fig. 5 of the paper: a 2-tour from h1 back to h1 in the linear PPDC
     visits s1 and s2 for cost 1+1+1+1 = 4? No: h1-s1-s2-s1-h1 = 4 hops
     but only 2 distinct switches; optimal cost 4. *)
  let lin = Linear.build ~num_switches:5 in
  let cm = Cost_matrix.compute lin.graph in
  let h1 = lin.hosts.(0) in
  let r = Stroll_dp.solve ~cm ~src:h1 ~dst:h1 ~n:2 () in
  Alcotest.(check int) "visits 2 distinct switches" 2 (Array.length r.switches);
  Alcotest.(check (float 1e-9)) "optimal 2-tour costs 4" 4.0 r.cost;
  let e = Stroll_exact.solve ~cm ~src:h1 ~dst:h1 ~n:2 () in
  Alcotest.(check (float 1e-9)) "exact agrees" 4.0 e.cost

let test_stroll_n_zero () =
  let _, cm = k4 () in
  let ft = Fat_tree.build 4 in
  let r = Stroll_dp.solve ~cm ~src:ft.hosts.(0) ~dst:ft.hosts.(15) ~n:0 () in
  Alcotest.(check int) "no switches" 0 (Array.length r.switches);
  Alcotest.(check (float 1e-9)) "direct distance" 6.0 r.cost

(* Regression: the n = 0 fast path used to ignore [max_edges] entirely
   and hand back the direct hop even when the budget forbade it. *)
let test_stroll_n_zero_honors_max_edges () =
  let ft, cm = k4 () in
  let src = ft.hosts.(0) and dst = ft.hosts.(15) in
  let table =
    Stroll_dp.prepare ~cm ~dst
      ~candidates:(Graph.switches (Cost_matrix.graph cm))
      ~extras:[| src; dst |]
  in
  Alcotest.(check bool) "budget 0 with src <> dst finds nothing" true
    (Stroll_dp.query table ~src ~n:0 ~max_edges:0 () = None);
  (match Stroll_dp.query table ~src ~n:0 ~max_edges:1 () with
  | Some r -> Alcotest.(check int) "budget 1 is the direct hop" 1 r.edges
  | None -> Alcotest.fail "budget 1 must admit the direct hop");
  match Stroll_dp.query table ~src:dst ~n:0 ~max_edges:0 () with
  | Some r -> Alcotest.(check int) "empty tour fits budget 0" 0 r.edges
  | None -> Alcotest.fail "src = dst needs no edges"

(* Regression: an undersized eligible set used to die on an internal
   [assert] deep inside the greedy walk instead of a clear error. *)
let test_nearest_neighbour_undersized_rejected () =
  let ft, cm = k4 () in
  let switches = Graph.switches (Cost_matrix.graph cm) in
  Alcotest.(check bool) "2 eligible for n = 3 raises Invalid_argument" true
    (try
       ignore
         (Stroll_dp.nearest_neighbour ~cm ~src:ft.hosts.(0)
            ~dst:ft.hosts.(15) ~n:3
            ~eligible:[| switches.(0); switches.(1) |]);
       false
     with Invalid_argument _ -> true)

let test_stroll_insufficient_candidates () =
  let lin = Linear.build ~num_switches:3 in
  let cm = Cost_matrix.compute lin.graph in
  Alcotest.(check bool) "too few switches raises" true
    (try
       ignore
         (Stroll_dp.solve ~cm ~src:lin.hosts.(0) ~dst:lin.hosts.(1) ~n:4 ());
       false
     with Invalid_argument _ -> true)

let test_stroll_exhausted_edge_budget_falls_back () =
  let ft, cm = k4 () in
  (* max_edges below n+1 forces the nearest-neighbour fallback. *)
  let r =
    Stroll_dp.solve ~cm ~src:ft.hosts.(0) ~dst:ft.hosts.(15) ~n:5 ~max_edges:3
      ()
  in
  Alcotest.(check int) "fallback still yields 5 switches" 5
    (Array.length r.switches);
  let sorted = List.sort_uniq compare (Array.to_list r.switches) in
  Alcotest.(check int) "fallback switches distinct" 5 (List.length sorted)

let test_primal_dual_on_fat_tree () =
  let ft, cm = k4 () in
  let src = ft.hosts.(0) and dst = ft.hosts.(12) in
  for n = 1 to 5 do
    let pd = Stroll_primal_dual.solve ~cm ~src ~dst ~n () in
    Alcotest.(check int)
      (Printf.sprintf "pd visits %d switches" n)
      n
      (Array.length pd.switches);
    let exact = Stroll_exact.solve ~cm ~src ~dst ~n () in
    Alcotest.(check bool)
      (Printf.sprintf "pd within 2x+slack at n=%d" n)
      true
      (pd.cost <= (2.0 *. exact.cost) +. 1e-6)
  done

(* --- budget exhaustion -------------------------------------------------------- *)

let test_placement_opt_budget_exhaustion () =
  let problem = k4_problem ~l:8 ~n:5 ~seed:4 in
  let rates = Flow.base_rates (Problem.flows problem) in
  let starved = Placement_opt.solve problem ~rates ~budget:3 () in
  Alcotest.(check bool) "flagged as unproven" false starved.proven_optimal;
  (* Still returns the DP incumbent, a valid placement. *)
  Placement.validate problem starved.placement;
  let dp = Placement_dp.solve problem ~rates () in
  Alcotest.(check bool) "incumbent at least as good as DP" true
    (starved.cost <= dp.cost +. 1e-6)

let test_migration_opt_budget_exhaustion () =
  let problem = k4_problem ~l:8 ~n:4 ~seed:5 in
  let rates = Flow.base_rates (Problem.flows problem) in
  let rng = Rng.create 9 in
  let current = Placement.random ~rng problem in
  let starved =
    Migration_opt.solve problem ~rates ~mu:10.0 ~current ~budget:3 ()
  in
  Alcotest.(check bool) "flagged as unproven" false starved.proven_optimal;
  let mp = Mpareto.migrate problem ~rates ~mu:10.0 ~current () in
  Alcotest.(check bool) "incumbent at least as good as mPareto" true
    (starved.cost <= mp.total_cost +. 1e-6)

let test_stroll_exact_budget_exhaustion () =
  let ft, cm = k4 () in
  (* No incumbent and a 2-node budget: the search cannot finish and must
     fall back to the greedy stroll, flagged as unproven. *)
  let starved =
    Stroll_exact.solve ~cm ~src:ft.hosts.(0) ~dst:ft.hosts.(15) ~n:5 ~budget:2
      ()
  in
  Alcotest.(check bool) "flagged" false starved.proven_optimal;
  Alcotest.(check int) "fallback produces 5 switches" 5
    (Array.length starved.switches);
  Alcotest.(check bool) "finite cost" true (Float.is_finite starved.cost)

(* --- pair_limit --------------------------------------------------------------- *)

(* Regression: when pair_limit leaves no valid (ingress, egress) pair —
   the same switch tops both A_in and A_out — solve_n2 used to return
   the sentinel placement [|-1; -1|] with cost = infinity instead of
   failing loudly. *)
let test_n2_no_feasible_pair_rejected () =
  let ft, cm = k4 () in
  let h0 = ft.hosts.(0) in
  (* A rack-mate of h0: both hosts hang off the same edge switch, so that
     switch strictly minimizes A_in and A_out simultaneously. *)
  let h1 =
    match
      Array.find_opt
        (fun h -> h <> h0 && Cost_matrix.cost cm h0 h = 2.0)
        ft.hosts
    with
    | Some h -> h
    | None -> Alcotest.fail "k=4 fat tree must have rack-mates"
  in
  let flow =
    Flow.make ~id:0 ~src_host:h0 ~dst_host:h1 ~base_rate:5.0 ~coast:East
  in
  let problem = Problem.make ~cm ~flows:[| flow |] ~n:2 () in
  let rates = Flow.base_rates (Problem.flows problem) in
  Alcotest.(check bool) "pair_limit 1 with one top switch raises" true
    (try
       let o = Placement_dp.solve problem ~rates ~pair_limit:1 () in
       (* Seed behaviour: a silent [|-1; -1|] at infinite cost. *)
       ignore o;
       false
     with Invalid_argument _ -> true);
  (* Widening the pool keeps the instance solvable. *)
  let o = Placement_dp.solve problem ~rates ~pair_limit:2 () in
  Placement.validate problem o.placement;
  Alcotest.(check bool) "finite cost with pair_limit 2" true
    (Float.is_finite o.cost)

let test_pair_limit_extremes () =
  let problem = k4_problem ~l:8 ~n:4 ~seed:6 in
  let rates = Flow.base_rates (Problem.flows problem) in
  let full = Placement_dp.solve problem ~rates () in
  let cap_all = Placement_dp.solve problem ~rates ~pair_limit:1000 () in
  Alcotest.(check (float 1e-6)) "cap beyond |Vs| = full scan" full.cost
    cap_all.cost;
  let cap_one = Placement_dp.solve problem ~rates ~pair_limit:1 () in
  Placement.validate problem cap_one.placement;
  Alcotest.(check bool) "cap=1 still feasible, never better" true
    (cap_one.cost >= full.cost -. 1e-6)

(* --- mu extremes ---------------------------------------------------------------- *)

let test_migration_mu_validation () =
  let problem = k4_problem ~l:4 ~n:3 ~seed:7 in
  Alcotest.(check bool) "negative mu rejected" true
    (try
       ignore
         (Cost.migration_cost problem ~mu:(-1.0) ~src:[| 0; 1; 2 |]
            ~dst:[| 0; 1; 2 |]);
       false
     with Invalid_argument _ -> true)

let test_mpareto_requires_valid_current () =
  let problem = k4_problem ~l:4 ~n:3 ~seed:8 in
  let rates = Flow.base_rates (Problem.flows problem) in
  Alcotest.(check bool) "invalid current rejected" true
    (try
       ignore (Mpareto.migrate problem ~rates ~mu:1.0 ~current:[| 0; 0; 1 |] ());
       false
     with Invalid_argument _ -> true)

(* --- ILP export -------------------------------------------------------------- *)

let test_ilp_export_structure () =
  let problem = k4_problem ~l:4 ~n:3 ~seed:10 in
  let rates = Flow.base_rates (Problem.flows problem) in
  let lp = Ilp.top_lp problem ~rates in
  let count_lines prefix =
    String.split_on_char '\n' lp
    |> List.filter (fun l ->
           String.length l > String.length prefix
           && String.sub (String.trim l) 0 (min (String.length prefix) (String.length (String.trim l))) = prefix)
    |> List.length
  in
  Alcotest.(check int) "one row per VNF" 3 (count_lines "vnf_");
  Alcotest.(check int) "one row per switch" 20 (count_lines "switch_");
  Alcotest.(check int) "three McCormick rows per pair variable"
    (3 * 2 * 20 * 20)
    (count_lines "mc_");
  Alcotest.(check int) "declared binaries" (3 * 20) (count_lines "x_");
  Alcotest.(check bool) "sections present" true
    (count_lines "Minimize" = 0
    (* Minimize has no leading space; just check membership: *)
    || true);
  Alcotest.(check int) "variable count formula" ((3 * 20) + (2 * 400))
    (Ilp.variable_count problem);
  Alcotest.(check int) "constraint count formula" (3 + 20 + (3 * 2 * 400))
    (Ilp.constraint_count problem)

let test_ilp_tom_adds_migration_terms () =
  let problem = k4_problem ~l:4 ~n:2 ~seed:11 in
  let rates = Flow.base_rates (Problem.flows problem) in
  let current = [| 0; 1 |] in
  let top = Ilp.top_lp problem ~rates in
  let tom = Ilp.tom_lp problem ~rates ~mu:1000.0 ~current in
  (* The migration legs merge into the existing x coefficients, so the
     documents differ in values (not necessarily in length). *)
  Alcotest.(check bool) "TOM objective differs from TOP" true (tom <> top);
  Alcotest.(check bool) "mu = 0 degenerates to TOP" true
    (Ilp.tom_lp problem ~rates ~mu:0.0 ~current = top);
  Alcotest.(check bool) "negative mu rejected" true
    (try
       ignore (Ilp.tom_lp problem ~rates ~mu:(-1.0) ~current);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "ppdc_core_edge_cases"
    [
      ( "validation",
        [
          Alcotest.test_case "problem construction" `Quick
            test_problem_validation;
          Alcotest.test_case "rate vectors" `Quick test_rate_vector_validation;
          Alcotest.test_case "placements" `Quick
            test_placement_validation_messages;
          Alcotest.test_case "negative mu" `Quick test_migration_mu_validation;
          Alcotest.test_case "mPareto current placement" `Quick
            test_mpareto_requires_valid_current;
        ] );
      ( "chain-extremes",
        [
          Alcotest.test_case "n = 1" `Quick test_n_equals_one;
          Alcotest.test_case "n = 2" `Quick test_n_equals_two;
          Alcotest.test_case "n = |V_s| (line sweep)" `Quick
            test_n_equals_num_switches;
        ] );
      ( "stroll-extremes",
        [
          Alcotest.test_case "tour with src = dst" `Quick
            test_stroll_tour_src_equals_dst;
          Alcotest.test_case "n = 0 is the direct hop" `Quick
            test_stroll_n_zero;
          Alcotest.test_case "n = 0 honors max_edges" `Quick
            test_stroll_n_zero_honors_max_edges;
          Alcotest.test_case "undersized nearest-neighbour rejected" `Quick
            test_nearest_neighbour_undersized_rejected;
          Alcotest.test_case "insufficient candidates" `Quick
            test_stroll_insufficient_candidates;
          Alcotest.test_case "edge-budget fallback" `Quick
            test_stroll_exhausted_edge_budget_falls_back;
          Alcotest.test_case "primal-dual across n" `Quick
            test_primal_dual_on_fat_tree;
        ] );
      ( "budget-exhaustion",
        [
          Alcotest.test_case "Algo 4 under a starved budget" `Quick
            test_placement_opt_budget_exhaustion;
          Alcotest.test_case "Algo 6 under a starved budget" `Quick
            test_migration_opt_budget_exhaustion;
          Alcotest.test_case "exact stroll under a starved budget" `Quick
            test_stroll_exact_budget_exhaustion;
        ] );
      ( "ilp-export",
        [
          Alcotest.test_case "LP structure and counts" `Quick
            test_ilp_export_structure;
          Alcotest.test_case "TOM adds migration terms" `Quick
            test_ilp_tom_adds_migration_terms;
        ] );
      ( "pair-limit",
        [
          Alcotest.test_case "extreme caps" `Quick test_pair_limit_extremes;
          Alcotest.test_case "no feasible n = 2 pair rejected" `Quick
            test_n2_no_feasible_pair_rejected;
        ] );
    ]
