(* API-contract tests: the reusable-table stroll interface, printers, and
   the solver pipeline on a leaf-spine fabric (no fat-tree assumptions
   anywhere in the core). *)

module Graph = Ppdc_topology.Graph
module Fat_tree = Ppdc_topology.Fat_tree
module Leaf_spine = Ppdc_topology.Leaf_spine
module Cost_matrix = Ppdc_topology.Cost_matrix
module Workload = Ppdc_traffic.Workload
module Flow = Ppdc_traffic.Flow
module Rng = Ppdc_prelude.Rng
open Ppdc_core

(* --- Stroll_dp table reuse ----------------------------------------------- *)

let test_stroll_table_reuse () =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let switches = Graph.switches ft.graph in
  let dst = ft.hosts.(15) in
  let table =
    Stroll_dp.prepare ~cm ~dst ~candidates:switches ~extras:(Array.copy ft.hosts)
  in
  (* Queries from several sources against one table must agree with
     fresh one-shot solves. *)
  Array.iter
    (fun src ->
      if src <> dst then begin
        for n = 1 to 4 do
          let via_table = Stroll_dp.query table ~src ~n () in
          let one_shot = Stroll_dp.solve ~cm ~src ~dst ~n () in
          match via_table with
          | Some r ->
              Alcotest.(check (float 1e-9))
                (Printf.sprintf "table = solve (src %d, n %d)" src n)
                one_shot.cost r.cost
          | None -> Alcotest.fail "query unexpectedly failed"
        done
      end)
    (Array.sub ft.hosts 0 4)

(* --- printers -------------------------------------------------------------- *)

let test_printers () =
  let p = [| 3; 7; 1 |] in
  Alcotest.(check string) "placement pp" "[f1@s3 f2@s7 f3@s1]"
    (Format.asprintf "%a" Placement.pp p);
  let chain = Chain.make [| "fw"; "cache" |] in
  Alcotest.(check string) "chain pp" "fw -> cache"
    (Format.asprintf "%a" Chain.pp chain);
  let flow =
    Flow.make ~id:2 ~src_host:9 ~dst_host:4 ~base_rate:12.5 ~coast:West
  in
  Alcotest.(check string) "flow pp" "flow2(9->4, λ=12.5, west)"
    (Format.asprintf "%a" Flow.pp flow);
  let ft = Fat_tree.build 2 in
  Alcotest.(check string) "graph pp" "graph{hosts=2 switches=5 edges=6}"
    (Format.asprintf "%a" Graph.pp ft.graph)

(* --- leaf-spine pipeline ----------------------------------------------------- *)

let test_full_pipeline_on_leaf_spine () =
  let ls = Leaf_spine.build ~spines:4 ~leaves:8 ~hosts_per_leaf:4 () in
  let cm = Cost_matrix.compute ls.graph in
  let rng = Rng.create 6 in
  let flows = Workload.generate_on_hosts ~rng ~l:20 ~hosts:ls.hosts () in
  let problem = Problem.make ~cm ~flows ~n:5 () in
  let rates = Flow.base_rates flows in
  let dp = Placement_dp.solve problem ~rates () in
  Placement.validate problem dp.placement;
  let opt = Placement_opt.solve problem ~rates () in
  Alcotest.(check bool) "proved" true opt.proven_optimal;
  Alcotest.(check bool) "dp within 1.5x optimal" true
    (dp.cost <= 1.5 *. opt.cost);
  (* On a leaf-spine, the optimal chain for spread traffic alternates
     between the spine layer (2 hops to everyone) and leaves. Migrate
     after a redraw and make sure the machinery holds. *)
  let rates' = Workload.redraw_rates ~rng flows in
  let mp = Mpareto.migrate problem ~rates:rates' ~mu:50.0 ~current:dp.placement () in
  Alcotest.(check bool) "migration never hurts" true
    (mp.total_cost <= Cost.comm_cost problem ~rates:rates' dp.placement +. 1e-6);
  (* Link loads + flow metrics work off-fat-tree too. *)
  let loads = Link_load.compute problem ~rates:rates' mp.migration in
  Alcotest.(check bool) "loads consistent with Eq. 1" true
    (Float.abs (Link_load.weighted_total loads -. mp.comm_cost)
    <= 1e-6 *. Float.max 1.0 mp.comm_cost);
  let metrics = Flow_metrics.compute problem mp.migration in
  Alcotest.(check bool) "metrics sane" true
    (metrics.mean_delay > 0.0 && metrics.max_delay >= metrics.p95_delay)

(* --- problem derivation -------------------------------------------------------- *)

let test_problem_derivation () =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let rng = Rng.create 3 in
  let flows = Workload.generate_on_fat_tree ~rng ~l:6 ft in
  let problem = Problem.make ~cm ~flows ~n:3 () in
  let widened = Problem.with_n problem 5 in
  Alcotest.(check int) "with_n changes n" 5 (Problem.n widened);
  Alcotest.(check int) "with_n keeps flows" 6 (Problem.num_flows widened);
  let rehomed =
    Problem.with_flows problem
      (Array.map
         (fun (f : Flow.t) -> { f with Flow.src_host = ft.hosts.(0) })
         flows)
  in
  Array.iter
    (fun (f : Flow.t) ->
      Alcotest.(check int) "with_flows rehomes sources" ft.hosts.(0) f.src_host)
    (Problem.flows rehomed);
  let restricted = Problem.with_switches problem [| 0; 1; 2; 3 |] in
  Alcotest.(check int) "with_switches restricts" 4
    (Array.length (Problem.switches restricted));
  Alcotest.(check bool) "candidate membership" true
    (Problem.is_candidate restricted 2 && not (Problem.is_candidate restricted 9))

let () =
  Alcotest.run "ppdc_api"
    [
      ( "stroll-table",
        [
          Alcotest.test_case "reuse equals one-shot" `Quick
            test_stroll_table_reuse;
        ] );
      ("printers", [ Alcotest.test_case "pp output" `Quick test_printers ]);
      ( "leaf-spine-pipeline",
        [
          Alcotest.test_case "end-to-end on a 2-tier Clos" `Quick
            test_full_pipeline_on_leaf_spine;
        ] );
      ( "problem-derivation",
        [
          Alcotest.test_case "with_n / with_flows / with_switches" `Quick
            test_problem_derivation;
        ] );
    ]
