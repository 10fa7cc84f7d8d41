(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (Section VI) as plain-text tables — one Registry entry per artifact.
   Part 2 runs Bechamel wall-clock micro-benchmarks of the core
   algorithms.

   PPDC_BENCH_MODE=full selects paper-scale parameters (k=8/k=16,
   l up to 1000, 20 trials); the default quick mode shrinks sizes so the
   whole suite finishes in a couple of minutes. *)

module Mode = Ppdc_experiments.Mode
module Registry = Ppdc_experiments.Registry
module Runner = Ppdc_experiments.Runner
module Obs = Ppdc_prelude.Obs
module Table = Ppdc_prelude.Table
module Rng = Ppdc_prelude.Rng
module Flow = Ppdc_traffic.Flow
module Workload = Ppdc_traffic.Workload
module Scenario = Ppdc_sim.Scenario
module Engine = Ppdc_sim.Engine
module Event_engine = Ppdc_sim.Event_engine
open Ppdc_core

let run_experiments mode =
  Printf.printf
    "=== PPDC paper-reproduction harness (mode: %s; domains: %d; set \
     PPDC_BENCH_MODE=full for paper-scale parameters, PPDC_DOMAINS=1 for \
     the sequential path) ===\n\n"
    (Mode.name mode)
    (Ppdc_prelude.Parallel.domain_count ());
  List.iter
    (fun (e : Registry.entry) ->
      Printf.printf "--- %s: %s ---\n" e.id e.summary;
      let t0 = Unix.gettimeofday () in
      let tables = Obs.time ("experiment." ^ e.id) (fun () -> e.run mode) in
      let dt = Unix.gettimeofday () -. t0 in
      List.iter Table.print tables;
      Printf.printf "(%s completed in %.1fs)\n\n%!" e.id dt)
    Registry.all

(* --- Bechamel micro-benchmarks ---------------------------------------- *)

open Bechamel
open Toolkit

let micro_tests mode =
  let k = Mode.k_placement mode in
  let problem = Runner.fat_tree_problem ~k ~l:20 ~n:5 ~seed:1 () in
  let rates = Flow.base_rates (Problem.flows problem) in
  let ft, cm = Runner.unweighted_fat_tree k in
  let src = ft.Ppdc_topology.Fat_tree.hosts.(0) in
  let dst = ft.Ppdc_topology.Fat_tree.hosts.(Array.length ft.hosts - 1) in
  let current = (Placement_dp.solve problem ~rates ()).placement in
  let rng = Rng.create 2 in
  let rates' = Workload.redraw_rates ~rng (Problem.flows problem) in
  [
    Test.make ~name:"all-pairs-dijkstra"
      (Staged.stage (fun () ->
           ignore
             (Ppdc_topology.Cost_matrix.compute
                (Ppdc_topology.Fat_tree.build 4).graph)));
    Test.make ~name:"dp-stroll-n5"
      (Staged.stage (fun () ->
           ignore (Stroll_dp.solve ~cm ~src ~dst ~n:5 ())));
    Test.make ~name:"primal-dual-stroll-n5"
      (Staged.stage (fun () ->
           ignore (Stroll_primal_dual.solve ~cm ~src ~dst ~n:5 ())));
    (* Warm: the [current] solve above built the matrix's stroll table,
       so this and mpareto-migrate time the per-rate-vector work. The
       cold solve is BENCH_flatgraph's placement_dp_k8_n4. *)
    Test.make ~name:"dp-placement-n5"
      (Staged.stage (fun () -> ignore (Placement_dp.solve problem ~rates ())));
    Test.make ~name:"steering-n5"
      (Staged.stage (fun () ->
           ignore (Ppdc_baselines.Steering.place problem ~rates)));
    Test.make ~name:"mpareto-migrate"
      (Staged.stage (fun () ->
           ignore (Mpareto.migrate problem ~rates:rates' ~mu:1e4 ~current ())));
    Test.make ~name:"plan-migrate"
      (Staged.stage (fun () ->
           ignore
             (Ppdc_baselines.Plan.migrate problem ~rates:rates' ~mu_vm:1e4
                ~placement:current)));
    Test.make ~name:"mcf-migrate"
      (Staged.stage (fun () ->
           ignore
             (Ppdc_baselines.Mcf_migration.migrate problem ~rates:rates'
                ~mu_vm:1e4 ~placement:current ())));
    Test.make ~name:"simulated-day-mpareto"
      (Staged.stage (fun () ->
           ignore
             (Event_engine.run_day (Scenario.make ~mu:1e4 problem)
                ~policy:Engine.Mpareto)));
    Test.make ~name:"frontier-search-full"
      (Staged.stage (fun () ->
           ignore
             (Frontier_search.migrate problem ~rates:rates' ~mu:1e4 ~current ())));
    Test.make ~name:"capacity-placement-c2"
      (Staged.stage (fun () ->
           ignore
             (Ppdc_extensions.Capacity.solve problem ~rates ~capacity:2)));
    Test.make ~name:"replication-place-b4"
      (Staged.stage (fun () ->
           ignore (Ppdc_extensions.Replication.place problem ~rates ~budget:4)));
    Test.make ~name:"anneal-20k-proposals"
      (Staged.stage (fun () ->
           ignore
             (Ppdc_extensions.Placement_anneal.solve ~rng:(Rng.create 7)
                problem ~rates)));
    Test.make ~name:"link-load-analysis"
      (Staged.stage (fun () ->
           ignore (Link_load.compute problem ~rates current)));
    Test.make ~name:"leaf-spine-build-16x32"
      (Staged.stage (fun () ->
           ignore
             (Ppdc_topology.Leaf_spine.build ~spines:16 ~leaves:32
                ~hosts_per_leaf:16 ())));
  ]

let run_micro_benchmarks mode =
  Printf.printf "--- Bechamel micro-benchmarks (monotonic clock, ns/run) ---\n%!";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let table =
    Table.create ~title:"algorithm wall-clock"
      ~columns:[ "algorithm"; "ns/run"; "r^2" ]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name raw ->
          let est = Analyze.one ols instance raw in
          let ns =
            match Analyze.OLS.estimates est with
            | Some [ x ] -> Printf.sprintf "%.0f" x
            | Some xs ->
                String.concat ","
                  (List.map (fun x -> Printf.sprintf "%.0f" x) xs)
            | None -> "n/a"
          in
          let r2 =
            match Analyze.OLS.r_square est with
            | Some r -> Printf.sprintf "%.3f" r
            | None -> "n/a"
          in
          Table.add_row table [ name; ns; r2 ])
        results)
    (micro_tests mode);
  Table.print table

(* `--metrics FILE` (or PPDC_METRICS=FILE) collects counters and span
   timings across the whole run and writes them as NDJSON on exit; the
   flag is scanned by hand since the bench has no cmdliner front end. *)
let metrics_path () =
  let argv = Sys.argv in
  let from_flag = ref None in
  Array.iteri
    (fun i arg ->
      if arg = "--metrics" && i + 1 < Array.length argv then
        from_flag := Some argv.(i + 1)
      else if String.length arg > 10 && String.sub arg 0 10 = "--metrics=" then
        from_flag := Some (String.sub arg 10 (String.length arg - 10)))
    argv;
  match !from_flag with Some _ as p -> p | None -> Obs.env_path ()

let () =
  let mode = Mode.of_env () in
  let metrics = metrics_path () in
  if metrics <> None then Obs.set_enabled true;
  run_experiments mode;
  run_micro_benchmarks mode;
  (match metrics with
  | Some path ->
      Obs.export ~path;
      Printf.printf "metrics written to %s\n" path
  | None -> ());
  print_endline "bench: all experiments completed."
