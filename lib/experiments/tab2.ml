module Table = Ppdc_prelude.Table
module Rng = Ppdc_prelude.Rng
module Flow = Ppdc_traffic.Flow
module Workload = Ppdc_traffic.Workload
open Ppdc_core
open Ppdc_baselines

let run mode =
  let k = Mode.k_placement mode in
  let n = 4 in
  let problem = Runner.fat_tree_problem ~k ~l:10 ~n ~seed:1 () in
  let rates = Flow.base_rates (Problem.flows problem) in
  let ft, cm = Runner.unweighted_fat_tree k in
  let table =
    Table.create
      ~title:(Printf.sprintf "Table II: algorithm matrix smoke run (k=%d)" k)
      ~columns:[ "problem"; "algorithm"; "cost" ]
  in
  let add problem_name algorithm cost =
    Table.add_row table [ problem_name; algorithm; Printf.sprintf "%.0f" cost ]
  in
  (* TOP-1 (n-stroll) on one host pair. *)
  let src = ft.Ppdc_topology.Fat_tree.hosts.(0) in
  let dst = ft.Ppdc_topology.Fat_tree.hosts.(Array.length ft.hosts - 1) in
  add "TOP-1" "DP-Stroll (Algo 2)" (Stroll_dp.solve ~cm ~src ~dst ~n ()).cost;
  add "TOP-1" "PrimalDual (Algo 1)"
    (Stroll_primal_dual.solve ~cm ~src ~dst ~n ()).cost;
  add "TOP-1" "Optimal (exact stroll)"
    (Stroll_exact.solve ~cm ~src ~dst ~n ~budget:(Mode.opt_budget mode) ())
      .cost;
  (* TOP. *)
  add "TOP" "DP (Algo 3)" (Placement_dp.solve problem ~rates ()).cost;
  add "TOP" "Optimal (Algo 4)"
    (Placement_opt.solve problem ~rates ~budget:(Mode.opt_budget mode) ()).cost;
  add "TOP" "Steering [55]" (Steering.place problem ~rates).cost;
  add "TOP" "Greedy [34]" (Greedy_liu.place problem ~rates).cost;
  add "TOP" "Annealing (extension)"
    (Ppdc_extensions.Placement_anneal.solve ~rng:(Rng.create 3) problem ~rates)
      .cost;
  (* TOM after a rate redraw. *)
  let current = (Placement_dp.solve problem ~rates ()).placement in
  let rng = Rng.create 2 in
  let rates' = Workload.redraw_rates ~rng (Problem.flows problem) in
  let mu = 1e4 in
  add "TOM" "mPareto (Algo 5)"
    (Mpareto.migrate problem ~rates:rates' ~mu ~current ()).total_cost;
  add "TOM" "Optimal (Algo 6)"
    (Migration_opt.solve problem ~rates:rates' ~mu ~current
       ~budget:(Mode.opt_budget mode) ())
      .cost;
  add "TOM" "PLAN [17]"
    (Plan.migrate problem ~rates:rates' ~mu_vm:mu ~placement:current)
      .total_cost;
  add "TOM" "MCF [24]"
    (Mcf_migration.migrate problem ~rates:rates' ~mu_vm:mu ~placement:current
       ())
      .total_cost;
  add "TOM" "NoMigration"
    (No_migration.evaluate problem ~rates:rates' ~placement:current).total_cost;
  [ table ]
