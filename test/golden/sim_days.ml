(* Every hour of the hourly simulator, printed with %h so that a change
   in the last bit of any hour's cost shows in the diff against
   sim_days.expected. The grid covers unit and weighted k=4/k=8
   fabrics, both deployments and mu from 1e2 to 1e4, each on the
   diurnal day ([run_day]) and on a 6-epoch churn trace ([run_trace]),
   under all six policies. *)

module Rng = Ppdc_prelude.Rng
module Trace = Ppdc_traffic.Trace
module Scenario = Ppdc_sim.Scenario
module Engine = Ppdc_sim.Engine
module Event_engine = Ppdc_sim.Event_engine
module Runner = Ppdc_experiments.Runner

let instances =
  [
    ("unit k=4", false, 4, 12, 3, Scenario.Uninformed 0, 1e2);
    ("weighted k=4", true, 4, 16, 4, Scenario.Hour1, 1e3);
    ("unit k=8", false, 8, 24, 5, Scenario.Hour1, 1e4);
    ("weighted k=8", true, 8, 20, 4, Scenario.Uninformed 7, 1e3);
  ]

let print_run name day (run : Engine.run) =
  Printf.printf "== %s / %s / %s: initial [%s] total %h migrations %d\n" name
    day
    (Engine.policy_name run.policy)
    (String.concat ";"
       (Array.to_list (Array.map string_of_int run.initial_placement)))
    run.total_cost run.total_migrations;
  Array.iter
    (fun (h : Engine.hour_record) ->
      Printf.printf "%d comm %h migration %h moves %d total %h\n" h.hour
        h.comm_cost h.migration_cost h.migrations h.total_cost)
    run.hours

let () =
  List.iteri
    (fun seed (name, weighted, k, l, n, initial, mu) ->
      let problem = Runner.fat_tree_problem ~weighted ~k ~l ~n ~seed () in
      let scenario = Scenario.make ~mu ~opt_budget:20_000 ~initial problem in
      let trace =
        Trace.churn ~rng:(Rng.create (seed + 100)) ~epochs:6
          (Ppdc_core.Problem.flows problem)
      in
      List.iter
        (fun (_, policy) ->
          print_run name "diurnal" (Event_engine.run_day scenario ~policy);
          print_run name "churn"
            (Event_engine.run_trace scenario ~policy ~trace))
        Engine.policies)
    instances
