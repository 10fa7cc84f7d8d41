module Table = Ppdc_prelude.Table
module Stats = Ppdc_prelude.Stats
module Rng = Ppdc_prelude.Rng
module Flow = Ppdc_traffic.Flow
module Workload = Ppdc_traffic.Workload
module Scenario = Ppdc_sim.Scenario
module Engine = Ppdc_sim.Engine
module Event_engine = Ppdc_sim.Event_engine
open Ppdc_core

let rescore mode =
  let k = Mode.k_placement mode in
  let l = Mode.l_fixed mode in
  let trials = Mode.trials mode in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Ablation: Algo. 3 pair selection by stroll value vs rescored C_a \
            (k=%d, l=%d)"
           k l)
      ~columns:[ "n"; "paper (stroll value)"; "rescored"; "gain" ]
  in
  List.iter
    (fun n ->
      let instance ~seed = Runner.fat_tree_problem ~k ~l ~n ~seed () in
      let plain =
        Runner.average ~trials (fun ~seed ->
            let problem = instance ~seed in
            let rates = Flow.base_rates (Problem.flows problem) in
            (Placement_dp.solve problem ~rates ()).cost)
      in
      let rescored =
        Runner.average ~trials (fun ~seed ->
            let problem = instance ~seed in
            let rates = Flow.base_rates (Problem.flows problem) in
            (Placement_dp.solve problem ~rates ~rescore:true ()).cost)
      in
      Table.add_row table
        [
          string_of_int n;
          Runner.mean_cell plain;
          Runner.mean_cell rescored;
          Printf.sprintf "%.2f%%"
            (100.0 *. (1.0 -. (rescored.Stats.mean /. plain.Stats.mean)));
        ])
    (Mode.n_sweep mode);
  [ table ]

let frontier mode =
  let k = Mode.k_placement mode in
  let l = Mode.l_fixed mode in
  let trials = Mode.trials mode in
  let mu = 1e4 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Ablation: mPareto frontier collision policy (k=%d, l=%d, mu=1e4)" k
           l)
      ~columns:[ "n"; "skip collisions"; "allow collisions"; "colliding rows" ]
  in
  List.iter
    (fun n ->
      let run_with policy ~seed =
        let problem = Runner.fat_tree_problem ~k ~l ~n ~seed () in
        let rates0 = Flow.base_rates (Problem.flows problem) in
        let current = (Placement_dp.solve problem ~rates:rates0 ()).placement in
        let rng = Rng.create (seed * 101) in
        let rates = Workload.redraw_rates ~rng (Problem.flows problem) in
        Mpareto.migrate problem ~rates ~mu ~current ~collisions:policy ()
      in
      let skipped = Runner.runs ~trials (run_with `Skip) in
      let skip = Runner.summary skipped (fun o -> o.Mpareto.total_cost) in
      let allow =
        Runner.average ~trials (fun ~seed -> (run_with `Allow ~seed).total_cost)
      in
      let colliding =
        Runner.summary skipped (fun o ->
            float_of_int
              (List.length (List.filter (fun p -> p.Mpareto.collides) o.points)))
      in
      Table.add_row table
        [
          string_of_int n;
          Runner.mean_cell skip;
          Runner.mean_cell allow;
          Printf.sprintf "%.1f" colliding.Stats.mean;
        ])
    (Mode.n_sweep mode);
  [ table ]

let mu mode =
  let k = Mode.k_placement mode in
  let l = Mode.l_fixed mode in
  let n = Mode.n_dynamic mode in
  let trials = Mode.trials_dynamic mode in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Ablation: migration coefficient sweep over a simulated day (k=%d, \
            l=%d, n=%d)"
           k l n)
      ~columns:
        [ "mu"; "mPareto total"; "VNF moves/day"; "NoMigration"; "reduction" ]
  in
  List.iter
    (fun mu ->
      let day policy ~seed =
        let problem = Runner.fat_tree_problem ~k ~l ~n ~seed () in
        Event_engine.run_day (Scenario.make ~mu problem) ~policy
      in
      let days = Runner.runs ~trials (day Engine.Mpareto) in
      let mp = Runner.summary days (fun r -> r.Engine.total_cost) in
      let moves =
        Runner.summary days (fun r -> float_of_int r.Engine.total_migrations)
      in
      let stay =
        Runner.average ~trials (fun ~seed ->
            (day Engine.No_migration ~seed).Engine.total_cost)
      in
      Table.add_row table
        [
          Printf.sprintf "1e%d" (int_of_float (Float.log10 mu));
          Runner.mean_cell mp;
          Printf.sprintf "%.1f" moves.Stats.mean;
          Runner.mean_cell stay;
          Printf.sprintf "%.1f%%"
            (100.0 *. (1.0 -. (mp.Stats.mean /. stay.Stats.mean)));
        ])
    [ 1e2; 1e3; 1e4; 1e5; 1e6 ];
  [ table ]

let pair_limit mode =
  let k = Mode.k_placement mode in
  let l = Mode.l_fixed mode in
  let trials = Mode.trials mode in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Ablation: DP placement ingress/egress candidate cap (k=%d, l=%d)" k
           l)
      ~columns:[ "n"; "full scan"; "cap=16"; "cap=4"; "cap=16 penalty" ]
  in
  List.iter
    (fun n ->
      let cost ?pair_limit ~seed () =
        let problem = Runner.fat_tree_problem ~k ~l ~n ~seed () in
        let rates = Flow.base_rates (Problem.flows problem) in
        (Placement_dp.solve problem ~rates ?pair_limit ()).cost
      in
      let full = Runner.average ~trials (fun ~seed -> cost ~seed ()) in
      let cap16 =
        Runner.average ~trials (fun ~seed -> cost ~pair_limit:16 ~seed ())
      in
      let cap4 =
        Runner.average ~trials (fun ~seed -> cost ~pair_limit:4 ~seed ())
      in
      Table.add_row table
        [
          string_of_int n;
          Runner.mean_cell full;
          Runner.mean_cell cap16;
          Runner.mean_cell cap4;
          Printf.sprintf "%.2f%%"
            (100.0 *. ((cap16.Stats.mean /. full.Stats.mean) -. 1.0));
        ])
    (Mode.n_sweep mode);
  [ table ]

let initial mode =
  let k = Mode.k_placement mode in
  let l = Mode.l_fixed mode in
  let n = Mode.n_dynamic mode in
  let trials = Mode.trials_dynamic mode in
  let mu_val, _ = Mode.mu_dynamic mode in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Ablation: day-0 deployment policy (k=%d, l=%d, n=%d, mu=%g)" k l n
           mu_val)
      ~columns:
        [
          "initial placement";
          "mPareto total";
          "NoMigration total";
          "migration gain";
        ]
  in
  let day ~initial policy ~seed =
    let problem = Runner.fat_tree_problem ~k ~l ~n ~seed () in
    Event_engine.run_day
      (Scenario.make ~mu:mu_val
         ~initial:(match initial with
           | `Uninformed -> Scenario.Uninformed seed
           | `Hour1 -> Scenario.Hour1)
         problem)
      ~policy
  in
  List.iter
    (fun (label, initial) ->
      let mp =
        Runner.average ~trials (fun ~seed ->
            (day ~initial Engine.Mpareto ~seed).Engine.total_cost)
      in
      let stay =
        Runner.average ~trials (fun ~seed ->
            (day ~initial Engine.No_migration ~seed).Engine.total_cost)
      in
      Table.add_row table
        [
          label;
          Runner.mean_cell mp;
          Runner.mean_cell stay;
          Printf.sprintf "%.1f%%"
            (100.0 *. (1.0 -. (mp.Stats.mean /. stay.Stats.mean)));
        ])
    [
      ("uninformed (tau_0 = 0, paper lifecycle)", `Uninformed);
      ("idealized hour-1 aware operator", `Hour1);
    ];
  [ table ]

let lookahead mode =
  let k = Mode.k_placement mode in
  let l = Mode.l_fixed mode in
  let n = Mode.n_dynamic mode in
  let trials = Mode.trials_dynamic mode in
  let mu_val, _ = Mode.mu_dynamic mode in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Ablation: value of a perfect one-hour traffic forecast (k=%d, \
            l=%d, n=%d, mu=%g)"
           k l n mu_val)
      ~columns:[ "policy"; "day total"; "VNF moves"; "vs reactive mPareto" ]
  in
  let day policy ~seed =
    let problem = Runner.fat_tree_problem ~k ~l ~n ~seed () in
    Event_engine.run_day
      (Scenario.make ~mu:mu_val ~initial:(Scenario.Uninformed seed) problem)
      ~policy
  in
  let summarize policy =
    let days = Runner.runs ~trials (day policy) in
    ( Runner.summary days (fun r -> r.Engine.total_cost),
      Runner.summary days (fun r -> float_of_int r.Engine.total_migrations) )
  in
  let reactive, reactive_moves = summarize Engine.Mpareto in
  let forecast, forecast_moves = summarize Engine.Mpareto_lookahead in
  Table.add_row table
    [
      "mPareto (reactive)";
      Runner.mean_cell reactive;
      Printf.sprintf "%.1f" reactive_moves.Stats.mean;
      "100%";
    ];
  Table.add_row table
    [
      "mPareto + forecast";
      Runner.mean_cell forecast;
      Printf.sprintf "%.1f" forecast_moves.Stats.mean;
      Printf.sprintf "%.1f%%"
        (100.0 *. forecast.Stats.mean /. reactive.Stats.mean);
    ];
  [ table ]

let parallel_frontiers mode =
  let k = Mode.k_placement mode in
  let l = Mode.l_fixed mode in
  let trials = Mode.trials mode in
  let mu_val, _ = Mode.mu_dynamic mode in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Ablation: Algo. 5's parallel frontiers vs all Definition-1 \
            frontiers (k=%d, l=%d, mu=%g)"
           k l mu_val)
      ~columns:
        [ "n"; "parallel (Algo 5)"; "all frontiers"; "optimal TOM"; "gap" ]
  in
  List.iter
    (fun n ->
      let instance ~seed =
        let problem = Runner.fat_tree_problem ~k ~l ~n ~seed () in
        (* Start from an uninformed deployment so the migration paths are
           long and the frontier sets rich. *)
        let current =
          Placement.random ~rng:(Rng.create (seed + 0x5eed)) problem
        in
        let rates =
          Ppdc_traffic.Diurnal.rates_at Ppdc_traffic.Diurnal.default
            ~flows:(Problem.flows problem) ~hour:6
        in
        (problem, current, rates)
      in
      let parallel =
        Runner.average ~trials (fun ~seed ->
            let problem, current, rates = instance ~seed in
            (Mpareto.migrate problem ~rates ~mu:mu_val ~current ()).total_cost)
      in
      let full =
        Runner.average ~trials (fun ~seed ->
            let problem, current, rates = instance ~seed in
            (Frontier_search.migrate problem ~rates ~mu:mu_val ~current ())
              .total_cost)
      in
      let opt =
        Runner.average ~trials (fun ~seed ->
            let problem, current, rates = instance ~seed in
            (Migration_opt.solve problem ~rates ~mu:mu_val ~current
               ~budget:(Mode.opt_budget mode) ())
              .cost)
      in
      Table.add_row table
        [
          string_of_int n;
          Runner.mean_cell parallel;
          Runner.mean_cell full;
          Runner.mean_cell opt;
          Printf.sprintf "%.2f%%"
            (100.0 *. ((parallel.Stats.mean /. full.Stats.mean) -. 1.0));
        ])
    (Mode.n_sweep mode);
  [ table ]
