module Table = Ppdc_prelude.Table
module Stats = Ppdc_prelude.Stats
module Scenario = Ppdc_sim.Scenario
module Engine = Ppdc_sim.Engine
module Event_engine = Ppdc_sim.Event_engine

let scenario ~mode ~k ~l ~n ~mu ~seed =
  let problem = Runner.fat_tree_problem ~k ~l ~n ~seed () in
  Scenario.make ~mu
    ?pair_limit:(Mode.pair_limit mode)
    ~opt_budget:(Mode.opt_budget mode)
    ~initial:(Scenario.Uninformed seed) problem

let day ~mode ~k ~l ~n ~mu policy ~seed =
  Event_engine.run_day (scenario ~mode ~k ~l ~n ~mu ~seed) ~policy

(* Average per-hour series of a policy across seeds. *)
let hourly ~mode ~k ~l ~n ~mu ~trials policy =
  let days = Runner.runs ~trials (day ~mode ~k ~l ~n ~mu policy) in
  Array.init (Array.length days.(0).Engine.hours) (fun h ->
      let stat f = Runner.summary days (fun r -> f r.Engine.hours.(h)) in
      ( stat (fun hour -> hour.Engine.total_cost),
        stat (fun hour -> float_of_int hour.Engine.migrations) ))

let total ~mode ~k ~l ~n ~mu ~trials policy =
  Runner.average ~trials (fun ~seed ->
      (day ~mode ~k ~l ~n ~mu policy ~seed).Engine.total_cost)

let run mode =
  let k = Mode.k_dynamic mode in
  let l = Mode.l_dynamic mode in
  let n = Mode.n_dynamic mode in
  let trials = Mode.trials_dynamic mode in
  let mu_lo, mu_hi = Mode.mu_dynamic mode in
  let mu_name mu = Printf.sprintf "%g" mu in
  let policies = Engine.[ Mpareto; Optimal; Plan; Mcf ] in
  (* (a) and (b): one set of day simulations feeds both tables. *)
  let series =
    List.map (fun p -> (p, hourly ~mode ~k ~l ~n ~mu:mu_lo ~trials p)) policies
  in
  let hours = Array.length (snd (List.hd series)) in
  let table_a =
    Table.create
      ~title:
        (Printf.sprintf
           "Fig. 11(a): hourly total cost under dynamic traffic (k=%d, l=%d, \
            n=%d, mu=%s)"
           k l n (mu_name mu_lo))
      ~columns:("hour" :: List.map Engine.policy_name policies)
  in
  let table_b =
    Table.create
      ~title:
        (Printf.sprintf
           "Fig. 11(b): hourly migrations — VNF moves (mPareto/Optimal) vs \
            VM moves (PLAN/MCF), k=%d, l=%d, n=%d"
           k l n)
      ~columns:("hour" :: List.map Engine.policy_name policies)
  in
  for h = 0 to hours - 1 do
    Table.add_row table_a
      (string_of_int (h + 1)
      :: List.map (fun (_, s) -> Runner.mean_cell (fst s.(h))) series);
    Table.add_row table_b
      (string_of_int (h + 1)
      :: List.map
           (fun (_, s) -> Printf.sprintf "%.1f" (snd s.(h)).Stats.mean)
           series)
  done;
  (* (c): total daily cost vs l for two migration coefficients. *)
  let table_c =
    Table.create
      ~title:
        (Printf.sprintf
           "Fig. 11(c): total daily cost vs number of flows (k=%d, n=%d)" k n)
      ~columns:
        [
          "l";
          Printf.sprintf "mPareto mu=%s" (mu_name mu_lo);
          Printf.sprintf "Optimal mu=%s" (mu_name mu_lo);
          Printf.sprintf "mPareto mu=%s" (mu_name mu_hi);
          Printf.sprintf "Optimal mu=%s" (mu_name mu_hi);
          "NoMigration";
          "reduction";
        ]
  in
  List.iter
    (fun l ->
      let mp4 = total ~mode ~k ~l ~n ~mu:mu_lo ~trials Engine.Mpareto in
      let op4 = total ~mode ~k ~l ~n ~mu:mu_lo ~trials Engine.Optimal in
      let mp5 = total ~mode ~k ~l ~n ~mu:mu_hi ~trials Engine.Mpareto in
      let op5 = total ~mode ~k ~l ~n ~mu:mu_hi ~trials Engine.Optimal in
      let stay = total ~mode ~k ~l ~n ~mu:mu_lo ~trials Engine.No_migration in
      Table.add_row table_c
        [
          string_of_int l;
          Runner.mean_cell mp4;
          Runner.mean_cell op4;
          Runner.mean_cell mp5;
          Runner.mean_cell op5;
          Runner.mean_cell stay;
          Printf.sprintf "%.1f%%"
            (100.0 *. (1.0 -. (mp4.Stats.mean /. stay.Stats.mean)));
        ])
    (Mode.l_dynamic_sweep mode);
  (* (d): total daily cost vs n, mPareto vs NoMigration. *)
  let table_d =
    Table.create
      ~title:
        (Printf.sprintf
           "Fig. 11(d): total daily cost vs chain length (k=%d, l=%d, mu=%s)"
           k l (mu_name mu_lo))
      ~columns:[ "n"; "mPareto"; "NoMigration"; "reduction" ]
  in
  List.iter
    (fun n ->
      let mp = total ~mode ~k ~l ~n ~mu:mu_lo ~trials Engine.Mpareto in
      let stay = total ~mode ~k ~l ~n ~mu:mu_lo ~trials Engine.No_migration in
      Table.add_row table_d
        [
          string_of_int n;
          Runner.mean_cell mp;
          Runner.mean_cell stay;
          Printf.sprintf "%.1f%%"
            (100.0 *. (1.0 -. (mp.Stats.mean /. stay.Stats.mean)));
        ])
    (Mode.n_dynamic_sweep mode);
  [ table_a; table_b; table_c; table_d ]
