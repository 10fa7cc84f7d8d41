module Table = Ppdc_prelude.Table
module Rng = Ppdc_prelude.Rng
module Stats = Ppdc_prelude.Stats
module Events = Ppdc_traffic.Events
module Scenario = Ppdc_sim.Scenario
module Engine = Ppdc_sim.Engine
module Event_engine = Ppdc_sim.Event_engine

(* The composite day every row replays: the diurnal rate wave as
   hourly updates, quarter-hour probe ticks so triggers can fire
   between state changes, and one mid-day failure episode (a link goes
   down at hour 5.25 and comes back 1.5 hours later). Deterministic
   given the seed. *)
let stream ~seed scenario =
  let base = Scenario.events_of_diurnal scenario in
  let horizon = Events.horizon base in
  let probes = Events.probes ~every:0.25 ~horizon in
  let episode =
    Scenario.failure_episode
      ~rng:(Rng.create (seed + 0xfa11))
      ~at:5.25 ~duration:1.5 ~fraction:0.05 scenario
  in
  Events.merge (Events.merge base probes) episode

let replay ~mu ~trigger ~seed ~k ~l ~n =
  let problem = Runner.fat_tree_problem ~k ~l ~n ~seed () in
  let sc = Scenario.make ~mu ~initial:(Scenario.Uninformed seed) problem in
  Event_engine.run sc ~policy:Engine.Mpareto ~trigger ~events:(stream ~seed sc)
    ()

let run mode =
  let k = Mode.k_placement mode in
  let l = Mode.l_fixed mode in
  let n = Mode.n_dynamic mode in
  let trials = Mode.trials_dynamic mode in
  let mu, _ = Mode.mu_dynamic mode in
  (* One table per sweep: a row per (label, mu, trigger), every column a
     statistic of one set of seeded replays. *)
  let sweep ~title ~first rows =
    let table =
      Table.create ~title
        ~columns:[ first; "comm cost"; "VNF moves"; "reconfigs"; "day total" ]
    in
    List.iter
      (fun (label, mu, trigger) ->
        let runs =
          Runner.runs ~trials (fun ~seed -> replay ~mu ~trigger ~seed ~k ~l ~n)
        in
        let stat f = Runner.summary runs f in
        let count f = Printf.sprintf "%.1f" (stat f).Stats.mean in
        Table.add_row table
          [
            label;
            Runner.mean_cell (stat (fun r -> r.Event_engine.total_comm));
            count (fun r -> float_of_int r.Event_engine.total_moves);
            count (fun r -> float_of_int r.Event_engine.reconfigurations);
            Runner.mean_cell (stat (fun r -> r.Event_engine.total_cost));
          ])
      rows;
    table
  in
  let mu_sweep =
    sweep
      ~title:
        (Printf.sprintf
           "Eta sweep: migration coefficient under a threshold trigger (k=%d, \
            l=%d, n=%d, eta=1.2)"
           k l n)
      ~first:"mu"
      (List.map
         (fun mu ->
           ( Printf.sprintf "1e%d" (int_of_float (Float.log10 mu)),
             mu,
             Event_engine.Threshold 1.2 ))
         [ 1e2; 1e3; 1e4; 1e5; 1e6 ])
  in
  let eta_sweep =
    sweep
      ~title:
        (Printf.sprintf
           "Eta sweep: threshold drift ratio (k=%d, l=%d, n=%d, mu=%g)" k l n
           mu)
      ~first:"eta"
      (List.map
         (fun eta -> (Printf.sprintf "%.2f" eta, mu, Event_engine.Threshold eta))
         [ 1.05; 1.1; 1.2; 1.5; 2.0 ])
  in
  let triggers =
    sweep
      ~title:
        (Printf.sprintf
           "Trigger policies over the composite day (k=%d, l=%d, n=%d, mu=%g)"
           k l n mu)
      ~first:"trigger"
      (List.map
         (fun (label, trigger) -> (label, mu, trigger))
         [
           ("on-event", Event_engine.On_event);
           ("periodic:1", Event_engine.Periodic 1.0);
           ("periodic:3", Event_engine.Periodic 3.0);
           ("threshold:1.2", Event_engine.Threshold 1.2);
           ( "hysteresis:1.2,1.05",
             Event_engine.Hysteresis { up = 1.2; down = 1.05 } );
         ])
  in
  [ mu_sweep; eta_sweep; triggers ]
