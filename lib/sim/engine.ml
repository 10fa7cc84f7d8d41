open Ppdc_core
module Diurnal = Ppdc_traffic.Diurnal
module Obs = Ppdc_prelude.Obs
module Plan_baseline = Ppdc_baselines.Plan
module Mcf_baseline = Ppdc_baselines.Mcf_migration

type policy = Mpareto | Optimal | Mpareto_lookahead | Plan | Mcf | No_migration

let policy_name = function
  | Mpareto -> "mPareto"
  | Optimal -> "Optimal"
  | Mpareto_lookahead -> "mPareto+forecast"
  | Plan -> "PLAN"
  | Mcf -> "MCF"
  | No_migration -> "NoMigration"

let policies =
  [
    ("mpareto", Mpareto);
    ("optimal", Optimal);
    ("forecast", Mpareto_lookahead);
    ("plan", Plan);
    ("mcf", Mcf);
    ("none", No_migration);
  ]

type hour_record = {
  hour : int;
  comm_cost : float;
  migration_cost : float;
  migrations : int;
  total_cost : float;
}

type run = {
  policy : policy;
  initial_placement : Placement.t;
  hours : hour_record array;
  total_cost : float;
  total_migrations : int;
}

(* Mutable per-day state: the VNF placement (moved by VNF policies) and
   the flow endpoints (moved by VM policies). *)
type state = {
  mutable placement : Placement.t;
  mutable problem : Problem.t;  (* flows evolve under VM policies *)
}

let step scenario state ~policy ~rates ~next_rates =
  let { Scenario.mu; pair_limit; opt_budget; _ } = scenario in
  match policy with
  | No_migration ->
      let comm = Cost.comm_cost state.problem ~rates state.placement in
      (comm, 0.0, 0)
  | Mpareto_lookahead ->
      (* Decide against the mean of the current and (forecast) next rate
         vectors; charge against reality. *)
      let decision =
        Array.mapi (fun i r -> 0.5 *. (r +. next_rates.(i))) rates
      in
      let out =
        Mpareto.migrate state.problem ~rates:decision ~mu
          ~current:state.placement ?pair_limit ()
      in
      let comm = Cost.comm_cost state.problem ~rates out.migration in
      state.placement <- out.migration;
      (comm, out.migration_cost, out.moved)
  | Mpareto ->
      let out =
        Mpareto.migrate state.problem ~rates ~mu ~current:state.placement
          ?pair_limit ()
      in
      state.placement <- out.migration;
      (out.comm_cost, out.migration_cost, out.moved)
  | Optimal ->
      let seed =
        (Mpareto.migrate state.problem ~rates ~mu ~current:state.placement
           ?pair_limit ())
          .migration
      in
      let out =
        Migration_opt.solve state.problem ~rates ~mu ~current:state.placement
          ~budget:opt_budget ~incumbent:seed ()
      in
      let migration_cost =
        Cost.migration_cost state.problem ~mu ~src:state.placement
          ~dst:out.migration
      in
      let comm = Cost.comm_cost state.problem ~rates out.migration in
      let moved = Cost.moved ~src:state.placement ~dst:out.migration in
      state.placement <- out.migration;
      (comm, migration_cost, moved)
  | Plan ->
      let out =
        Plan_baseline.migrate state.problem ~rates ~mu_vm:mu
          ~placement:state.placement
      in
      state.problem <- Problem.with_flows state.problem out.flows;
      (out.comm_cost, out.migration_cost, out.migrations)
  | Mcf ->
      let out =
        Mcf_baseline.migrate state.problem ~rates ~mu_vm:mu
          ~placement:state.placement ()
      in
      state.problem <- Problem.with_flows state.problem out.flows;
      (out.comm_cost, out.migration_cost, out.migrations)

(* Shared loop: step the policy through a sequence of rate epochs.
   The forecast handed to the lookahead policy one epoch past the end
   is the zero vector (the horizon contract documented in the mli), so
   [rates_of] is only ever asked for epochs [0 .. epochs-1]. *)
let run_epochs scenario ~policy ~initial_placement ~epochs ~rates_of =
  let state =
    { placement = Array.copy initial_placement; problem = scenario.Scenario.problem }
  in
  let hours =
    Array.init epochs (fun i ->
        let hour = i + 1 in
        let current_flows = Problem.flows state.problem in
        let rates = rates_of ~flows:current_flows ~epoch:i in
        let next_rates =
          if i + 1 >= epochs then Array.make (Array.length current_flows) 0.0
          else rates_of ~flows:current_flows ~epoch:(i + 1)
        in
        let t0 = if Obs.enabled () then Obs.now () else 0.0 in
        let comm_cost, migration_cost, migrations =
          step scenario state ~policy ~rates ~next_rates
        in
        if Obs.enabled () then begin
          let dt = Obs.now () -. t0 in
          Obs.observe_span ("sim.step." ^ policy_name policy) dt;
          Obs.emit "sim.epoch"
            [
              ("policy", Obs.String (policy_name policy));
              ("hour", Obs.Int hour);
              ("comm_cost", Obs.Float comm_cost);
              ("migration_cost", Obs.Float migration_cost);
              ("migrations", Obs.Int migrations);
              ("decision_s", Obs.Float dt);
            ]
        end;
        {
          hour;
          comm_cost;
          migration_cost;
          migrations;
          total_cost = comm_cost +. migration_cost;
        })
  in
  {
    policy;
    initial_placement;
    hours;
    total_cost =
      Array.fold_left
        (fun acc (h : hour_record) -> acc +. h.total_cost)
        0.0 hours;
    total_migrations =
      Array.fold_left (fun acc (h : hour_record) -> acc + h.migrations) 0 hours;
  }

let initial_placement_of scenario ~first_rates =
  let { Scenario.problem; pair_limit; initial; _ } = scenario in
  match initial with
  | Scenario.Uninformed seed ->
      (* Deployment happens before traffic exists (Eq. 9 gives hour 0 a
         zero rate vector): all placements cost the same, so the
         operator's choice is arbitrary. *)
      Placement.random ~rng:(Ppdc_prelude.Rng.create (seed + 0x5eed)) problem
  | Scenario.Hour1 ->
      (Placement_dp.solve problem ~rates:first_rates ?pair_limit ()).placement

let run_day scenario ~policy =
  let { Scenario.problem; diurnal; _ } = scenario in
  let flows = Problem.flows problem in
  let initial_placement =
    initial_placement_of scenario
      ~first_rates:(Diurnal.rates_at diurnal ~flows ~hour:1)
  in
  run_epochs scenario ~policy ~initial_placement ~epochs:diurnal.hours
    ~rates_of:(fun ~flows ~epoch ->
      Diurnal.rates_at diurnal ~flows ~hour:(epoch + 1))

let run_trace scenario ~policy ~trace =
  let { Scenario.problem; _ } = scenario in
  if
    Ppdc_traffic.Trace.num_flows trace <> Problem.num_flows problem
  then invalid_arg "Engine.run_trace: trace flow count mismatch";
  let epochs = Ppdc_traffic.Trace.num_epochs trace in
  if epochs = 0 then invalid_arg "Engine.run_trace: empty trace";
  let initial_placement =
    initial_placement_of scenario
      ~first_rates:(Ppdc_traffic.Trace.rates_at trace ~epoch:0)
  in
  run_epochs scenario ~policy ~initial_placement ~epochs
    ~rates_of:(fun ~flows:_ ~epoch -> Ppdc_traffic.Trace.rates_at trace ~epoch)
