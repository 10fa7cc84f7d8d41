open Ppdc_core
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
