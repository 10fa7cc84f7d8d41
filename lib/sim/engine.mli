(** Migration policies, one policy step, and the hourly report.

    The paper's lifecycle deploys the SFC at hour 0 (per
    {!Scenario.initial}: by default before any traffic exists, since
    Eq. 9 has τ_0 = 0), then runs the chosen migration policy once per
    hour against that hour's rate vector, charging each hour its
    migration traffic plus one hour of communication traffic. That day
    is {!Event_engine.run_day}: a [Periodic 1.0] replay of the hourly
    event stream, reported per hour as a {!run}. This module holds
    what every replay shares: the policy table, {!step} and the
    day-0 placement. It is the harness behind the Fig. 11 experiments.

    Policies:
    - [Mpareto] — Algo. 5 VNF migration (the paper's contribution);
    - [Optimal] — Algo. 6 branch-and-bound VNF migration (budgeted);
    - [Mpareto_lookahead] — mPareto driven by a perfect one-hour traffic
      forecast: the frontier is evaluated against the *average* of this
      hour's and next hour's rate vectors, so the chain starts moving
      toward where the traffic is going rather than where it is. An
      upper-bound study of what prediction is worth (not in the paper).
      {b Horizon contract}: at the final epoch the "next hour" does not
      exist, and the forecast used there is the all-zero rate vector —
      the vector {!Ppdc_traffic.Events.of_trace} places at the horizon;
    - [Plan] / [Mcf] — the VM-migration baselines: the VNFs stay at the
      initial placement and the VMs chase them;
    - [No_migration] — the initial placement rides out the whole day. *)

type policy = Mpareto | Optimal | Mpareto_lookahead | Plan | Mcf | No_migration

val policy_name : policy -> string

val policies : (string * policy) list
(** Every policy under the name the CLI's [--policy] and the RPC
    [simulate_events] method accept: ["mpareto"], ["optimal"],
    ["forecast"], ["plan"], ["mcf"], ["none"]. *)

(** {1 The hourly report}

    What {!Event_engine.run_day} and {!Event_engine.run_trace} return:
    one record per hour (trace epoch). *)

type hour_record = {
  hour : int;
  comm_cost : float;  (** one hour of [C_a] after the policy acted *)
  migration_cost : float;  (** [C_b] (VNF) or VM migration traffic *)
  migrations : int;  (** VNF moves or VM moves this hour *)
  total_cost : float;  (** [comm_cost + migration_cost] *)
}

type run = {
  policy : policy;
  initial_placement : Ppdc_core.Placement.t;
  hours : hour_record array;  (** hour 1 .. N *)
  total_cost : float;
  total_migrations : int;
}

(** {1 Single-step interface}

    The pieces {!Event_engine.run} drives, at every event where its
    trigger fires: the hourly day is the [Periodic 1.0] case. *)

type state = {
  mutable placement : Ppdc_core.Placement.t;
  mutable problem : Ppdc_core.Problem.t;
      (** flows evolve under the VM policies (PLAN/MCF); the cost
          matrix evolves under link failure/repair events *)
}

val step :
  Scenario.t ->
  state ->
  policy:policy ->
  rates:float array ->
  next_rates:float array ->
  float * float * int
(** Let the policy act once against [rates] (with [next_rates] as the
    lookahead forecast — ignored by every policy except
    [Mpareto_lookahead]), mutating [state]. Returns
    [(comm_cost, migration_cost, moves)]: the communication cost of
    one epoch at [rates] after the move, the migration traffic, and
    the move count. Deterministic. *)

val initial_placement_of :
  Scenario.t -> first_rates:float array -> Ppdc_core.Placement.t
(** The day-0 placement per the scenario's {!Scenario.initial}:
    seeded-arbitrary for [Uninformed], Algo. 3 on [first_rates] for
    [Hour1]. *)
