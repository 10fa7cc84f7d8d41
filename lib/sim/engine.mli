(** Discrete-hour PPDC day simulator.

    Realizes the paper's lifecycle: the SFC is deployed at hour 0 (per
    {!Scenario.initial} — by default before any traffic exists, since
    Eq. 9 has τ_0 = 0), then the chosen migration policy runs once per
    hour against the diurnal rate vector (Eq. 9 with the east/west
    offset), and every hour is charged its migration traffic plus one
    hour of communication traffic. This is the harness behind the
    Fig. 11 experiments.

    Policies:
    - [Mpareto] — Algo. 5 VNF migration (the paper's contribution);
    - [Optimal] — Algo. 6 branch-and-bound VNF migration (budgeted);
    - [Mpareto_lookahead] — mPareto driven by a perfect one-hour traffic
      forecast: the frontier is evaluated against the *average* of this
      hour's and next hour's rate vectors, so the chain starts moving
      toward where the traffic is going rather than where it is. An
      upper-bound study of what prediction is worth (not in the paper).
      {b Horizon contract}: at the final epoch the "next hour" does not
      exist; the forecast used there is the all-zero rate vector — the
      day (or trace) simply ends. [run_day] and [run_trace] share this
      contract (the engine substitutes the zero vector itself, in one
      place), so replaying [Trace.of_diurnal] of a scenario's flows is
      bit-identical to [run_day] under every policy, lookahead
      included;
    - [Plan] / [Mcf] — the VM-migration baselines: the VNFs stay at the
      initial placement and the VMs chase them;
    - [No_migration] — the initial placement rides out the whole day.

    Observability: when {!Ppdc_prelude.Obs} is enabled, every simulated
    epoch emits a [sim.epoch] event (policy, hour, comm/migration cost,
    moves, decision latency) and records the policy's decision time
    under the [sim.step.<policy>] span; the layer is a no-op
    otherwise. *)

type policy = Mpareto | Optimal | Mpareto_lookahead | Plan | Mcf | No_migration

val policy_name : policy -> string

val policies : (string * policy) list
(** Every policy under the name the CLI's [--policy] and the RPC
    [simulate_events] method accept: ["mpareto"], ["optimal"],
    ["forecast"], ["plan"], ["mcf"], ["none"]. *)

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

    The pieces {!Event_engine} reuses so that one policy step means
    exactly the same thing at hour granularity and between arbitrary
    events. *)

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

val run_day : Scenario.t -> policy:policy -> run
(** Simulate one day: choose the day-0 placement per the scenario's
    {!Scenario.initial}, then let the policy act at every hour 1..N.
    Deterministic given the scenario. *)

val run_trace : Scenario.t -> policy:policy -> trace:Ppdc_traffic.Trace.t -> run
(** Replay an arbitrary {!Ppdc_traffic.Trace} instead of the diurnal
    model: the policy acts once per trace epoch. The trace's flows must
    match the scenario's problem ([run_day scenario] is equivalent to
    replaying [Trace.of_diurnal] of the scenario's flows). One caveat
    for the VM-migration policies: the trace's *rates* are replayed
    as-is, but the flow endpoints evolve with the policy's VM moves.
    Raises [Invalid_argument] on a flow-count mismatch or empty
    trace. *)
