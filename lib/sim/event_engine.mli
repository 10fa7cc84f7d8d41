(** Discrete-event reconfiguration simulator: the one loop that runs
    the migration policies.

    It replays a {!Ppdc_traffic.Events} timeline: virtual time
    advances event by event, communication cost accrues
    {e continuously} — each segment between consecutive events is
    charged [elapsed × C_a(current problem, rates, placement)], so an
    hour-long segment is one hour of C_a — and migration cost is
    charged per reconfiguration, exactly as {!Engine.step} reports
    it. {e When} to reconfigure is a first-class {!trigger} policy,
    decoupled from {e how} (the {!Engine.policy} invoked when the
    trigger fires).

    {b Determinism.} The engine replays the stream in place, in the
    order {!Ppdc_traffic.Events.make}'s stable sort gave it, so
    equal-time events replay in stream order on every machine and at
    every domain count. Every policy step is itself deterministic.

    {b The hourly day.} The paper's day (Fig. 11, Eq. 8) is the
    [Periodic 1.0] replay of an [Events.of_trace] stream: {!run_trace}
    and {!run_day} run it and report it hour by hour.

    Observability: when {!Ppdc_prelude.Obs} is enabled, every
    processed event emits a [sim.event] event (kind, virtual time,
    whether the trigger fired, moves), each firing bumps the
    [sim.trigger.<name>] counter, and the invoked policy's decision
    time lands in both the [sim.reconfig] and the
    [sim.step.<policy>] span. The hourly view also emits one
    [sim.epoch] event per hour (policy, hour, comm and migration cost,
    moves). With [Obs] off none of this allocates. *)

type trigger =
  | Periodic of float
      (** fire at the first event at or after each multiple of the
          span since the last firing (first opportunity: time 0) *)
  | Threshold of float
      (** fire when the current communication-cost {e rate} exceeds
          [ratio ×] the rate measured right after the last
          reconfiguration (cost drift) *)
  | Hysteresis of { up : float; down : float }
      (** like [Threshold up], but after firing the trigger disarms
          until the cost rate falls back to [down × baseline] — the
          anti-thrashing variant: a reconfiguration that could not
          shed the drift does not fire again every event *)
  | On_event  (** fire at every processed event *)

val trigger_name : trigger -> string
(** "periodic" | "threshold" | "hysteresis" | "on_event" — the tag
    used by the [sim.trigger.<name>] Obs counters. *)

val trigger_of_string : string -> trigger
(** Parse ["periodic:SPAN"], ["threshold:RATIO"],
    ["hysteresis:UP,DOWN"], or ["on-event"] (case-insensitive); the
    CLI and RPC surface share this grammar. Raises [Invalid_argument]
    on anything else or on out-of-domain parameters (span/ratio must
    be finite positive, [up >= down > 0]). *)

type event_record = {
  time : float;  (** virtual time of the event *)
  kind : string;  (** {!Ppdc_traffic.Events.kind_name} *)
  comm_charge : float;
      (** communication cost accrued over the segment ending at this
          event (at the {e previous} segment's rate) *)
  fired : bool;  (** did the trigger invoke the migration policy *)
  migration_cost : float;  (** 0 unless [fired] *)
  moved : int;
}

type run = {
  policy : Engine.policy;
  trigger : trigger;
  initial_placement : Ppdc_core.Placement.t;
  final_placement : Ppdc_core.Placement.t;
  records : event_record array;  (** one per processed event *)
  final_comm : float;
      (** the tail segment [last event, horizon) — charged after the
          last record *)
  total_comm : float;
  total_migration : float;
  total_cost : float;  (** [total_comm + total_migration] *)
  total_moves : int;
  reconfigurations : int;  (** trigger firings *)
}

val run :
  Scenario.t ->
  policy:Engine.policy ->
  trigger:trigger ->
  events:Ppdc_traffic.Events.t ->
  unit ->
  run
(** Replay the stream against the scenario's problem. Flows start at
    rate zero, and a [Rate_update] replaces every flow's rate; the
    engine copies the event's values, so a stream replays identically
    any number of times. The initial placement follows
    {!Scenario.initial} (an [Hour1] deployment sees the last rate
    vector at or before the stream's earliest timestamp). Only events
    strictly before the horizon are processed.
    [Link_failure]/[Link_repair] events evolve the problem's cost
    matrix incrementally: the engine removes or adds the link and
    derives the new matrix with {!Ppdc_topology.Cost_matrix.repair_to}.

    The [Mpareto_lookahead] forecast at time [t] is the last rate
    vector at or before [t + 1] — perfect one-hour prediction; on an
    hourly stream, the next hour's vector.

    Migrations are instantaneous, as in the paper's cost model (Eq. 8):
    a reconfiguration takes effect at the event that fired it, and its
    migration cost is charged there.

    Raises [Invalid_argument], before replaying any event, on a rate
    vector whose length is not the problem's flow count; and, when the
    event is replayed, on an out-of-range link endpoint, a
    [Link_failure] naming an absent edge or one whose removal
    disconnects the fabric, or a [Link_repair] of a present edge. *)

(** {1 The hourly view} *)

val run_trace :
  Scenario.t -> policy:Engine.policy -> trace:Ppdc_traffic.Trace.t -> Engine.run
(** Replay a {!Ppdc_traffic.Trace}, one decision per epoch: [run] of
    [Events.of_trace trace] under [Periodic 1.0], reported per hour.
    Hour [i] takes its migration from record [i], and its C_a from
    the one-hour segment that record [i+1] closes (or [final_comm] for
    the last hour). [total_cost] is the left fold of the hour totals.
    The trace's flows must match the scenario's problem. One caveat
    for the VM-migration policies: the trace's {e rates} are replayed
    as-is, but the flow endpoints evolve with the policy's VM moves.
    Raises [Invalid_argument] on a flow-count mismatch or an empty
    trace. *)

val run_day : Scenario.t -> policy:Engine.policy -> Engine.run
(** The paper's 12-hour day: [run_trace] of
    [Trace.of_diurnal Diurnal.default] on the scenario's flows. The
    day-0 placement follows {!Scenario.initial}. Deterministic given
    the scenario. *)
