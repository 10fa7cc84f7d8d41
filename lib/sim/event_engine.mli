(** Discrete-event reconfiguration simulator.

    Generalizes {!Engine} from the hour grid to an arbitrary
    {!Ppdc_traffic.Events} timeline: virtual time advances event by
    event, communication cost accrues {e continuously} — each segment
    between consecutive events is charged
    [elapsed × C_a(current problem, rates, placement)], the limit of
    which the per-hour charge is the unit-step special case — and
    migration cost is charged per reconfiguration, exactly as
    {!Engine.step} reports it. {e When} to reconfigure is a
    first-class {!trigger} policy, decoupled from {e how} (the
    {!Engine.policy} invoked when the trigger fires).

    {b Determinism.} The engine replays the stream in place, in the
    order {!Ppdc_traffic.Events.make}'s stable sort gave it, so
    equal-time events replay in stream order on every machine and at
    every domain count. Every policy step is itself deterministic.
    Replaying an [Events.of_trace] stream with [Periodic 1.0]
    reproduces {!Engine.run_trace} (and hence [run_day] on diurnal
    streams) bit-identically for all six policies — the regression in
    [test/test_events.ml].

    Observability: when {!Ppdc_prelude.Obs} is enabled, every
    processed event emits a [sim.event] event (kind, virtual time,
    whether the trigger fired, moves), each firing bumps the
    [sim.trigger.<name>] counter, and the invoked policy's decision
    time lands in the [sim.reconfig] span. *)

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
    rate zero; the initial placement follows {!Scenario.initial}
    (an [Hour1] deployment sees the rate vector left by the events at
    the stream's earliest timestamp). Only events strictly before the
    horizon are processed. [Link_failure]/[Link_repair] events evolve
    the problem's cost matrix incrementally: the engine removes or adds
    the link and derives the new matrix with
    {!Ppdc_topology.Cost_matrix.repair_to}.

    The [Mpareto_lookahead] forecast is the rate vector after every
    pending stream event within [t, t + 1] — perfect one-hour
    prediction, the continuous generalization of the hour engine's
    next-hour vector.

    Migrations are instantaneous, as in the paper's cost model (Eq. 8):
    a reconfiguration takes effect at the event that fired it, and its
    migration cost is charged there.

    Raises [Invalid_argument] on an out-of-range flow id or link
    endpoint in the stream, a [Link_failure] naming an absent edge or
    one whose removal disconnects the fabric, or a [Link_repair] of a
    present edge. *)
