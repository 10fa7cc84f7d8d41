(** Configuration of one simulated PPDC day.

    Bundles the problem instance with the cost coefficients and the
    day-0 deployment, so every migration policy is charged identically.
    The traffic comes separately, as a trace or an event stream; the
    paper's day is {!Ppdc_traffic.Diurnal.default}. A scenario is
    immutable; the engine copies what it mutates. *)

type initial =
  | Uninformed of int
      (** the SFC is deployed before any traffic exists (Eq. 9 has
          τ_0 = 0, so at deployment time every placement costs zero and
          TOP has nothing to optimize): a seeded arbitrary placement.
          This matches the paper's lifecycle and is what makes the
          NoMigration baseline progressively expensive. *)
  | Hour1
      (** deploy with knowledge of the first hour's rates (Algo. 3 on the
          hour-1 vector) — an idealized operator; used by the
          [abl_initial] ablation. *)

type t = {
  problem : Ppdc_core.Problem.t;
  mu : float;
      (** migration coefficient (paper: 10^4–10^5), charged per moved
          VNF and, under the PLAN/MCF baselines, per moved VM:
          containerized VNF and VM memory footprints are of the same
          order (DESIGN.md §4) *)
  pair_limit : int option;
      (** ingress/egress candidate cap handed to {!Ppdc_core.Placement_dp}
          inside mPareto — a scalability knob for k=16 runs *)
  opt_budget : int;
      (** branch-and-bound node budget for the Optimal migration policy *)
  initial : initial;  (** how the day-0 placement is chosen *)
}

val make :
  ?mu:float ->
  ?pair_limit:int ->
  ?opt_budget:int ->
  ?initial:initial ->
  Ppdc_core.Problem.t ->
  t
(** Defaults: [mu = 1e4], no pair limit, 2-million-node optimal
    budget, [Uninformed 0] deployment. *)

(** {1 Event-stream constructors}

    The graph-aware bridges into the discrete-event simulator
    ({!Event_engine}); the pure-data constructors (traces, probes)
    live in {!Ppdc_traffic.Events}. *)

val events_of_diurnal : t -> Ppdc_traffic.Events.t
(** The paper's diurnal day on the scenario's flows as an hourly event
    stream: [Events.of_trace (Trace.of_diurnal Diurnal.default)]. Its
    [Periodic 1.0] replay is {!Event_engine.run_day}. *)

val failure_episode :
  rng:Ppdc_prelude.Rng.t ->
  at:float ->
  duration:float ->
  fraction:float ->
  t ->
  Ppdc_traffic.Events.t
(** One failure episode on the scenario's fabric: at time [at], a
    seeded connectivity-preserving random subset of switch-switch
    links fails ({!Ppdc_extensions.Failures.fail_links} with
    [fraction]); at [at + duration] every failed link is repaired at
    its original weight, in reverse failure order. The stream's
    horizon is [at + duration] — merge it with a traffic stream
    ({!Ppdc_traffic.Events.merge}) whose horizon extends further,
    otherwise the repairs sit exactly at the horizon and are never
    processed. Raises [Invalid_argument] on a negative/non-finite
    [at], non-positive [duration], or [fraction] outside [0, 1]. *)
