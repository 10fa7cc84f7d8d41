(** Typed event timelines for the discrete-event simulator.

    An event stream is the dynamic half of a scenario freed from the
    hour grid: the traffic-rate vector changes, links fail and come
    back — each at an arbitrary virtual time in [0, horizon).
    The stream itself is pure data (no graph or problem attached);
    {!Ppdc_sim.Event_engine} interprets it against a scenario, and
    {!Ppdc_sim.Scenario} builds the graph-dependent streams (failure
    episodes) that need topology knowledge.

    {b Determinism contract.} [make] stable-sorts events by time, so
    equal-time events keep the order the caller listed them in, and the
    engine replays the sorted stream in that order. A stream is
    therefore replayed identically on every machine and at every domain
    count. *)

type kind =
  | Rate_update of float array
      (** every flow's rate from this time on, indexed by flow id (the
          paper's λ of Eq. 8 changes as a whole): one event, so the
          engine evaluates its trigger once. The engine copies the
          values and never writes into the array. *)
  | Link_failure of { u : int; v : int }
  | Link_repair of { u : int; v : int; weight : float }
  | Probe  (** no state change; gives periodic triggers a tick *)

type event = { time : float; kind : kind }

type t
(** An immutable stream: events sorted by time, plus the horizon. *)

val make : horizon:float -> event list -> t
(** Stable-sorts by time. Raises [Invalid_argument] on a non-finite or
    negative time/horizon, a non-finite or negative rate, a self-loop
    link, or a non-positive repair weight. (A rate vector's length and
    link endpoints are validated against the actual problem by the
    engine, which is where the graph lives.) *)

val kind_name : kind -> string
(** Stable lowercase tag ("rate_update", "link_repair", ...) used by
    Obs events and the CLI. *)

val events : t -> event list
(** In time order (stable for equal times). *)

val horizon : t -> float
val length : t -> int

val of_trace : Trace.t -> t
(** One [Rate_update] per trace epoch at times
    [0 .. epochs-1], horizon [epochs], plus a final all-zero vector
    {e at} the horizon — never processed, but visible to forecasts:
    the zero forecast past the last epoch. Its [Periodic 1.0] replay
    is {!Ppdc_sim.Event_engine.run_trace}. Raises [Invalid_argument]
    on an empty trace. *)

val probes : every:float -> horizon:float -> t
(** [Probe] ticks at [every, 2·every, ...) below the horizon — gives a
    [Periodic] trigger a chance to fire between state changes. At most
    10 000 ticks: each is an event a run replays (and, under an
    [On_event] trigger, a decision), so a schedule finer than that —
    [every = 0.001] over the 12 h day, say — is refused rather than
    left to hang its caller. Raises [Invalid_argument] on a non-finite
    or non-positive [every], a non-finite or negative [horizon], or a
    schedule of more than 10 000 ticks. *)

val merge : t -> t -> t
(** Union of two streams; horizon is the max. Equal-time events order
    first-stream-before-second. *)
