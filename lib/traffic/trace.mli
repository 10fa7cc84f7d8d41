(** Workload traces: a set of flows plus their per-epoch rate vectors.

    A trace freezes the dynamic part of an experiment — "at epoch [t],
    flow [i] ran at [λ]" — so a workload can be generated once, saved,
    shared, and replayed bit-for-bit (or produced by an external tool and
    imported). The on-disk format is a small CSV:

    {v
      flow,src_host,dst_host,base_rate,coast
      0,25,26,4200.5,east
      ...
      rates,epoch,λ_0,λ_1,...
      rates,0,0.0,0.0,...
    v}

    Epochs are abstract; the diurnal experiments use hours 1..N. *)

type t = {
  flows : Flow.t array;
  rates : float array array;  (** [rates.(epoch).(flow_id)] *)
}

val make : flows:Flow.t array -> rates:float array array -> t
(** Raises [Invalid_argument] if any epoch's vector length differs from
    the flow count, a rate is negative/non-finite, or flow ids are not
    the dense range [0 .. l-1]. *)

val of_diurnal : Diurnal.t -> flows:Flow.t array -> t
(** The paper's dynamic model as a trace: epochs are hours 1..N of
    Eq. 9 with the coast offset. *)

val churn :
  rng:Ppdc_prelude.Rng.t ->
  epochs:int ->
  Flow.t array ->
  t
(** User churn: each flow is assigned a random active window
    [arrival, departure) within the trace (arrival in the first half,
    departure after it) and runs at its base rate — multiplied per epoch
    by a uniform factor in [0.8, 1.2] — while active, zero otherwise.
    "New users joining for the first time" is the
    rates-go-from-zero-to-positive special case of TOM the paper points
    at (Liu et al. [35]). Raises [Invalid_argument] if [epochs < 2]. *)

val num_epochs : t -> int
val num_flows : t -> int

val rates_at : t -> epoch:int -> float array
(** Fresh copy of the epoch's rate vector (0-based epoch index). *)

val to_csv : t -> string
val of_csv : string -> t
(** Raises [Invalid_argument] on malformed input — including [rates]
    rows whose epoch column is not the dense in-order sequence
    [0, 1, 2, ...] (a gap, duplicate or reordering would otherwise be
    silently renumbered by line position). [of_csv (to_csv t) = t] up
    to float printing precision. *)

val save : t -> path:string -> unit
val load : path:string -> t
