(** Future-work extension: multiple VNFs per switch.

    The paper's model installs at most one VNF on each switch's attached
    server; its conclusion asks about "a more general scenario wherein
    each switch can install multiple VNFs". This module lifts the
    one-per-switch restriction to a per-switch capacity [c >= 1].

    {b Reduction.} With capacity [c], a placement is a sequence of [n]
    switches where no switch appears more than [c] times. Consecutive
    VNFs on the same switch add zero chain-internal cost, and by the
    triangle inequality collapsing two visits of a switch into one block
    never increases the cost of the chain path — so some optimal
    placement consists of [q = ceil(n / c)] blocks of co-located VNFs on
    [q] distinct switches. Capacity-TOP on [n] VNFs therefore reduces to
    plain TOP on [q] "super-VNFs": solve that with Algo. 3 (or Algo. 4)
    and expand each super-VNF into a block of up to [c] chain positions.
    [capacity_tests] verifies the reduction against a capacity-aware
    exhaustive search on small instances. *)

val validate :
  Ppdc_core.Problem.t -> capacity:int -> Ppdc_core.Placement.t -> unit
(** Like {!Ppdc_core.Placement.validate} but allowing each switch to
    appear up to [capacity] times. *)

val is_valid :
  Ppdc_core.Problem.t -> capacity:int -> Ppdc_core.Placement.t -> bool

type outcome = {
  placement : Ppdc_core.Placement.t;  (** length [n]; switches may repeat *)
  cost : float;  (** [C_a] under Eq. 1 (repeated switches contribute zero
                     internal cost between their co-located VNFs) *)
  blocks : int;  (** number of distinct switches used, [ceil(n/c)] *)
}

val solve :
  Ppdc_core.Problem.t -> rates:float array -> capacity:int -> outcome
(** Capacity-aware DP placement via the block reduction. [capacity >= n]
    degenerates to "stack the whole chain on the single best switch".
    Raises [Invalid_argument] if [capacity < 1]. *)

val solve_optimal :
  Ppdc_core.Problem.t ->
  rates:float array ->
  capacity:int ->
  outcome * bool
(** Exhaustive capacity-aware branch-and-bound (benchmark; the boolean
    is [proven_optimal], false when the 5-million-node budget runs
    out). Searches sequences directly without the block reduction, so
    it certifies the reduction in tests. *)
