(** Simulated-annealing VNF placement — a generic metaheuristic
    comparator.

    Not part of the paper's Table II, but the comparator a practitioner
    would reach for first: start from a random valid placement, propose
    single-VNF relocations and position swaps, accept worsening moves
    with probability [exp(-Δ/T)] under a geometric cooling schedule
    (20,000 proposals; [T] starts at 0.1 × the initial cost and shrinks
    by 0.9995 per proposal), and keep the best placement seen. Useful
    both as a sanity bound in tests (annealing should land between
    Optimal and random) and as a reference for how much the problem
    structure the DP exploits is actually worth. *)

type outcome = {
  placement : Ppdc_core.Placement.t;
  cost : float;
  accepted : int;  (** accepted proposals, for diagnostics *)
}

val solve :
  rng:Ppdc_prelude.Rng.t ->
  Ppdc_core.Problem.t ->
  rates:float array ->
  outcome
(** Anneal from a random valid placement. Deterministic given the
    generator state. *)
