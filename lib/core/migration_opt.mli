(** Algo. 6 — optimal VNF migration (the "Optimal" benchmark for TOM).

    Minimizes [C_t(p, m) = μ·Σ c(p(j), m(j)) + C_a(m)] over all valid
    placements [m] with {!Exact_search}: {!Placement_opt}'s
    specification plus the per-position migration term [μ·c(p(j), x)]
    in each step cost and child order. The completion bound is the same
    [Chain] bound: the migration term's admissible lower bound is 0
    (leave the VNF in place), which holds only for [μ ≥ 0]. The
    incumbent is the mPareto solution, so within budget the result is
    provably optimal and never worse than mPareto. The search runs
    sequentially at any domain count (a depth-0 fan-out would change
    budget-capped answers). *)

type outcome = {
  migration : Placement.t;
  cost : float;  (** [C_t(p, migration)] *)
  proven_optimal : bool;
  explored : int;
}

val solve :
  Problem.t ->
  rates:float array ->
  mu:float ->
  current:Placement.t ->
  ?budget:int ->
  ?incumbent:Placement.t ->
  unit ->
  outcome
(** [budget] defaults to 20 million search nodes; [incumbent] defaults to
    the mPareto frontier solution. *)
