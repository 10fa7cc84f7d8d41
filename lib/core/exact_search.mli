(** Depth-first branch-and-bound over ordered sequences of [n] distinct
    candidate switches: the one search behind Algo. 4
    ({!Placement_opt}), Algo. 6 ({!Migration_opt}) and the exact
    n-stroll ({!Stroll_exact}).

    A sequence [(x_1..x_n)] costs
    [A_in(x_1) + Σ_{j>1} Λ·c(x_{j−1}, x_j) + Σ_j μ·c(p(j), x_j) + A_out(x_n)]
    (the [μ] term only for TOM). Children are expanded cheapest-first so
    that one failed bound test cuts every later sibling, the incumbent
    is the caller's heuristic answer, and a node [budget] caps the work:
    within it the answer is provably optimal. *)

(** How the completion bound is formed. Both are admissible; they differ
    in float association, and the stroll's form also decides which
    last-position children are expanded (and so counted against the
    budget), so each caller keeps its own. *)
type bound =
  | Chain
      (** Algos 4 and 6: [partial +. (Λ·r·δ_min +. min A_out)] with [r]
          positions left after the child; a last-position child is
          dropped on its own [A_out], and its siblings cut on
          [min A_out]. *)
  | Stroll
      (** The n-stroll: [partial +. r·δ_min +. min A_out], summed left to
          right at every position, last included. *)

type spec = {
  cm : Ppdc_topology.Cost_matrix.t;
  candidates : int array;  (** distinct switch ids; at least [n] *)
  n : int;  (** sequence length, [≥ 1] *)
  lambda : float;  (** [Λ], the weight of each chain hop *)
  a_in : float array;  (** per candidate (same index): cost of [x_1] *)
  a_out : float array;  (** per candidate: closing cost after [x_n] *)
  moves : (float * int array) option;
      (** TOM: [Some (μ, p)] adds [μ·c(p(j), x_j)] at every position *)
  bound : bound;
  fan_out : bool;
      (** search the depth-0 subtrees on the domain pool when it has more
          than one domain (Algo. 4 only; see {!Placement_opt}) *)
  budget : int;  (** search nodes *)
}

type result = {
  best : int array;  (** switch ids; the incumbent if nothing beat it *)
  best_cost : float;
  explored : int;  (** search nodes expanded *)
  exhausted : bool;  (** the budget ran out *)
  pruned_at_root : int;
      (** depth-0 bound failures; a sibling cutoff counts once *)
}

val run : spec -> cost:float -> incumbent:int array -> result
(** [run spec ~cost ~incumbent] searches for a sequence strictly cheaper
    than [cost], the cost of [incumbent] (which may be [[||]] with cost
    [infinity]). Ties go to the first sequence found in child order, so
    every run is deterministic; a fan-out run returns the sequential
    answer whenever neither exhausts its budget. *)
