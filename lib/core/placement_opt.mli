(** Algo. 4 — optimal VNF placement (the "Optimal" benchmark for TOP).

    Enumerating all [|V_s|·(|V_s|−1)···(|V_s|−n+1)] placements, as the
    paper's Algo. 4 states, is hopeless beyond toy sizes; this module
    searches the same space with {!Exact_search}, the branch-and-bound
    shared with Algo. 6 and the exact n-stroll. Its specification:

    - a placement costs [A_in(p(1)) + Λ·chain + A_out(p(n))] over the
      candidate switches, with [A_in]/[A_out] from {!Cost.attach};
    - the [Chain] completion bound [Λ·(n−k)·δ_min + min_s A_out(s)];
    - the incumbent is the Algo. 3 (DP) solution, which makes the bound
      bite immediately.

    Within the node [budget] the result is provably optimal
    ([proven_optimal = true]); if the budget is exhausted the best
    incumbent found so far is returned and flagged, which is how the
    "Optimal" curves are produced at paper scale (see DESIGN.md §4).
    The search is sequential, so [explored] and [proven_optimal] are the
    same at every domain count. *)

type outcome = {
  placement : Placement.t;
  cost : float;  (** [C_a(placement)] *)
  proven_optimal : bool;
  explored : int;
}

val solve :
  Problem.t -> rates:float array -> ?budget:int -> ?incumbent:Placement.t ->
  unit -> outcome
(** [budget] defaults to 20 million search nodes. [incumbent] defaults to
    the Algo. 3 solution computed internally. *)
