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

    With [Ppdc_prelude.Parallel.domain_count () > 1] the depth-0
    subtrees are searched on the domain pool, each against the seed
    incumbent only, with an equal share of [budget], and the subtree
    winners are reduced in deterministic child order. [placement] and
    [cost] then still match the sequential search whenever neither run
    exhausts its budget, but [explored] (and, near the budget limit,
    [proven_optimal]) can differ because per-subtree pruning is weaker
    than threading one evolving incumbent through the whole scan. *)

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
