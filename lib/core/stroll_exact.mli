(** Exact n-stroll (the "Optimal" benchmark for TOP-1).

    In the metric completion, an optimal stroll visiting [n] distinct
    switches shortcuts to an optimal *sequence* of [n] distinct switches
    (triangle inequality), so the optimum is
    [min over ordered distinct (x_1..x_n) of
      c(src,x_1) + Σ c(x_j, x_{j+1}) + c(x_n, dst)].
    This module searches that space with {!Exact_search}, the
    branch-and-bound shared with Algos 4 and 6 (Theorem 1 makes TOP
    with one unit-rate flow this problem): [A_in = c(src, ·)],
    [A_out = c(·, dst)], hop weight 1, children tried nearest-first,
    and a subtree pruned when the [Stroll] bound
    [partial + (n−k)·δ_min + min_x c(x, dst)] cannot beat the incumbent
    (admissible, so within budget the result is provably optimal). A
    literal enumeration is O(|V_s|^n) as the paper notes;
    the bound makes moderate instances practical, and a node [budget]
    caps the worst case — if it is exhausted, the best incumbent is
    returned with [proven_optimal = false]. *)

type outcome = {
  cost : float;
  switches : int array;  (** the optimal VNF sequence *)
  proven_optimal : bool;
  explored : int;  (** number of search-tree nodes expanded *)
}

val solve :
  cm:Ppdc_topology.Cost_matrix.t ->
  src:int ->
  dst:int ->
  n:int ->
  ?budget:int ->
  ?incumbent:float * int array ->
  unit ->
  outcome
(** [solve ~cm ~src ~dst ~n ()] finds the cheapest sequence of [n]
    distinct switches between [src] and [dst], drawn from every switch
    except [src]/[dst]; [budget] defaults to 20 million nodes;
    [incumbent] seeds the upper bound (e.g. from {!Stroll_dp.solve})
    which can prune dramatically. Raises [Invalid_argument] if fewer
    than [n] candidates exist. *)
