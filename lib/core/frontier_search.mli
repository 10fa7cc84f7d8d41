(** Exhaustive search over *all* migration frontiers (Definition 1).

    Algo. 5 restricts itself to the [h_max] *parallel* frontiers for
    tractability; Definition 1 actually allows any combination of one
    switch per migration path — [Π_j h_j] frontiers. This module
    enumerates that full set (up to a combination cap) so the cost of
    the parallel restriction can be measured: the [abl_parallel]
    ablation shows how often a non-parallel frontier beats the parallel
    ones, and by how much.

    Note the full frontier set still only contains stop-points along
    each VNF's shortest path to its Algo. 3 target — Algo. 6
    ([Migration_opt]) remains the true TOM optimum. *)

type outcome = {
  migration : Placement.t;
  total_cost : float;
  migration_cost : float;
  comm_cost : float;
  moved : int;
  frontiers_evaluated : int;
  truncated : bool;  (** the combination cap was hit *)
}

val migrate :
  Problem.t ->
  rates:float array ->
  mu:float ->
  current:Placement.t ->
  ?max_combinations:int ->
  unit ->
  outcome
(** Like {!Mpareto.migrate} but minimizing over every collision-free
    frontier of Definition 1 (row 0, "stay", is always included, so the
    result never loses to doing nothing). Enumeration stops after
    [max_combinations] (default 100_000) frontiers, flagged by
    [truncated]. *)
