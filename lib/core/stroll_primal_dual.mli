(** Algo. 1 — primal-dual approximation for TOP-1.

    The paper sketches the Chaudhuri–Godfrey–Rao–Talwar primal-dual for
    the n-stroll: grow duals ("moats") paying for edges, prune, and walk
    the resulting tree. We implement the standard Lagrangian realization
    of that family:

    + put a uniform prize [π] on every candidate switch and run
      Goemans–Williamson moat growing for the prize-collecting Steiner
      tree rooted at [src] with [dst] as a mandatory terminal (its prize
      is infinite). Active components grow uniformly; an edge joins the
      forest when the moats on its two sides pay for it; a component
      deactivates when its prize potential is exhausted;
    + prune leaves whose connecting edge costs more than the prize they
      bring (the Lagrangian prune);
    + binary-search [π] for the smallest prize whose pruned tree spans at
      least [n] counting switches;
    + double the tree, shortcut the Euler walk (visiting the subtree that
      contains [dst] last), and stop after [n] distinct switches.

    Everything runs on the metric completion, where the triangle
    inequality required by the analysis holds by construction. The
    classic analysis gives cost ≤ 2(1+ε) · OPT; empirically DP-Stroll
    (Algo. 2) beats this bound, which is exactly the paper's Fig. 7
    claim. *)

type outcome = {
  cost : float;  (** metric length of the produced stroll *)
  switches : int array;  (** [n] distinct switches in visit order *)
  tree_cost : float;  (** cost of the pruned GW tree that was walked *)
  prize : float;  (** the π found by the binary search *)
  iterations : int;  (** binary-search iterations performed *)
}

val solve :
  cm:Ppdc_topology.Cost_matrix.t ->
  src:int ->
  dst:int ->
  n:int ->
  ?candidates:int array ->
  unit ->
  outcome
(** [solve ~cm ~src ~dst ~n ()] returns a stroll visiting [n] distinct
    switches. [candidates] defaults to all switches except [src]/[dst];
    the binary search on π runs at most 40 iterations. Raises
    [Invalid_argument] if fewer than [n] candidates exist. *)

val place : Problem.t -> rates:float array -> Placement.t * outcome option
(** Algo. 1 lifted to a whole-chain placement: the ingress is the
    switch of least traffic-weighted entry cost, the egress the other
    switch of least exit cost, and {!solve} strolls from one to the
    other through the middle [n - 2] candidates. For [n = 1] the one
    VNF goes to the switch of least entry plus exit cost. Approximate
    by construction. The stroll's outcome (its prize and iteration
    count) comes back when [n >= 3]. *)
