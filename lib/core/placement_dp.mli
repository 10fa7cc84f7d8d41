(** Algo. 3 — DP-based VNF placement for TOP (the paper's "DP").

    For every ordered pair of switches [(p(1), p(n))] — candidate ingress
    and egress — the middle of the chain is filled with an (n−2)-stroll
    from Algo. 2, and the pair with the smallest
    [A_in(p(1)) + Λ · stroll + A_out(p(n))] wins. One DP table per egress
    switch answers *all* ingress queries.

    The strolls depend on the cost matrix, the candidate switches and
    [n], never on the rates, so they are kept per matrix (DESIGN.md
    §4k): the first solve per (matrix, candidates, n) costs
    O(|V_s| · (table + |V_s| · extraction)), and every later one — any
    rates, any flows — costs O(|V_s|² + |V_s| · l): the
    attachment sums plus a scan over the stored pairs. The table is
    keyed by the matrix's identity and released with it; answers are
    bit-identical either way. A solve needing only some egress rows
    ([pair_limit]) fills only those.

    [n = 1] and [n = 2] have closed-form optimal solutions (scan switches
    / switch pairs), as the paper notes. *)

type outcome = {
  placement : Placement.t;
  cost : float;  (** actual [C_a(placement)] under the given rates *)
  objective : float;
      (** the stroll-based value the pair selection minimized; ≥ [cost]
          can differ from it when the stroll revisits edges *)
}

val solve :
  Problem.t ->
  rates:float array ->
  ?rescore:bool ->
  ?pair_limit:int ->
  unit ->
  outcome
(** [solve problem ~rates ()] computes a placement for the current rate
    vector.

    [rescore] (default [false], the paper's behaviour) selects each
    ingress/egress pair by the *recomputed exact* [C_a] of the extracted
    placement instead of the stroll length — never worse, slightly
    slower; quantified by the [abl-rescore] ablation.

    [pair_limit k] restricts candidate ingresses to the [k] switches with
    the smallest [A_in] and egresses to the [k] smallest [A_out] — a
    scalability knob for very large PPDCs (used by the k=16 simulation);
    omit for the paper-faithful full scan. Raises [Invalid_argument]
    naming [pair_limit] when [k < 1].

    Raises [Invalid_argument] if the rates are invalid (see
    {!Cost.attach}), if no ingress/egress pair is feasible, or, for
    [n >= 3], if the instance has more than 65536 candidate switches
    (the stored middles are 16-bit candidate indices). *)
