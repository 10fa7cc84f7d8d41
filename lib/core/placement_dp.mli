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
    rates, any flows — costs O(|V_s| · l + r · |V_s|): the attachment
    sums plus a scan of the [r] egress rows the row bound does not
    skip. The table is keyed by the matrix's identity and released with
    it; answers are bit-identical either way. A solve needing only some
    egress rows ([pair_limit]) fills only those.

    {b Row bound.} Each stored row also keeps its smallest stroll cost.
    Before scanning egress row [e], the scan computes
    [min_in + Λ · row_min(e) + A_out(e)], with [min_in] the smallest
    [A_in] over the scanned ingresses, in the objective's own
    expression and operand order. Every operand is non-negative and
    none is NaN, and IEEE rounding is monotone, so this is at most
    every key in the row; the selection replaces its best only on a
    strictly smaller key, so a row whose bound is already [>=] the best
    key is skipped without changing the winner or its objective. With
    [rescore] the key is the recomputed chain cost, which the stored
    stroll does not bound, and every row is scanned. On a unit k=8
    fat-tree with 100 flows and n = 5, the 12 diurnal rate vectors skip
    79 of 80 rows per solve.

    {b Counters} (when {!Ppdc_prelude.Obs} is on):
    [placement_dp.pairs_tried] adds every (ingress, egress) pair the
    selection covers, skipped rows included — the pairs the full scan
    would try; [placement_dp.rows_pruned] adds the egress rows the
    bound skipped. Both are computed once per solve. The
    [placement_dp.solve] span times a whole call, including the
    attachment sums when {!solve} computes them.

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
    (the stored middles are 16-bit candidate indices).

    [solve problem ~rates ?pair_limit ()] is
    [solve_attached problem (Cost.attach problem ~rates) ?pair_limit ()]. *)

val solve_attached :
  Problem.t -> Cost.attach -> ?pair_limit:int -> unit -> outcome
(** {!solve} (the paper's pair selection, no [rescore]) on attachment
    sums the caller already computed for this problem and rate vector,
    so a decision that needs them too (mPareto's frontier scan, Algo.
    4's incumbent) runs {!Cost.attach} once. Same answers, bit for bit,
    and the same errors but the rate check, which {!Cost.attach} made. *)
