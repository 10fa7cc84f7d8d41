(** Shared helpers for the figure-reproduction experiments. *)

val unweighted_fat_tree :
  int -> Ppdc_topology.Fat_tree.t * Ppdc_topology.Cost_matrix.t
(** Memoized unit-weight fat-tree and its all-pairs matrix for a given
    k (the k=16 matrix holds 448 stored rows × 320 columns, about
    1.4 MB, and the dynamic experiments reuse it hundreds of times).
    The memo is an LRU ({!Ppdc_prelude.Lru}) holding at most
    {!cost_matrix_cache_capacity} fabrics, so sweeping many ks cannot
    accumulate matrices without bound. Parallel trials build each k
    once, and one k's build never blocks trials on another. *)

val cost_matrix_cache_capacity : int
(** Upper bound on simultaneously cached fabrics (currently 4 — any
    single experiment touches at most two or three ks). *)

val cost_matrix_cache_stats : unit -> int * int * int
(** [(live_entries, hits, misses)] of the fat-tree cache, for tests and
    diagnostics; [live_entries <= cost_matrix_cache_capacity]. *)

val fat_tree_problem :
  ?weighted:bool ->
  k:int ->
  l:int ->
  n:int ->
  seed:int ->
  unit ->
  Ppdc_core.Problem.t
(** Build a seeded experiment instance: a k-ary fat-tree (unit link
    weights, or — with [weighted] — the link delays of
    {!Ppdc_topology.Fat_tree.build_weighted}), [l] flows with the
    paper's rack locality and Facebook rate mix, and an SFC of length
    [n]. The same seed always yields the same instance. *)

val runs : trials:int -> (seed:int -> 'a) -> 'a array
(** [runs ~trials f] runs [f ~seed] once for each seed 1..trials, spread
    over the domain pool, and returns the results in seed order — the
    paper's "20 runs" behind each data point. Each trial is one
    [runner.trial] span. A data point that reports several statistics
    of one trial reads them all off one [runs] array with {!summary},
    so each trial runs once. *)

val summary : 'a array -> ('a -> float) -> Ppdc_prelude.Stats.summary
(** [summary runs stat] is the mean ± 95% CI of [stat] over [runs], in
    array order: the same floats in the same order at any domain
    count. *)

val average :
  trials:int -> (seed:int -> float) -> Ppdc_prelude.Stats.summary
(** [summary (runs ~trials f) Fun.id]: the paper's "average of 20 runs"
    for a data point that reports one statistic. *)

val mean_cell : Ppdc_prelude.Stats.summary -> string
(** Render a summary as ["mean±ci"] for table cells. *)
