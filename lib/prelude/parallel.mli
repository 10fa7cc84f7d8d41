(** Deterministic parallel execution on OCaml 5 domains.

    A fixed pool of worker domains executes index-based task sets. The
    pool size is, in decreasing priority: the last value passed to
    {!set_domains} (the CLI [-j] flag), the [PPDC_DOMAINS] environment
    variable, or [Domain.recommended_domain_count ()].

    Determinism contract: every combinator writes task results into
    per-index slots and reduces them in index order after a full
    barrier, so the value produced is a pure function of the task
    bodies — bit-identical for any domain count, including the
    sequential fallback ([PPDC_DOMAINS=1]). If several tasks raise, the
    exception of the lowest index is re-raised (matching what a
    sequential left-to-right loop would have raised first).

    Only the main domain fans out. A section started on any other
    domain runs its task set sequentially on that domain: a task body
    that itself calls into this module (it runs on a pool worker, or on
    the main domain's own lane while its section is in progress), and a
    section started on a domain the program spawned — a socket
    daemon's request worker, say — which is already one lane of the
    program's parallelism. So callers never need to know whether they
    are already inside a parallel region, and a program that spawns
    its own domains never gets the pool beside them. *)

val domain_count : unit -> int
(** Effective parallelism width (≥ 1). *)

val set_domains : int -> unit
(** Override the pool size (≥ 1); takes effect on the next parallel
    call, resizing the pool if needed. Raises [Invalid_argument] on
    non-positive values. *)

val parallel_for : int -> (int -> unit) -> unit
(** [parallel_for n f] runs [f 0 .. f (n-1)], distributing indices over
    the pool. Returns after all tasks complete. *)

val init : int -> (int -> 'a) -> 'a array
(** Parallel [Array.init]: element [i] of the result is [f i]. *)

val parallel_map : ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map] (same result, element for element). *)

val map_reduce :
  n:int -> map:(int -> 'b) -> init:'a -> combine:('a -> 'b -> 'a) -> 'a
(** [map_reduce ~n ~map ~init ~combine] computes [map i] for each index
    in parallel, then folds [combine] over the results **in index
    order** on the calling domain — equivalent to
    [Array.fold_left combine init (Array.init n map)]. *)
