(** Deterministic parallel execution on OCaml 5 domains.

    A section (an index-based task set) runs on the calling domain and
    on a {!Work_queue} of helper domains, one fewer than the width. The
    width is, in decreasing priority: the last value passed to
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
    that itself calls into this module (it runs on a helper, or on the
    main domain's own lane while its section is in progress), and a
    section started on a domain the program spawned — a socket
    daemon's request worker, say — which is already one lane of the
    program's parallelism. So callers never need to know whether they
    are already inside a parallel region, and a program that spawns
    its own domains never gets the helpers beside them. *)

val domain_count : unit -> int
(** Effective parallelism width (≥ 1). *)

val set_domains : int -> unit
(** Override the width (≥ 1); takes effect on the next section, which
    replaces the helpers if the width changed. Raises
    [Invalid_argument] on non-positive values. *)

val parallel_for : int -> (int -> unit) -> unit
(** [parallel_for n f] runs [f 0 .. f (n-1)], distributing indices over
    the helpers. Returns after all tasks complete. *)

val init : int -> (int -> 'a) -> 'a array
(** Parallel [Array.init]: element [i] of the result is [f i]. *)
