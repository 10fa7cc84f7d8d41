(** Bounded worker pool on OCaml 5 domains.

    A fixed set of worker domains drains a bounded FIFO of jobs. The
    bound is the backpressure mechanism: {!push} never blocks the
    producer and never queues silently past the limit — when every
    worker is busy and the pending queue is full it returns
    [Overloaded] immediately, so the caller can answer the client with
    a structured rejection instead of letting latency grow without
    bound. It is the library's one domain pool, with two users:
    [Ppdc_server.Transport]'s accept loop, where a job is one accepted
    connection, and {!Parallel}, whose helper jobs each claim indices
    of one section until it drains. Each user owns its own queue. A
    job that opens a [Parallel] section runs it in place on its worker
    (only the main domain fans out), so the two never wait on each
    other.

    Thread safety: every operation may be called from any domain.
    Job-body exceptions are contained (counted in {!failures}, the
    worker survives). *)

type 'a t

type push_result =
  | Accepted  (** queued (or about to be picked up by an idle worker) *)
  | Overloaded  (** pending queue full — job rejected, run nothing *)
  | Stopped  (** {!shutdown} already began — job rejected *)

val create : workers:int -> max_pending:int -> ('a -> unit) -> 'a t
(** [create ~workers ~max_pending run] spawns [workers] domains that
    execute [run job] for each accepted job, in FIFO order of
    acceptance. A push is accepted when a worker is free (fewer than
    [workers] jobs executing) or the pending queue holds fewer than
    [max_pending] jobs, so at most [workers + max_pending] accepted
    jobs are ever waiting to start; [max_pending = 0] rejects exactly
    when every worker is busy. Raises [Invalid_argument] if
    [workers < 1] or [max_pending < 0]. *)

val push : 'a t -> 'a -> push_result
(** Submit a job; never blocks. *)

val depth : 'a t -> int
(** Jobs accepted but not yet started. *)

val active : 'a t -> int
(** Jobs currently being executed by a worker. *)

val rejected : 'a t -> int
(** Pushes that returned [Overloaded] or [Stopped]. *)

val completed : 'a t -> int
(** Jobs whose [run] returned or raised. *)

val failures : 'a t -> int
(** Jobs whose [run] raised. *)

val shutdown : 'a t -> unit
(** Stop accepting new jobs, wait until every already-accepted job
    (pending and active) has finished, then join the worker domains.
    Idempotent; concurrent calls all block until the drain completes. *)
