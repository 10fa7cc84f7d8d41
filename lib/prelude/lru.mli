(** Fixed-capacity least-recently-used cache.

    A hash table paired with an intrusive recency list: {!find} and
    {!put} are O(1), and when an insert would exceed the capacity the
    entry that has gone longest without being touched is evicted. Built
    for the repo's two expensive-value caches — the cost-matrix caches
    in [Ppdc_experiments.Runner] and [Ppdc_server] — where values are
    megabytes (a unit k=16 cost matrix is about 2.3 MB, k=32 about
    37 MB) and an unbounded table is a slow leak.

    Not thread-safe: callers that share a cache across domains guard it
    with their own mutex (both in-tree users do). [Runner] calls
    {!find_or_add} under its lock, so concurrent misses for one key
    wait for a single build but also block every other lookup. The
    server's engine holds its lock only for {!find}, {!put} and its
    own in-flight table, and builds outside it. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** Raises [Invalid_argument] if [capacity < 1]. Keys use polymorphic
    hashing, so they must be hashable (ints and strings in-tree). *)

val capacity : ('k, 'v) t -> int

val length : ('k, 'v) t -> int
(** Live entries; always [<= capacity]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit refreshes the entry's recency and is counted in
    {!hits}, a miss in {!misses}. *)

val put : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace, making the entry most recent; evicts the least
    recently used entry if the capacity would be exceeded. Does not
    touch the hit/miss counters. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> bool * 'v
(** [find_or_add t k build] is [(true, v)] on a hit and
    [(false, build ())] on a miss, caching the built value. Counts as
    one {!find}. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Presence test; does not refresh recency or touch the counters. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Lookup that does not refresh recency and does not touch the
    hit/miss counters — for secondary uses of a cached value (e.g.
    reading a parent cost matrix as the seed of an incremental repair)
    that should not perturb the cache's observable behaviour. *)

val hits : ('k, 'v) t -> int

val misses : ('k, 'v) t -> int
