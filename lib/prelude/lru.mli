(** Fixed-capacity least-recently-used cache, safe to share across
    domains, that builds each missing value once and outside its lock.

    A hash table paired with an intrusive recency list; installing into
    a full cache evicts the entry that has gone longest without a hit.
    Built for the cost-matrix caches of [Ppdc_experiments.Runner] and
    [Ppdc_server.Engine], whose values are megabytes (a unit k=32 cost
    matrix is about 23 MB) and take milliseconds to seconds to build.

    One leaf mutex (lock class ["lru"]) is held only to look a key up,
    claim its build or install the value. A miss on a key whose build
    is in flight waits for that build and then hits, while every other
    key proceeds. A build that raises drops its claim, installs nothing
    and wakes its waiters; the first to retake the lock builds. A key is
    never both in flight and resident, so a full cache holds at most one
    extra value per build in flight. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** Raises [Invalid_argument] if [capacity < 1]. Keys use polymorphic
    hashing, so they must be hashable (ints and strings in-tree). *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> bool * 'v
(** [find_or_add t k build] is [(true, v)] on a hit, refreshing [k]'s
    recency, and [(false, build ())] on a miss, installing the value.
    A call counts one hit or one miss, and is a miss exactly when it
    builds. *)

type derivation =
  | Cached  (** [k] was already resident; [f] did not run *)
  | Absent  (** [parent] was not resident, or [f] answered [None] *)
  | Derived  (** [f parent] was installed under [k] *)

val derive : ('k, 'v) t -> 'k -> parent:'k -> ('v -> 'v option) -> derivation
(** [derive t k ~parent f] installs [f v] under [k], [v] being
    [parent]'s value (a cost matrix repaired from its parent fabric's).
    [f] runs as [k]'s one build, like a {!find_or_add} miss. The parent
    is read without refreshing it or counting a hit or miss. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Presence test; does not refresh recency or touch the counters. *)

type stats = {
  capacity : int;
  entries : int;
  hits : int;
  misses : int;
  builds : int;  (** values installed by {!find_or_add} *)
  derived : int;  (** values installed by {!derive} *)
  in_flight : int;  (** keys being built *)
  waiting : int;  (** callers waiting for one of those builds *)
}

val stats : ('k, 'v) t -> stats

val set_build_test_hook : ('k, 'v) t -> ('k -> unit) option -> unit
(** Test-only: [f k] runs at the start of every build of [k], outside
    the lock, so a test can hold a build in flight or make it raise. *)
