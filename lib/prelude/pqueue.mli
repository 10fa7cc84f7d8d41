(** Binary min-heaps with [float] priorities.

    {!Stable} orders the discrete-event simulator's timeline; {!Int_heap}
    serves min-cost flow's Dijkstra (the shortest-path kernel keeps its
    own indexed heap). All
    operations are O(log n) except [is_empty], [length] and [create],
    which are O(1). *)

(** Deterministic min-heap keyed by [(priority, insertion sequence)].

    Equal-priority elements pop in push order (FIFO stability), so the
    drain order is a pure function of the push history — the property
    the discrete-event simulator's timeline needs: two events scheduled
    at the same virtual time replay in the order they were scheduled,
    on every machine and at every domain count. All operations are
    O(log n); [push] rejects NaN priorities with [Invalid_argument]. *)
module Stable : sig
  type 'a t

  val create : unit -> 'a t
  val length : 'a t -> int
  val is_empty : 'a t -> bool

  val push : 'a t -> float -> 'a -> unit
  (** [push q prio x] inserts [x] with priority [prio], sequenced after
      every earlier push. Raises [Invalid_argument] on a NaN priority. *)

  val pop_min : 'a t -> (float * 'a) option
  (** Remove and return the element with the smallest [(prio, seq)]
      key, or [None] when empty. *)

  val peek_min : 'a t -> (float * 'a) option

  val clear : 'a t -> unit
  (** Remove all elements. Does {e not} reset the sequence counter:
      elements pushed after a [clear] still sequence after everything
      pushed before it. *)

  val to_sorted_list : 'a t -> (float * 'a) list
  (** Snapshot of the queue contents in pop order, without draining.
      O(n log n). *)
end

(** Monomorphic min-heap with [float] priorities and [int] payloads.

    Both backing arrays are unboxed so [push]/[pop] never allocate —
    this is the queue of min-cost flow's Dijkstra. Ties between equal
    priorities are broken by heap position. To drain without
    allocating, pair {!Int_heap.min_prio} with {!Int_heap.pop}. *)
module Int_heap : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val is_empty : t -> bool

  val push : t -> float -> int -> unit

  val min_prio : t -> float
  (** Priority of the smallest element. Raises [Invalid_argument] when
      empty. *)

  val pop : t -> int
  (** Remove and return the payload of the smallest element. Raises
      [Invalid_argument] when empty. *)

  val clear : t -> unit
end
