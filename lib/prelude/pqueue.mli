(** Binary min-heap with [float] priorities. [push] and [pop] are
    O(log n); every other operation is O(1). The shortest-path kernel
    keeps its own indexed heap. *)

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
