(** Single-source shortest paths over the CSR graph.

    One kernel: Dijkstra over an indexed binary heap of node ids with
    decrease-key, keyed by the row's own off-heap distance entries, so
    the heap holds no stale entries and the loop allocates nothing. A
    degree-1 node other than the source (a host on a fat-tree) is
    settled when it is first reached instead of being queued, since its
    only neighbour has already settled.

    Shortest-path ties break towards the lowest-numbered predecessor,
    and the tie-break only applies while the target is not yet settled,
    so the predecessor tree is frozen at settlement: the resulting
    [(dist, pred)] rows are a pure function of the graph, independent of
    the queue discipline (the differential suite checks them bit for bit
    against a queue-free scan-minimum oracle). *)

type dist_row = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Flat distance storage, one or more rows of a source-major matrix.
    Bigarray rather than [float array] so the |V|²-sized all-pairs
    matrices live off the OCaml heap: never scanned by the major GC,
    never moved, no initialization cost at allocation. *)

type pred_row =
  (int, Bigarray.int16_signed_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Flat predecessor storage, same layout contract as {!dist_row}, in
    16-bit signed entries: a node id, or [-1] for unreached. Two bytes
    rather than eight, because the bytes a row block allocates are what
    paces the major GC (DESIGN.md §4f). A 16-bit store keeps only the
    low 16 bits of what it is given, so the kernel refuses a graph of
    more than {!max_nodes} nodes instead of wrapping an id. *)

val max_nodes : int
(** 32,767, the largest value a {!pred_row} entry holds: the most nodes
    a graph may have for {!dijkstra} and {!dijkstra_into}. *)

type csr = { row_ptr : int array; targets : int array; weights : float array }
(** The adjacency the kernel reads, in {!Graph}'s CSR layout: the
    neighbours of node [u] occupy slots [row_ptr.(u) .. row_ptr.(u+1) - 1]
    of [targets] and [weights]; [Array.length row_ptr - 1] nodes. *)

val csr : Graph.t -> csr
(** The graph's own CSR arrays (shared, not copied). *)

val alloc_dist_rows : int -> dist_row
(** [alloc_dist_rows len] allocates uninitialized off-heap storage for
    [len] entries. Each {!dijkstra_into} call fully overwrites its own
    row, so no global fill is needed (or performed). *)

val alloc_pred_rows : int -> pred_row

val dijkstra : Graph.t -> src:int -> float array * int array
(** [dijkstra g ~src] returns [(dist, pred)]: [dist.(v)] is the cheapest
    cost from [src] to [v] ([infinity] if unreachable) and [pred.(v)] is
    [v]'s predecessor on one cheapest path ([src] for the source itself,
    [-1] if unreachable). Ties are broken deterministically towards the
    lowest-numbered predecessor, so extracted paths are stable across
    runs. Raises [Invalid_argument] naming {!max_nodes} if [g] has more
    nodes than that, before allocating anything. *)

val dijkstra_into :
  csr ->
  src:int ->
  start:float ->
  dist:dist_row ->
  pred:pred_row ->
  base:int ->
  unit
(** Zero-copy variant for flat all-pairs storage: writes the row into
    [dist.{base} .. dist.{base + n - 1}] (same for [pred]) instead of
    allocating. The search starts at [src] with distance [start], not
    0: a row seeded at a leaf's attachment node with the leaf's link
    weight is, entry for entry, the row Dijkstra from the leaf itself
    computes, since the leaf relaxes nothing but that one link.
    [Cost_matrix] calls this once per stored row on one shared
    Bigarray. Raises [Invalid_argument] if the row does not fit, or if
    the graph has more than {!max_nodes} nodes. *)

val path_from_pred :
  ?base:int -> pred:int array -> src:int -> dst:int -> unit -> int list option
(** Reconstruct the node sequence [src; ...; dst] from a predecessor
    row ([pred.(base + v)], [base] defaults to [0]). [None] when [dst]
    is unreachable — distinct from the one-node path [Some [src]] when
    [src = dst], so callers can no longer confuse "no path" with "empty
    path" (the former [[]] return collapsed both). *)
