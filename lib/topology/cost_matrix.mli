(** All-pairs topology-aware cost model.

    Precomputes [c(u, v)] — the total weight of a cheapest path between any
    two nodes — for the whole PPDC, together with predecessor trees so
    actual paths (needed by VNF migration frontiers) can be extracted.
    This realizes the paper's topology-aware cost model: the communication
    cost of flow [(v_i, v'_i)] is [λ_i · c(s(v_i), s(v'_i))] and migrating
    a VNF from switch [u] to [v] costs [μ · c(u, v)].

    The matrix is stored leaf-factored. A leaf is a degree-1 node (every
    fat-tree host, and any pendant switch); no cheapest path passes
    through one, so only the core — the other nodes — gets columns.
    There is one row per core node, plus one per leaf class: the leaves
    with the same attachment node and the same link weight share a row,
    a Dijkstra from the attachment started at that weight. Entries with
    a leaf destination are derived, not stored, and every derived entry
    is bit-identical to the one a dense Dijkstra from the source
    computes. Memory is |core| × (|core| + classes) entries of 10 bytes
    (an 8-byte distance and a 16-bit predecessor), not Θ(|V|²): a unit
    k=32 fat-tree (9472 nodes) needs ≈ 23 MB, a unit k=48 one ≈ 116 MB.
    The 16-bit predecessors bound the core at
    {!Shortest_paths.max_nodes} nodes; unit k=48 has 2880.

    Each row is one run of the {!Shortest_paths} kernel over the core,
    which allocates nothing, so a build's allocation is the two row
    blocks and O(|V| + |E|) words of indexing. *)

type t

val compute : Graph.t -> t
(** Run Dijkstra ({!Shortest_paths.dijkstra_into}) for every stored row,
    over the domain pool. Raises [Invalid_argument] if the graph is not
    connected (a PPDC is always connected), or, before allocating any
    row, if its core has more than {!Shortest_paths.max_nodes} nodes. *)

val graph : t -> Graph.t

val id : t -> int
(** A number unique to this matrix value: {!compute}, every repair and
    every derivation below return a new one, even when they share
    storage. Caches keyed by matrix identity hash on it. *)

(** {1 Dynamic repair}

    A dynamic fabric changes by link failures, weight drifts, and link
    repairs — all deltas whose effect on all-pairs shortest paths can
    be localized per stored row. {!repair_to} is the one way to derive
    a matrix from a changed fabric: the caller builds the new graph (a
    failure filters the edge list, a repair adds the edge back) and
    [repair_to] diffs it against [graph t]. A row is affected by a
    {e deletion or increase} of core edge [(u, v)] iff its
    shortest-path tree uses that edge, and because every tree edge
    appears as exactly one parent link, that test is O(1) per
    (row, edge) on the predecessor row: [pred(v) = u] or
    [pred(u) = v]. A {e decrease or restored edge} of new weight [w]
    is in nobody's tree, but it can only shorten paths that cross it,
    so a row is affected iff the edge is competitive against the old
    distances at either endpoint:
    [dist(u) + w <= dist(v)] or symmetrically (the [<=] also catches
    equal-cost candidates that would displace the canonical
    predecessor choice). Core rows and class rows take the same tests.
    A leaf-link change touches no core row: it re-runs only the class
    rows that no leaf carries over (a class row is kept when one of
    its leaves has the same attachment and weight as before). A delta
    that adds or removes a leaf — an edge added at a leaf, a switch
    left with one link — rebuilds cold. Repair never mutates the
    parent (it may still be cached under its own digest); unaffected
    rows are byte-identical to the parent's, and the whole result is
    bit-identical to a cold {!compute} on the new graph
    (differentially tested in [test/test_dynamic.ml]).

    Only a node-count or node-kind change is refused: {!repair_to}
    returns [None] and the caller falls back to {!compute} (see
    EXTENDING.md). *)

val repair_to : t -> Graph.t -> (t * int) option
(** [repair_to t g'] derives the all-pairs matrix of [g'] from [t]
    when [g'] has the same node count and kinds as [graph t]; any mix
    of deleted, added, and reweighted edges is localized per the tests
    above. Returns the repaired matrix and the number of stored rows
    that were run ([Some (t', 0)] with shared storage when the edge
    lists are identical; [Some (t', num_rows t')] when the leaf set
    changed and the matrix was rebuilt); [None] on a node/kind
    mismatch, in which case the caller should run a cold {!compute}.
    Raises [Invalid_argument] if [g'] is disconnected or its core too
    large (as {!compute} would). *)

val cost : t -> int -> int -> float
(** [cost t u v] is [c(u, v)]; 0 when [u = v]. *)

(** {1 Stored rows, for hot loops} *)

type rows = private {
  dist : Shortest_paths.dist_row;
      (** the stored rows, row-major, one entry per core node *)
  base : int array;  (** [base.(u)]: offset in [dist] of [u]'s row *)
  col : int array;
      (** [col.(v)]: [v]'s column, or its attachment's for a leaf *)
  leaf : float array;  (** [leaf.(v)]: [v]'s leaf-link weight; 0 in the core *)
}
(** The matrix's own storage, indexed by node id. For [u <> v],
    [cost t u v] is [dist.{base.(u) + col.(v)} +. leaf.(v)], bit for
    bit. Solver loops that read many entries fetch [base], [col] and
    [leaf] for their fixed endpoints once, outside the loop: the lookup
    costs more than a dense [u * n + v]. Shared storage — callers must
    not mutate it. *)

val rows : t -> rows

val num_rows : t -> int
(** Stored rows: one per core node plus one per leaf class. *)

val path : t -> src:int -> dst:int -> int list
(** Node sequence of one cheapest path, inclusive of both endpoints;
    [[src]] when [src = dst]. Deterministic for a given graph. *)

val switch_path : t -> src:int -> dst:int -> int list
(** [path] restricted to switch nodes. When both endpoints are switches
    this is the sequence [S_j] of Definition 1 (VNF migration frontiers):
    the switches a VNF passes while migrating from [src] to [dst]. *)

val hop_count : t -> src:int -> dst:int -> int
(** Number of edges on the extracted cheapest path: 0 exactly when
    [src = dst]. (Unreachable pairs cannot occur — {!compute} rejects
    disconnected graphs — so 0 is no longer an ambiguous sentinel.) *)

val diameter : t -> float
(** Greatest cost between any pair of nodes (the [D] in Algo. 5's
    complexity bound). *)

val num_nodes : t -> int
