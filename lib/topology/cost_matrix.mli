(** All-pairs topology-aware cost model.

    Precomputes [c(u, v)] — the total weight of a cheapest path between any
    two nodes — for the whole PPDC, together with predecessor trees so
    actual paths (needed by VNF migration frontiers) can be extracted.
    This realizes the paper's topology-aware cost model: the communication
    cost of flow [(v_i, v'_i)] is [λ_i · c(s(v_i), s(v'_i))] and migrating
    a VNF from switch [u] to [v] costs [μ · c(u, v)].

    Each row is one run of the {!Shortest_paths} kernel, which
    allocates nothing, so a build's allocation is the two matrices and
    a few words. Memory is Θ(|V|²) in two flat off-heap arrays of row
    stride [num_nodes]; a k=16 fat-tree (1344 nodes) needs ≈ 30 MB. *)

type t

val compute : Graph.t -> t
(** Run Dijkstra ({!Shortest_paths.dijkstra_into}) from every node,
    one row per source over the domain pool. Raises [Invalid_argument]
    if the graph is not connected (a PPDC is always connected). *)

val graph : t -> Graph.t

val id : t -> int
(** A number unique to this matrix value: {!compute}, every repair and
    every derivation below return a new one, even when they share
    storage. Caches keyed by matrix identity hash on it. *)

(** {1 Dynamic repair}

    A dynamic fabric changes by link failures, weight drifts, and link
    repairs — all deltas whose effect on all-pairs shortest paths can
    be localized per source. A source [s] is affected by a {e deletion
    or increase} of edge [(u, v)] iff [s]'s shortest-path tree uses
    that edge, and because every tree edge appears as exactly one
    parent link, that test is O(1) per (source, edge) on the
    predecessor row: [pred(v) = u] or [pred(u) = v]. A {e decrease or
    restored edge} of new weight [w] is in nobody's tree, but it can
    only shorten paths that cross it, so [s] is affected iff the edge
    is competitive against the old distances at either endpoint:
    [dist(s, u) + w <= dist(s, v)] or symmetrically (the [<=] also
    catches equal-cost candidates that would displace the canonical
    predecessor choice). Repair copies the two flat matrices once (the
    parent stays valid — it may still be cached under its own digest)
    and re-runs Dijkstra only for affected rows; unaffected rows are
    byte-identical to the parent's, and the whole result is
    bit-identical to a cold {!compute} on the new graph (differentially
    tested in [test/test_dynamic.ml]).

    Only a node-count or node-kind change is non-localizable:
    {!repair_to} refuses it and the caller falls back to {!compute}
    (see EXTENDING.md). *)

val repair_to : t -> Graph.t -> (t * int) option
(** [repair_to t g'] derives the all-pairs matrix of [g'] from [t]
    when [g'] has the same node count and kinds as [graph t]; any mix
    of deleted, added, and reweighted edges is localized per the tests
    above. Returns the repaired matrix and the number of rows that
    were re-run ([Some (t', 0)] with shared matrix storage when the
    edge lists are identical); [None] on a node/kind mismatch, in
    which case the caller should run a cold {!compute}. Raises
    [Invalid_argument] if [g'] is disconnected (as {!compute}
    would). *)

val delete_edge : t -> u:int -> v:int -> t
(** [delete_edge t ~u ~v] is the matrix of [graph t] minus the edge
    [(u, v)], repairing only the rows whose tree used it. Raises
    [Invalid_argument] if the edge does not exist or its removal
    disconnects the graph. *)

val increase_weight : t -> u:int -> v:int -> weight:float -> t
(** [increase_weight t ~u ~v ~weight] is the matrix of [graph t] with
    edge [(u, v)] reweighted to [weight >=] its current weight.
    Raises [Invalid_argument] if the edge does not exist or [weight]
    is smaller than the current weight (use {!decrease_weight}). *)

val decrease_weight : t -> u:int -> v:int -> weight:float -> t
(** [decrease_weight t ~u ~v ~weight] is the matrix of [graph t] with
    edge [(u, v)] reweighted to [weight <=] its current weight,
    repairing only the rows where the cheaper edge is competitive.
    Raises [Invalid_argument] if the edge does not exist, [weight] is
    not finite positive, or [weight] exceeds the current weight (use
    {!increase_weight}). *)

val restore_edge : t -> u:int -> v:int -> weight:float -> t
(** [restore_edge t ~u ~v ~weight] is the matrix of [graph t] plus the
    edge [(u, v)] at [weight] — the inverse of {!delete_edge}, used
    when a failed link comes back. Only rows where the restored edge
    is competitive are re-run; restoring a just-deleted edge at its
    old weight yields a matrix bit-identical to the pre-deletion one.
    Raises [Invalid_argument] if the edge already exists, [weight] is
    not finite positive, or the edge is invalid for the graph (self
    loop, host-host, out of range). *)

val cost : t -> int -> int -> float
(** [cost t u v] is [c(u, v)]; 0 when [u = v]. *)

val costs : t -> Shortest_paths.dist_row
(** The flat distance matrix itself: [c(u, v)] lives at index
    [u * stride t + v]. Off-heap shared storage for solver hot loops —
    callers must not mutate it. *)

val stride : t -> int
(** Row stride of {!costs} (equals {!num_nodes}). *)

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
