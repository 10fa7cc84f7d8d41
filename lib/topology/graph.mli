(** Undirected weighted PPDC graph.

    A policy-preserving data center is modelled as [G(V, E)] with
    [V = V_h ∪ V_s]: hosts (where VMs live) and switches (each of which has
    an attached server able to run one VNF). Edges connect a switch to a
    switch or a switch to a host, and carry a positive weight — the
    network-delay or energy cost of one unit of traffic crossing the link
    (Section III of the paper).

    Node identifiers are dense integers [0 .. num_nodes - 1]. The structure
    is immutable once built.

    Internally the adjacency is a flat CSR (compressed sparse row)
    layout — one [row_ptr] index array plus parallel [targets]/[weights]
    arrays — so whole-graph sweeps (Dijkstra per source) touch memory
    linearly. The {!csr_row_ptr}/{!csr_targets}/{!csr_weights} accessors
    expose the raw arrays to hot paths; see DESIGN.md "Memory layout". *)

type node_kind = Host | Switch

type t

val make : kinds:node_kind array -> edges:(int * int * float) list -> t
(** [make ~kinds ~edges] builds a graph whose node [i] has kind
    [kinds.(i)], with the given undirected weighted edges.

    Raises [Invalid_argument] if an edge is a self-loop, has a
    non-positive weight, references an out-of-range node, connects two
    hosts (hosts attach only to switches in a PPDC), or appears twice. *)

val num_nodes : t -> int
val num_edges : t -> int
val num_hosts : t -> int
val num_switches : t -> int

val kind : t -> int -> node_kind
val is_host : t -> int -> bool
val is_switch : t -> int -> bool

val hosts : t -> int array
(** Host node ids in increasing order. The returned array is fresh. *)

val switches : t -> int array
(** Switch node ids in increasing order. The returned array is fresh. *)

val degree : t -> int -> int

val iter_neighbors : t -> int -> (int -> float -> unit) -> unit
(** [iter_neighbors g u f] calls [f v w] for every edge [(u, v)] of
    weight [w]. *)

val edge_weight : t -> int -> int -> float option
(** Weight of the edge between two nodes, if present. *)

val edges : t -> (int * int * float) list
(** All edges, each reported once with endpoints in increasing order,
    sorted. *)

val edge : t -> int -> int * int * float
(** [edge g i] is the [i]-th element of {!edges}, for
    [0 <= i < num_edges g], without building the list. *)

val csr_row_ptr : t -> int array
(** CSR row index: the neighbours of [u] occupy slots
    [csr_row_ptr g.(u) .. csr_row_ptr g.(u+1) - 1] of {!csr_targets} and
    {!csr_weights}. Length [num_nodes g + 1]. The returned array is the
    graph's own storage — callers must not mutate it. *)

val csr_targets : t -> int array
(** CSR neighbour array (length [2 · num_edges g]), parallel to
    {!csr_weights}. Shared storage — do not mutate. *)

val csr_weights : t -> float array
(** CSR weight array, parallel to {!csr_targets}. Shared storage — do
    not mutate. *)

val map_weights : t -> (int -> int -> float -> float) -> t
(** [map_weights g f] is [g] with each edge [(u, v, w)], [u < v], carrying
    weight [f u v w] instead. Used to turn an unweighted (unit-cost)
    topology into a weighted one, e.g. uniform link delays. Raises
    [Invalid_argument] if [f] produces a non-positive weight. *)

val digest : t -> string
(** Structural fingerprint (hex MD5) over node kinds, edges and edge
    weights. Independent of the order edges were passed to {!make} (the
    edge list is canonicalized at build time), so two graphs built from
    the same node/edge data always agree; changing a single weight —
    weights hash by IEEE bit pattern — or any node kind or edge changes
    the digest. [Ppdc_server] uses this as the cache key for all-pairs
    cost matrices. *)

val pp : Format.formatter -> t -> unit
(** One-line structural summary for logs. *)
