(** Graphviz (DOT) export of PPDC topologies.

    For documentation and debugging: switches render as boxes, hosts as
    ellipses, and an optional highlight set (e.g. the switches of a VNF
    placement) is filled. Pipe through [dot -Tsvg] / [neato -Tpng] to
    render. *)

val of_graph :
  ?highlight:int list ->
  Graph.t ->
  string
(** [of_graph g] is a complete [graph { ... }] document. [highlight]
    fills the listed nodes. Nodes are labelled [sN] for switches and
    [hN] for hosts, numbered within their kind; edge labels show
    non-unit weights. *)
