(** Graphviz (DOT) export of PPDC topologies.

    For documentation and debugging: switches render as boxes, hosts as
    ellipses. Pipe through [dot -Tsvg] / [neato -Tpng] to render. *)

val of_graph : Graph.t -> string
(** [of_graph g] is a complete [graph { ... }] document. Nodes are
    labelled [sN] for switches and [hN] for hosts, numbered within their
    kind; edge labels show non-unit weights. *)
