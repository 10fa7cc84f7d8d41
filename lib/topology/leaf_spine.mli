(** Two-tier leaf–spine (folded Clos) data-center topology.

    The dominant modern alternative to the fat-tree: [leaves] top-of-rack
    switches each connect to every one of the [spines] switches, and each
    leaf carries [hosts_per_leaf] hosts. Any two hosts in different racks
    are exactly four hops apart (host–leaf–spine–leaf–host), which makes
    leaf–spine a useful stress case for the placement algorithms: unlike
    a fat-tree there is no "core equidistance" tier — spines are 2 hops
    from every host, leaves are 1 hop from their own rack and 3 from the
    rest. The paper's problems and solutions "apply to any data center
    topology"; this builder (and {!Random_topology}) back that claim in
    tests. *)

type t = {
  graph : Graph.t;
  spines : int array;
  leaves : int array;
  hosts : int array;  (** grouped by leaf *)
}

val build :
  ?weight:(int -> int -> float) ->
  spines:int ->
  leaves:int ->
  hosts_per_leaf:int ->
  unit ->
  t
(** [build ~spines ~leaves ~hosts_per_leaf ()] constructs the fabric
    with [weight u v] on each link (default constant 1.0). Raises
    [Invalid_argument] if any count is < 1. *)

val leaf_of_host : t -> int -> int
(** The leaf (rack) switch a host attaches to. *)
