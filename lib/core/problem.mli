(** A TOP/TOM problem instance.

    Bundles what every placement and migration algorithm needs: the PPDC
    cost matrix, the VM flows (their host endpoints), and the SFC length
    [n]. The traffic-rate vector [λ] is passed separately to each
    algorithm call because it changes over time in a dynamic PPDC.

    An instance may restrict the candidate switches VNFs can rest on
    (default: every switch of the graph) — the multi-SFC extension uses
    this to keep concurrent chains off each other's switches. Transit is
    never restricted; only placement is. *)

type t

val make :
  ?switch_candidates:int array ->
  cm:Ppdc_topology.Cost_matrix.t ->
  flows:Ppdc_traffic.Flow.t array ->
  n:int ->
  unit ->
  t
(** Raises [Invalid_argument] if [n < 1], if [n] exceeds the number of
    candidate switches (each VNF needs its own switch), if there are no
    flows, if a flow endpoint is not a host of the graph (an id outside
    its nodes included), or if a
    candidate is not a switch / appears twice. *)

val cm : t -> Ppdc_topology.Cost_matrix.t
val graph : t -> Ppdc_topology.Graph.t
val flows : t -> Ppdc_traffic.Flow.t array
val n : t -> int
(** Chain length. *)

val num_flows : t -> int

val switches : t -> int array
(** Candidate switches for VNF placement (fresh array). *)

val is_candidate : t -> int -> bool
(** Whether a node is a candidate switch; O(1). *)

val cost : t -> int -> int -> float
(** Shortcut for [Cost_matrix.cost (cm t)]. *)

val with_n : t -> int -> t
(** Same instance with a different chain length. *)

val with_flows : t -> Ppdc_traffic.Flow.t array -> t
(** Same instance with different flows (e.g. after VM migration by the
    PLAN/MCF baselines). *)

val with_switches : t -> int array -> t
(** Same instance restricted to the given candidate switches. *)

val with_cm : t -> Ppdc_topology.Cost_matrix.t -> t
(** Same instance on a different cost matrix (e.g. after a link
    failure or repair re-derived it). Candidate switches and flow
    endpoints are re-validated against the new graph, so the matrix
    must cover the same node ids and kinds. *)
