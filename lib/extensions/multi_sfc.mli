(** Future-work extension: different VM flows request different SFCs.

    The paper assumes a single SFC shared by all flows and lists
    per-flow chains as future work. Here a PPDC hosts several chains at
    once; each flow is bound to one chain, every chain's VNFs occupy
    their own switches (one VNF per switch, chains may not share a
    switch), and the total cost is the sum of Eq. 1 over the chains'
    flow populations.

    Placement is sequential by traffic weight: chains are placed in
    descending order of their total traffic rate, each with Algo. 3
    restricted to the switches still free — the heaviest chain gets the
    pick of the fabric. Migration runs mPareto per chain under the same
    exclusion discipline. *)

type spec = {
  chains : Ppdc_core.Chain.t array;
  assignment : int array;
      (** [assignment.(i)] is the chain index of flow [i] *)
}

type t

val make :
  cm:Ppdc_topology.Cost_matrix.t ->
  flows:Ppdc_traffic.Flow.t array ->
  spec:spec ->
  t
(** Raises [Invalid_argument] if an assignment index is out of range, if
    the chains jointly need more switches than exist, or [flows] is
    empty. *)

val flows_of_chain : t -> int -> Ppdc_traffic.Flow.t array
(** The flows bound to a chain (their ids keep indexing the global rate
    vector). *)

type placement = Ppdc_core.Placement.t array
(** One placement per chain, indexed like [spec.chains]. *)

val validate : t -> placement -> unit
(** Every chain placed on distinct switches and no switch shared across
    chains. *)

val total_cost : t -> rates:float array -> placement -> float
(** Σ over chains of Eq. 1 restricted to that chain's flows. *)

type outcome = { placement : placement; cost : float }

val place : t -> rates:float array -> outcome
(** Traffic-weighted sequential DP placement. *)

val migrate :
  t ->
  rates:float array ->
  mu:float ->
  current:placement ->
  outcome * float * int
(** Per-chain mPareto under cross-chain exclusion; returns the new
    placements, the total cost including migration ([C_b + C_a] summed
    over chains), the migration cost alone, and the number of VNF moves
    — as [(outcome, migration_cost, moves)] where [outcome.cost] is the
    total [C_t]. *)
