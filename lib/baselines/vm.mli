(** Shared machinery for the VM-migration baselines (PLAN and MCF).

    Each flow contributes two VMs — its source and destination endpoint.
    With the VNF placement fixed at [p], a VM's contribution to [C_a] is
    the attachment leg it is responsible for: [λ_i·c(h, p(1))] for a
    source VM on host [h], [λ_i·c(p(n), h)] for a destination VM. Moving
    a VM between hosts costs [μ_vm·c(h, h')]. Hosts have a slot
    capacity; all VMs have unit size (paper model). *)

type endpoint = Src | Dst

type t = { flow : int;  (** flow id *) endpoint : endpoint }

val all : Ppdc_core.Problem.t -> t array
(** The [2l] VMs of the instance, sources first. *)

val host : Ppdc_traffic.Flow.t array -> t -> int
(** Current host of a VM. *)

val comm_leg :
  Ppdc_core.Problem.t -> rates:float array -> placement:Ppdc_core.Placement.t ->
  vm:t -> at:int -> float
(** The VM's attachment cost if it lived on host [at]. *)

val occupancy : Ppdc_core.Problem.t -> Ppdc_traffic.Flow.t array -> int array
(** VMs per host, indexed by node id (zero for switches). *)

val default_capacity : Ppdc_core.Problem.t -> int
(** Host slot capacity of both VM baselines: twice the average load, but
    at least the current maximum occupancy (so the initial state is
    always feasible). *)

val move : Ppdc_traffic.Flow.t array -> vm:t -> to_host:int -> Ppdc_traffic.Flow.t array
(** Fresh flow array with the VM rehosted. *)

type outcome = {
  flows : Ppdc_traffic.Flow.t array;  (** endpoints after the VM moves *)
  migrations : int;  (** number of VMs that moved *)
  migration_cost : float;  (** [μ_vm · Σ c(old, new)] *)
  comm_cost : float;  (** [C_a] with the new endpoints, placement fixed *)
  total_cost : float;  (** [migration_cost + comm_cost] *)
}
(** Common result type for both VM-migration baselines. *)
