(** PLAN [Cui et al., IEEE TPDS 2017] — policy-aware VM migration
    baseline.

    PLAN reduces dynamic traffic by migrating *VMs* (the VNF placement
    stays fixed): the utility of moving a VM is the reduction of its
    policy-preserving communication cost minus its migration cost, and
    VMs may only move to hosts with spare capacity
    ({!Vm.default_capacity} slots each). We implement the greedy scheme
    the paper compares against: repeatedly apply the highest
    positive-utility move until none remains.

    Because one VM move only improves that flow's own attachment leg —
    whereas one VNF move improves every flow traversing the chain — PLAN
    needs many more migrations for less benefit, which is exactly the
    Fig. 11(a)/(b) comparison. *)

val migrate :
  Ppdc_core.Problem.t ->
  rates:float array ->
  mu_vm:float ->
  placement:Ppdc_core.Placement.t ->
  Vm.outcome
(** Each VM moves at most once. *)
