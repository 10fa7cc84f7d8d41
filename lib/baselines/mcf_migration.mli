(** MCF [Flores et al., INFOCOM 2020] — min-cost-flow VM migration
    baseline.

    Flores et al. observe that "minimize total VM communication +
    migration cost" with unit-size VMs and host slot capacities is a
    minimum-cost-flow problem: one unit of supply per VM, an arc to each
    candidate host costing that VM's attachment leg there plus its
    migration cost, and capacity arcs from hosts to the sink. We solve
    it with the {!Ppdc_mcf.Min_cost_flow} substrate; because the flow is
    integral, the solution is a globally cost-minimal reassignment of
    VMs to hosts — strictly stronger than PLAN's greedy, but still
    limited to moving VMs while the VNFs stay put.

    For large PPDCs each VM's arcs are restricted to its
    [candidate_limit] cheapest hosts (plus its current host); with the
    default of 64 this is lossless in practice since a cost-optimal
    assignment never uses a host that is dominated by dozens of closer
    ones, and keeps the network size linear in [l]. *)

val migrate :
  Ppdc_core.Problem.t ->
  rates:float array ->
  mu_vm:float ->
  placement:Ppdc_core.Placement.t ->
  ?candidate_limit:int ->
  unit ->
  Vm.outcome
(** Hosts have {!Vm.default_capacity} slots each; [candidate_limit]
    defaults to 64. *)
