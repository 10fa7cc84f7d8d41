open Ppdc_core
module Graph = Ppdc_topology.Graph

(* A VM's utility for a target host is independent of where other VMs sit
   (only its own attachment leg changes), so the "repeatedly apply the
   best positive-utility move" greedy reaches the same fixed point as:
   give each VM, in descending order of its best utility, the best
   still-feasible host. That is how we implement it — one O(l·|V_h|)
   scoring pass instead of one per move. *)
let migrate problem ~rates ~mu_vm ~placement =
  Placement.validate problem placement;
  (* A NaN rate would poison every utility and let the descending sort
     order candidates arbitrarily; fail loudly instead of migrating on
     garbage. *)
  Array.iteri
    (fun i r ->
      if Float.is_nan r then
        invalid_arg (Printf.sprintf "Plan.migrate: NaN rate for flow %d" i))
    rates;
  let capacity = Vm.default_capacity problem in
  let vms = Vm.all problem in
  let hosts = Graph.hosts (Problem.graph problem) in
  let flows = ref (Problem.flows problem) in
  let occ = Vm.occupancy problem !flows in
  (* Candidate list per VM: (utility, host), positive utilities only,
     best first. *)
  let candidates vm =
    let from_host = Vm.host !flows vm in
    let here = Vm.comm_leg problem ~rates ~placement ~vm ~at:from_host in
    let options = ref [] in
    Array.iter
      (fun to_host ->
        if to_host <> from_host then begin
          let there = Vm.comm_leg problem ~rates ~placement ~vm ~at:to_host in
          let utility =
            here -. there -. (mu_vm *. Problem.cost problem from_host to_host)
          in
          if utility > 1e-12 then options := (utility, to_host) :: !options
        end)
      hosts;
    List.sort (fun (a, _) (b, _) -> Float.compare b a) !options
  in
  let scored =
    Array.to_list vms
    |> List.filter_map (fun vm ->
           match candidates vm with
           | [] -> None
           | (u, _) :: _ as options -> Some (u, vm, options))
    |> List.sort (fun (a, _, _) (b, _, _) -> Float.compare b a)
  in
  let migration_cost = ref 0.0 in
  let migrations = ref 0 in
  List.iter
    (fun (_, vm, options) ->
      let from_host = Vm.host !flows vm in
      match
        List.find_opt (fun (_, to_host) -> occ.(to_host) < capacity) options
      with
      | None -> ()
      | Some (_, to_host) ->
          flows := Vm.move !flows ~vm ~to_host;
          occ.(from_host) <- occ.(from_host) - 1;
          occ.(to_host) <- occ.(to_host) + 1;
          migration_cost :=
            !migration_cost +. (mu_vm *. Problem.cost problem from_host to_host);
          incr migrations)
    scored;
  let moved_problem = Problem.with_flows problem !flows in
  let comm_cost = Cost.comm_cost moved_problem ~rates placement in
  {
    Vm.flows = !flows;
    migrations = !migrations;
    migration_cost = !migration_cost;
    comm_cost;
    total_cost = !migration_cost +. comm_cost;
  }
