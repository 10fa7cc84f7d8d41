open Ppdc_core
module Graph = Ppdc_topology.Graph
module Mcf = Ppdc_mcf.Min_cost_flow

let migrate problem ~rates ~mu_vm ~placement ?(candidate_limit = 64) () =
  Placement.validate problem placement;
  let capacity = Vm.default_capacity problem in
  let vms = Vm.all problem in
  let hosts = Graph.hosts (Problem.graph problem) in
  let flows = Problem.flows problem in
  let num_vms = Array.length vms in
  let num_hosts = Array.length hosts in
  (* Node layout: 0 = source, 1..num_vms = VMs, then hosts, then sink. *)
  let host_node = Hashtbl.create num_hosts in
  Array.iteri (fun i h -> Hashtbl.add host_node h (1 + num_vms + i)) hosts;
  let sink = 1 + num_vms + num_hosts in
  let net = Mcf.create ~num_nodes:(sink + 1) in
  (* Supply arcs and per-VM host candidates. *)
  let vm_arcs =
    Array.mapi
      (fun i vm ->
        ignore (Mcf.add_arc net ~src:0 ~dst:(1 + i) ~capacity:1 ~cost:0.0);
        let from_host = Vm.host flows vm in
        let score to_host =
          Vm.comm_leg problem ~rates ~placement ~vm ~at:to_host
          +. (mu_vm *. Problem.cost problem from_host to_host)
        in
        let ranked =
          Array.to_list hosts
          |> List.map (fun h -> (score h, h))
          |> List.sort (fun (a, ha) (b, hb) ->
                 match Float.compare a b with
                 | 0 -> Int.compare ha hb
                 | c -> c)
        in
        let shortlist =
          let rec take k = function
            | [] -> []
            | _ when k = 0 -> []
            | x :: rest -> x :: take (k - 1) rest
          in
          take candidate_limit ranked
        in
        let shortlist =
          if List.exists (fun (_, h) -> h = from_host) shortlist then shortlist
          else (score from_host, from_host) :: shortlist
        in
        List.map
          (fun (cost, h) ->
            let arc =
              Mcf.add_arc net ~src:(1 + i) ~dst:(Hashtbl.find host_node h)
                ~capacity:1 ~cost
            in
            (arc, h))
          shortlist)
      vms
  in
  Array.iter
    (fun h ->
      ignore
        (Mcf.add_arc net ~src:(Hashtbl.find host_node h) ~dst:sink
           ~capacity ~cost:0.0))
    hosts;
  let result = Mcf.solve net ~source:0 ~sink in
  if result.flow <> num_vms then
    invalid_arg "Mcf_migration.migrate: could not place every VM (capacity too tight)";
  (* Read the assignment back. *)
  let new_flows = ref flows in
  let migrations = ref 0 in
  let migration_cost = ref 0.0 in
  Array.iteri
    (fun i vm ->
      let assigned =
        List.find_opt (fun (arc, _) -> Mcf.flow_on net arc = 1) vm_arcs.(i)
      in
      match assigned with
      | None -> assert false
      | Some (_, to_host) ->
          let from_host = Vm.host flows vm in
          if to_host <> from_host then begin
            new_flows := Vm.move !new_flows ~vm ~to_host;
            incr migrations;
            migration_cost :=
              !migration_cost +. (mu_vm *. Problem.cost problem from_host to_host)
          end)
    vms;
  let moved_problem = Problem.with_flows problem !new_flows in
  let comm_cost = Cost.comm_cost moved_problem ~rates placement in
  {
    Vm.flows = !new_flows;
    migrations = !migrations;
    migration_cost = !migration_cost;
    comm_cost;
    total_cost = !migration_cost +. comm_cost;
  }
