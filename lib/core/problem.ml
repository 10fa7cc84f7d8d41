module Cost_matrix = Ppdc_topology.Cost_matrix
module Graph = Ppdc_topology.Graph
module Flow = Ppdc_traffic.Flow

type t = {
  cm : Cost_matrix.t;
  flows : Flow.t array;
  n : int;
  switch_ids : int array;
  candidate : (int, unit) Hashtbl.t;
}

(* The node-kind lookups index by id, so an id is range-checked first. *)
let in_range g v = v >= 0 && v < Graph.num_nodes g
let is_host g v = in_range g v && Graph.is_host g v

let validate cm flows n switch_ids =
  let g = Cost_matrix.graph cm in
  if n < 1 then invalid_arg "Problem.make: chain length must be positive";
  if n > Array.length switch_ids then
    invalid_arg "Problem.make: more VNFs than candidate switches";
  if Array.length flows = 0 then invalid_arg "Problem.make: no flows";
  Array.iter
    (fun (f : Flow.t) ->
      if not (is_host g f.src_host && is_host g f.dst_host) then
        invalid_arg
          (Printf.sprintf "Problem.make: flow %d endpoint is not a host" f.id))
    flows;
  let seen = Hashtbl.create (Array.length switch_ids) in
  Array.iter
    (fun s ->
      if not (in_range g s && Graph.is_switch g s) then
        invalid_arg
          (Printf.sprintf "Problem.make: candidate %d is not a switch" s);
      if Hashtbl.mem seen s then
        invalid_arg (Printf.sprintf "Problem.make: duplicate candidate %d" s);
      Hashtbl.add seen s ())
    switch_ids;
  seen

let build cm flows n switch_ids =
  let candidate = validate cm flows n switch_ids in
  { cm; flows = Array.copy flows; n; switch_ids = Array.copy switch_ids; candidate }

let make ?switch_candidates ~cm ~flows ~n () =
  let switch_ids =
    match switch_candidates with
    | Some c -> c
    | None -> Graph.switches (Cost_matrix.graph cm)
  in
  build cm flows n switch_ids

let cm t = t.cm
let graph t = Cost_matrix.graph t.cm
let flows t = t.flows
let n t = t.n
let num_flows t = Array.length t.flows
let switches t = Array.copy t.switch_ids
let is_candidate t s = Hashtbl.mem t.candidate s
let[@inline] cost t u v = Cost_matrix.cost t.cm u v

let with_n t n = build t.cm t.flows n t.switch_ids

let with_flows t flows = build t.cm flows t.n t.switch_ids

let with_cm t cm = build cm t.flows t.n t.switch_ids

let with_switches t switch_ids = build t.cm t.flows t.n switch_ids
