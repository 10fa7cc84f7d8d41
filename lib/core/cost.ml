module Flow = Ppdc_traffic.Flow
module Cost_matrix = Ppdc_topology.Cost_matrix

type attach = {
  a_in : float array;
  a_out : float array;
  total_rate : float;
}

let check_rates problem rates =
  if Array.length rates <> Problem.num_flows problem then
    invalid_arg "Cost: rate vector length mismatch";
  Array.iter
    (fun r ->
      if r < 0.0 || not (Float.is_finite r) then
        invalid_arg "Cost: rates must be finite and non-negative")
    rates

(* Flows outside, switches inside, on the flat cost rows. Each
   [a_in.(s)]/[a_out.(s)] must add its flows in flow order: float sums
   depend on order, and the placement answers are pinned bit for bit.
   [a_out] reads c(s, dst), not c(dst, s): on weighted fabrics the two
   can differ in the last bit. *)
let attach problem ~rates =
  check_rates problem rates;
  let cm = Problem.cm problem in
  let costs = Cost_matrix.costs cm and stride = Cost_matrix.stride cm in
  let a_in = Array.make (Cost_matrix.num_nodes cm) 0.0 in
  let a_out = Array.make (Cost_matrix.num_nodes cm) 0.0 in
  let switches = Problem.switches problem in
  Array.iter
    (fun (f : Flow.t) ->
      let rate = rates.(f.id) in
      let src_row = f.src_host * stride and dst = f.dst_host in
      for j = 0 to Array.length switches - 1 do
        let s = switches.(j) in
        a_in.(s) <- a_in.(s) +. (rate *. costs.{src_row + s});
        a_out.(s) <- a_out.(s) +. (rate *. costs.{(s * stride) + dst})
      done)
    (Problem.flows problem);
  { a_in; a_out; total_rate = Flow.total_rate rates }

let chain_cost problem p =
  let acc = ref 0.0 in
  for j = 0 to Array.length p - 2 do
    acc := !acc +. Problem.cost problem p.(j) p.(j + 1)
  done;
  !acc

let comm_cost_with_attach problem att p =
  let n = Array.length p in
  att.a_in.(p.(0)) +. (att.total_rate *. chain_cost problem p)
  +. att.a_out.(p.(n - 1))

let comm_cost problem ~rates p =
  check_rates problem rates;
  let flows = Problem.flows problem in
  let n = Array.length p in
  let internal = chain_cost problem p in
  Array.fold_left
    (fun acc (f : Flow.t) ->
      let rate = rates.(f.id) in
      acc
      +. (rate
          *. (Problem.cost problem f.src_host p.(0)
              +. internal
              +. Problem.cost problem p.(n - 1) f.dst_host)))
    0.0 flows

let migration_cost problem ~mu ~src ~dst =
  if Array.length src <> Array.length dst then
    invalid_arg "Cost.migration_cost: placement length mismatch";
  if mu < 0.0 then invalid_arg "Cost.migration_cost: negative mu";
  let acc = ref 0.0 in
  for j = 0 to Array.length src - 1 do
    acc := !acc +. Problem.cost problem src.(j) dst.(j)
  done;
  mu *. !acc

let total_cost problem ~rates ~mu ~src ~dst =
  migration_cost problem ~mu ~src ~dst +. comm_cost problem ~rates dst

let moved ~src ~dst =
  if Array.length src <> Array.length dst then
    invalid_arg "Cost.moved: placement length mismatch";
  let count = ref 0 in
  Array.iteri (fun j s -> if s <> dst.(j) then incr count) src;
  !count
