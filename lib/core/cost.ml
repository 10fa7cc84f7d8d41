module Flow = Ppdc_traffic.Flow
module Cost_matrix = Ppdc_topology.Cost_matrix
module Obs = Ppdc_prelude.Obs

type attach = {
  a_in : float array;
  a_out : float array;
  total_rate : float;
}

(* Index loops rather than [Array.iter]/[Array.fold_left]: a float
   handed to or returned from a closure is boxed. *)
let check_rates problem rates =
  if Array.length rates <> Problem.num_flows problem then
    invalid_arg "Cost: rate vector length mismatch";
  for i = 0 to Array.length rates - 1 do
    let r = rates.(i) in
    if r < 0.0 || not (Float.is_finite r) then
      invalid_arg "Cost: rates must be finite and non-negative"
  done

(* Switches outside, flows inside, on the matrix's stored rows
   ([Cost_matrix.rows]): each flow's row offset, destination column,
   destination leaf weight and rate are read once, before the switch
   loop, and each switch's sums run in registers. Each
   [a_in.(s)]/[a_out.(s)] adds its flows in flow order: float sums
   depend on order, and the placement answers are pinned bit for bit.
   [a_out] reads c(s, dst), not c(dst, s): on weighted fabrics the two
   can differ in the last bit. A host is never a switch, so no pair
   here is a node with itself. The rows are zeroed first, so a reused
   row reads 0.0 off the candidates, as a fresh one does. *)
let attach_into problem ~rates ~a_in ~a_out =
  check_rates problem rates;
  let cm = Problem.cm problem in
  let nodes = Cost_matrix.num_nodes cm in
  if Array.length a_in <> nodes || Array.length a_out <> nodes then
    invalid_arg "Cost.attach_into: rows must have one entry per node";
  Obs.incr "cost.attach";
  Array.fill a_in 0 nodes 0.0;
  Array.fill a_out 0 nodes 0.0;
  let r = Cost_matrix.rows cm in
  let dist = r.dist in
  let flows = Problem.flows problem in
  let l = Array.length flows in
  let f_src = Array.make l 0 and f_dst = Array.make l 0 in
  let f_leaf = Array.make l 0.0 and f_rate = Array.make l 0.0 in
  for i = 0 to l - 1 do
    let f = flows.(i) in
    f_src.(i) <- r.base.(f.src_host);
    f_dst.(i) <- r.col.(f.dst_host);
    f_leaf.(i) <- r.leaf.(f.dst_host);
    f_rate.(i) <- rates.(f.id)
  done;
  let switches = Problem.switches problem in
  for j = 0 to Array.length switches - 1 do
    let s = switches.(j) in
    let base = r.base.(s) and col = r.col.(s) and leaf = r.leaf.(s) in
    let sum_in = ref 0.0 and sum_out = ref 0.0 in
    (* Unchecked reads: [i < l], the length of the four flow arrays;
       [f_src.(i)] and [base] are row offsets and [f_dst.(i)] and [col]
       columns of [r], read above with checks, and any row offset plus
       any column indexes inside [dist]. *)
    for i = 0 to l - 1 do
      let rate = Array.unsafe_get f_rate i in
      sum_in :=
        !sum_in
        +. rate
           *. (Bigarray.Array1.unsafe_get dist (Array.unsafe_get f_src i + col)
              +. leaf);
      sum_out :=
        !sum_out
        +. rate
           *. (Bigarray.Array1.unsafe_get dist (base + Array.unsafe_get f_dst i)
              +. Array.unsafe_get f_leaf i)
    done;
    a_in.(s) <- !sum_in;
    a_out.(s) <- !sum_out
  done;
  { a_in; a_out; total_rate = Flow.total_rate rates }

let attach problem ~rates =
  let nodes = Cost_matrix.num_nodes (Problem.cm problem) in
  attach_into problem ~rates ~a_in:(Array.make nodes 0.0)
    ~a_out:(Array.make nodes 0.0)

(* [c(u, v)] off the stored rows, so no float crosses a call. *)
let[@inline] hop (r : Cost_matrix.rows) u v =
  if u = v then 0.0 else r.dist.{r.base.(u) + r.col.(v)} +. r.leaf.(v)

let chain_cost problem p =
  let r = Cost_matrix.rows (Problem.cm problem) in
  let acc = ref 0.0 in
  for j = 0 to Array.length p - 2 do
    acc := !acc +. hop r p.(j) p.(j + 1)
  done;
  !acc

let comm_cost_with_attach problem att p =
  let n = Array.length p in
  att.a_in.(p.(0)) +. (att.total_rate *. chain_cost problem p)
  +. att.a_out.(p.(n - 1))

let comm_cost problem ~rates p =
  check_rates problem rates;
  let r = Cost_matrix.rows (Problem.cm problem) in
  let flows = Problem.flows problem in
  let first = p.(0) and last = p.(Array.length p - 1) in
  let internal = chain_cost problem p in
  let acc = ref 0.0 in
  for i = 0 to Array.length flows - 1 do
    let f = flows.(i) in
    acc :=
      !acc
      +. rates.(f.id)
         *. (hop r f.src_host first +. internal +. hop r last f.dst_host)
  done;
  !acc

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
