open Ppdc_core
module Graph = Ppdc_topology.Graph

let validate problem ~capacity p =
  if capacity < 1 then invalid_arg "Capacity.validate: capacity must be >= 1";
  let n = Problem.n problem in
  if Array.length p <> n then
    invalid_arg
      (Printf.sprintf "Capacity.validate: length %d, expected %d"
         (Array.length p) n);
  let g = Problem.graph problem in
  let uses = Hashtbl.create n in
  Array.iter
    (fun s ->
      if s < 0 || s >= Graph.num_nodes g || not (Graph.is_switch g s) then
        invalid_arg (Printf.sprintf "Capacity.validate: %d is not a switch" s);
      let count = Option.value (Hashtbl.find_opt uses s) ~default:0 in
      if count >= capacity then
        invalid_arg
          (Printf.sprintf "Capacity.validate: switch %d over capacity %d" s
             capacity);
      Hashtbl.replace uses s (count + 1))
    p

let is_valid problem ~capacity p =
  match validate problem ~capacity p with
  | () -> true
  | exception Invalid_argument _ -> false

type outcome = {
  placement : Placement.t;
  cost : float;
  blocks : int;
}

(* Expand [q] block switches into an n-slot placement: the first blocks
   get [capacity] VNFs, the last one the remainder. *)
let expand ~n ~capacity blocks =
  let q = Array.length blocks in
  let placement = Array.make n (-1) in
  let position = ref 0 in
  Array.iteri
    (fun b s ->
      let width = if b = q - 1 then n - !position else min capacity (n - !position) in
      for _ = 1 to width do
        placement.(!position) <- s;
        incr position
      done)
    blocks;
  assert (!position = n);
  placement

let solve problem ~rates ~capacity =
  if capacity < 1 then invalid_arg "Capacity.solve: capacity must be >= 1";
  let n = Problem.n problem in
  let q = (n + capacity - 1) / capacity in
  let reduced = Problem.with_n problem q in
  let dp = Placement_dp.solve reduced ~rates () in
  let placement = expand ~n ~capacity dp.placement in
  {
    placement;
    cost = Cost.comm_cost problem ~rates placement;
    blocks = q;
  }

(* Node budget of [solve_optimal]'s search. *)
let budget = 5_000_000

let solve_optimal problem ~rates ~capacity =
  if capacity < 1 then invalid_arg "Capacity.solve_optimal: capacity must be >= 1";
  let att = Cost.attach problem ~rates in
  let switches = Problem.switches problem in
  let n = Problem.n problem in
  let d u v = Problem.cost problem u v in
  let lambda = att.total_rate in
  (* Seed with the block reduction. *)
  let seed = solve problem ~rates ~capacity in
  let best_cost = ref seed.cost in
  let best = ref (Array.copy seed.placement) in
  let uses = Hashtbl.create n in
  let chosen = Array.make n (-1) in
  let explored = ref 0 in
  let exhausted = ref false in
  let min_a_out =
    Array.fold_left (fun acc s -> Float.min acc att.a_out.(s)) infinity switches
  in
  let rec dfs depth partial =
    if !explored >= budget then exhausted := true
    else begin
      incr explored;
      if depth = n then begin
        let total = partial +. att.a_out.(chosen.(n - 1)) in
        if total < !best_cost then begin
          best_cost := total;
          best := Array.copy chosen
        end
      end
      else
        (* No sibling ordering/cutoff here: the search certifies the
           reduction on small instances, so clarity wins over speed. *)
        Array.iter
          (fun x ->
            if not !exhausted then begin
              let count = Option.value (Hashtbl.find_opt uses x) ~default:0 in
              if count < capacity then begin
                let partial' =
                  if depth = 0 then att.a_in.(x)
                  else partial +. (lambda *. d chosen.(depth - 1) x)
                in
                if partial' +. min_a_out < !best_cost then begin
                  Hashtbl.replace uses x (count + 1);
                  chosen.(depth) <- x;
                  dfs (depth + 1) partial';
                  if count = 0 then Hashtbl.remove uses x
                  else Hashtbl.replace uses x count
                end
              end
            end)
          switches
    end
  in
  dfs 0 0.0;
  let distinct =
    Array.to_list !best |> List.sort_uniq Int.compare |> List.length
  in
  ( { placement = !best; cost = !best_cost; blocks = distinct },
    not !exhausted )
