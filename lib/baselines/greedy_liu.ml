open Ppdc_core
module Cost_matrix = Ppdc_topology.Cost_matrix

type outcome = { placement : Placement.t; cost : float }

let place problem ~rates =
  let att = Cost.attach problem ~rates in
  let switches = Problem.switches problem in
  let k = Array.length switches in
  let n = Problem.n problem in
  (* Average distance from each switch to all switches: the "weighted
     average delay of all unplaced MBs" proxy. Summed straight off the
     matrix's stored rows in a loop-local accumulator, with each
     switch's column and leaf weight read once, so no float is boxed. *)
  let cm = Problem.cm problem in
  let r = Cost_matrix.rows cm in
  let dist = r.dist in
  let cols = Array.map (fun s -> r.col.(s)) switches in
  let leaves = Array.make k 0.0 in
  for j = 0 to k - 1 do
    leaves.(j) <- r.leaf.(switches.(j))
  done;
  let avg_dist = Array.make (Cost_matrix.num_nodes cm) 0.0 in
  for i = 0 to k - 1 do
    let row = r.base.(switches.(i)) in
    let total = ref 0.0 in
    for j = 0 to k - 1 do
      (* c(s, s) = 0 adds nothing. *)
      if j <> i then total := !total +. (dist.{row + cols.(j)} +. leaves.(j))
    done;
    avg_dist.(switches.(i)) <- !total /. float_of_int k
  done;
  let used = Hashtbl.create n in
  let placement = Array.make n (-1) in
  for j = 0 to n - 1 do
    let unplaced_after = n - 1 - j in
    let best = ref infinity and best_switch = ref (-1) in
    Array.iter
      (fun s ->
        if not (Hashtbl.mem used s) then begin
          let direct =
            (if j = 0 then att.a_in.(s)
             else att.total_rate *. Problem.cost problem placement.(j - 1) s)
            +. if j = n - 1 then att.a_out.(s) else 0.0
          in
          let lookahead =
            float_of_int unplaced_after *. att.total_rate *. avg_dist.(s)
          in
          let score = direct +. lookahead in
          if score < !best then begin
            best := score;
            best_switch := s
          end
        end)
      switches;
    placement.(j) <- !best_switch;
    Hashtbl.add used !best_switch ()
  done;
  { placement; cost = Cost.comm_cost_with_attach problem att placement }
