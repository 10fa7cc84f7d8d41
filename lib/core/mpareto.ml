type point = {
  frontier : int array;
  migration_cost : float;
  comm_cost : float;
  collides : bool;
}

type outcome = {
  migration : Placement.t;
  total_cost : float;
  migration_cost : float;
  comm_cost : float;
  moved : int;
  target : Placement.t;
  points : point list;
}

module Obs = Ppdc_prelude.Obs

(* Algo. 5 past the attachment: target, frontiers, cheapest row. *)
let scan problem (att : Cost.attach) ~mu ~current ~collisions ~pair_limit =
  let target =
    (Placement_dp.solve_attached problem att ?pair_limit ()).placement
  in
  let paths = Frontier.migration_paths problem ~src:current ~dst:target in
  let rows = Frontier.parallel paths in
  let evaluate frontier =
    {
      frontier;
      migration_cost = Cost.migration_cost problem ~mu ~src:current ~dst:frontier;
      comm_cost = Cost.comm_cost_with_attach problem att frontier;
      collides = Frontier.has_collision frontier;
    }
  in
  let points = Array.to_list (Array.map evaluate rows) in
  (* A frontier row is a legal resting placement only if it is collision-
     free AND every switch is a candidate of the (possibly restricted)
     instance — migration paths may transit foreign switches, but VNFs
     may not stop on them. *)
  let eligible p =
    match collisions with
    | `Allow -> true
    | `Skip -> (not p.collides) && Placement.is_valid problem p.frontier
  in
  let best, _, skipped =
    List.fold_left
      (fun (acc, row, skipped) p ->
        if not (eligible p) then (acc, row + 1, skipped + 1)
        else
          let total = p.migration_cost +. p.comm_cost in
          match acc with
          | Some (best_total, _, _) when best_total <= total ->
              (acc, row + 1, skipped)
          | _ -> (Some (total, p, row), row + 1, skipped))
      (None, 0, 0) points
  in
  if Obs.enabled () then begin
    Obs.incr ~by:(List.length points) "mpareto.rows_evaluated";
    Obs.incr ~by:skipped "mpareto.rows_skipped";
    Obs.incr
      ~by:(List.length (List.filter (fun p -> p.collides) points))
      "mpareto.collisions"
  end;
  match best with
  | None ->
      (* Row 0 never collides (it is the current valid placement), so
         this is unreachable; keep the typechecker honest. *)
      assert false
  | Some (total, p, chosen_row) ->
      Obs.observe "mpareto.chosen_row" (float_of_int chosen_row);
      {
        migration = p.frontier;
        total_cost = total;
        migration_cost = p.migration_cost;
        comm_cost = p.comm_cost;
        moved = Cost.moved ~src:current ~dst:p.frontier;
        target;
        points;
      }

let migrate_attached problem att ~mu ~current ?(collisions = `Skip) ?pair_limit
    () =
  Obs.time "mpareto.migrate" @@ fun () ->
  Placement.validate problem current;
  scan problem att ~mu ~current ~collisions ~pair_limit

let migrate problem ~rates ~mu ~current ?(collisions = `Skip) ?pair_limit () =
  Obs.time "mpareto.migrate" @@ fun () ->
  Placement.validate problem current;
  scan problem (Cost.attach problem ~rates) ~mu ~current ~collisions ~pair_limit
