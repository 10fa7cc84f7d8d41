type outcome = {
  migration : Placement.t;
  total_cost : float;
  migration_cost : float;
  comm_cost : float;
  moved : int;
  frontiers_evaluated : int;
  truncated : bool;
}

let migrate problem ~rates ~mu ~current ?(max_combinations = 100_000) () =
  Placement.validate problem current;
  let att = Cost.attach problem ~rates in
  let target = (Placement_dp.solve_attached problem att ()).placement in
  let paths = Frontier.migration_paths problem ~src:current ~dst:target in
  let n = Array.length paths in
  let frontier = Array.make n (-1) in
  let best = ref (Array.copy current) in
  let best_total = ref infinity in
  let evaluated = ref 0 in
  let truncated = ref false in
  (* The Definition-1 set contains the parallel frontiers; evaluate them
     up front so a truncated enumeration can never report worse than the
     subset Algo. 5 scans. *)
  let consider row =
    if not (Frontier.has_collision row) && Placement.is_valid problem row then begin
      let total =
        Cost.migration_cost problem ~mu ~src:current ~dst:row
        +. Cost.comm_cost_with_attach problem att row
      in
      if total < !best_total then begin
        best_total := total;
        best := Array.copy row
      end
    end
  in
  Array.iter consider (Frontier.parallel paths);
  (* DFS over the product of the per-VNF paths, pruning in-branch
     collisions with an occupancy table. *)
  let occupied = Hashtbl.create n in
  let rec enumerate j =
    if !evaluated >= max_combinations then truncated := true
    else if j = n then begin
      incr evaluated;
      let total =
        Cost.migration_cost problem ~mu ~src:current ~dst:frontier
        +. Cost.comm_cost_with_attach problem att frontier
      in
      if total < !best_total then begin
        best_total := total;
        best := Array.copy frontier
      end
    end
    else
      Array.iter
        (fun s ->
          if (not (Hashtbl.mem occupied s)) && not !truncated then begin
            Hashtbl.add occupied s ();
            frontier.(j) <- s;
            enumerate (j + 1);
            Hashtbl.remove occupied s
          end)
        paths.(j)
  in
  enumerate 0;
  (* "Stay" is collision-free and always enumerable (it is the all-first
     combination), but guard against a truncation landing before it. *)
  let stay = Cost.comm_cost_with_attach problem att current in
  if stay < !best_total then begin
    best_total := stay;
    best := Array.copy current
  end;
  let migration = !best in
  let migration_cost =
    Cost.migration_cost problem ~mu ~src:current ~dst:migration
  in
  {
    migration;
    total_cost = !best_total;
    migration_cost;
    comm_cost = !best_total -. migration_cost;
    moved = Cost.moved ~src:current ~dst:migration;
    frontiers_evaluated = !evaluated;
    truncated = !truncated;
  }
