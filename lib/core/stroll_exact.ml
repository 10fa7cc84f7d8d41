module Cost_matrix = Ppdc_topology.Cost_matrix
module Graph = Ppdc_topology.Graph

type outcome = {
  cost : float;
  switches : int array;
  proven_optimal : bool;
  explored : int;
}

let solve ~cm ~src ~dst ~n ?(budget = 20_000_000) ?incumbent () =
  if n < 0 then invalid_arg "Stroll_exact.solve: negative n";
  let candidates =
    Graph.switches (Cost_matrix.graph cm)
    |> Array.to_list
    |> List.filter (fun v -> v <> src && v <> dst)
    |> Array.of_list
  in
  if Array.length candidates < n then
    invalid_arg "Stroll_exact.solve: not enough candidates";
  if n = 0 then
    {
      cost = Cost_matrix.cost cm src dst;
      switches = [||];
      proven_optimal = true;
      explored = 0;
    }
  else begin
    let cost, incumbent =
      match incumbent with
      | Some (c, seq) when Array.length seq = n -> (c, seq)
      | Some _ | None -> (infinity, [||])
    in
    let r =
      Exact_search.run
        {
          cm;
          candidates;
          n;
          lambda = 1.0;
          a_in = Array.map (fun x -> Cost_matrix.cost cm src x) candidates;
          a_out = Array.map (fun x -> Cost_matrix.cost cm x dst) candidates;
          moves = None;
          bound = Stroll;
          fan_out = false;
          budget;
        }
        ~cost ~incumbent
    in
    let cost, switches =
      if Array.length r.best = n then (r.best_cost, r.best)
      else begin
        (* Budget exhausted before any complete solution and no
           incumbent: fall back to the greedy sequence so the result is
           well-formed. *)
        let g =
          Stroll_dp.nearest_neighbour ~cm ~src ~dst ~n ~eligible:candidates
        in
        (g.cost, g.switches)
      end
    in
    { cost; switches; proven_optimal = not r.exhausted; explored = r.explored }
  end
