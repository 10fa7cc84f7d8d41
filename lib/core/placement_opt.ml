module Obs = Ppdc_prelude.Obs

type outcome = {
  placement : Placement.t;
  cost : float;
  proven_optimal : bool;
  explored : int;
}

let solve problem ~rates ?(budget = 20_000_000) ?incumbent () =
  Obs.time "placement_opt.solve" @@ fun () ->
  let att = Cost.attach problem ~rates in
  let switches = Problem.switches problem in
  let seed =
    match incumbent with
    | Some p -> p
    | None -> (Placement_dp.solve_attached problem att ()).placement
  in
  let r =
    Exact_search.run
      {
        cm = Problem.cm problem;
        candidates = switches;
        n = Problem.n problem;
        lambda = att.total_rate;
        a_in = Array.map (fun s -> att.a_in.(s)) switches;
        a_out = Array.map (fun s -> att.a_out.(s)) switches;
        moves = None;
        bound = Chain;
        fan_out = true;
        budget;
      }
      ~cost:(Cost.comm_cost_with_attach problem att seed)
      ~incumbent:seed
  in
  Obs.incr ~by:r.explored "placement_opt.explored";
  if r.pruned_at_root > 0 then
    Obs.incr ~by:r.pruned_at_root "placement_opt.subtrees_pruned";
  {
    placement = r.best;
    cost = r.best_cost;
    proven_optimal = not r.exhausted;
    explored = r.explored;
  }
