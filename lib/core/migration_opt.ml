type outcome = {
  migration : Placement.t;
  cost : float;
  proven_optimal : bool;
  explored : int;
}

let solve problem ~rates ~mu ~current ?(budget = 20_000_000) ?incumbent () =
  Placement.validate problem current;
  let att = Cost.attach problem ~rates in
  let switches = Problem.switches problem in
  let seed =
    match incumbent with
    | Some m -> m
    | None -> (Mpareto.migrate_attached problem att ~mu ~current ()).migration
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
        moves = Some (mu, current);
        bound = Chain;
        budget;
      }
      ~cost:(Cost.total_cost problem ~rates ~mu ~src:current ~dst:seed)
      ~incumbent:seed
  in
  {
    migration = r.best;
    cost = r.best_cost;
    proven_optimal = not r.exhausted;
    explored = r.explored;
  }
