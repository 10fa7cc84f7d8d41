module Flow = Ppdc_traffic.Flow
module Stats = Ppdc_prelude.Stats

type per_flow = {
  flow : int;
  route_delay : float;
  direct_delay : float;
  stretch : float;
}

type t = {
  per_flow : per_flow array;
  mean_delay : float;
  p95_delay : float;
  max_delay : float;
  mean_stretch : float;
}

let compute problem placement =
  Placement.validate problem placement;
  let n = Array.length placement in
  let chain = Cost.chain_cost problem placement in
  let flows = Problem.flows problem in
  (* Floor for colocated pairs: the cheapest positive direct delay. *)
  let min_positive =
    Array.fold_left
      (fun acc (f : Flow.t) ->
        let d = Problem.cost problem f.src_host f.dst_host in
        if d > 0.0 then Float.min acc d else acc)
      infinity flows
  in
  let floor = if min_positive = infinity then 1.0 else min_positive in
  let per_flow =
    Array.map
      (fun (f : Flow.t) ->
        let route_delay =
          Problem.cost problem f.src_host placement.(0)
          +. chain
          +. Problem.cost problem placement.(n - 1) f.dst_host
        in
        let direct_delay = Problem.cost problem f.src_host f.dst_host in
        {
          flow = f.id;
          route_delay;
          direct_delay;
          stretch = route_delay /. Float.max direct_delay floor;
        })
      flows
  in
  let delays = Array.map (fun m -> m.route_delay) per_flow in
  {
    per_flow;
    mean_delay = Stats.mean delays;
    p95_delay = Stats.percentile delays 0.95;
    max_delay = Array.fold_left Float.max 0.0 delays;
    mean_stretch =
      Stats.mean (Array.map (fun m -> m.stretch) per_flow);
  }
