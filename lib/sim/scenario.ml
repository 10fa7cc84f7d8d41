type initial = Uninformed of int | Hour1

type t = {
  problem : Ppdc_core.Problem.t;
  mu : float;
  pair_limit : int option;
  opt_budget : int;
  initial : initial;
}

let make ?(mu = 1e4) ?pair_limit ?(opt_budget = 2_000_000)
    ?(initial = Uninformed 0) problem =
  { problem; mu; pair_limit; opt_budget; initial }

module Events = Ppdc_traffic.Events

let events_of_diurnal t =
  Events.of_trace
    (Ppdc_traffic.Trace.of_diurnal Ppdc_traffic.Diurnal.default
       ~flows:(Ppdc_core.Problem.flows t.problem))

let failure_episode ~rng ~at ~duration ~fraction t =
  if not (Float.is_finite at) || at < 0.0 then
    invalid_arg "Scenario.failure_episode: at must be finite >= 0";
  if not (Float.is_finite duration) || duration <= 0.0 then
    invalid_arg "Scenario.failure_episode: duration must be finite positive";
  let g = Ppdc_core.Problem.graph t.problem in
  let _, failed = Ppdc_extensions.Failures.fail_links ~rng ~fraction g in
  let weight (u, v) =
    match Ppdc_topology.Graph.edge_weight g u v with
    | Some w -> w
    | None -> assert false (* fail_links only reports existing links *)
  in
  let failures =
    List.map
      (fun (u, v) -> { Events.time = at; kind = Events.Link_failure { u; v } })
      failed
  in
  (* Repairs land in reverse failure order (last failed, first
     repaired) — any order is valid, but this one is the deterministic
     convention the committed benches replay. *)
  let repairs =
    List.rev_map
      (fun (u, v) ->
        {
          Events.time = at +. duration;
          kind = Events.Link_repair { u; v; weight = weight (u, v) };
        })
      failed
  in
  Events.make ~horizon:(at +. duration) (failures @ repairs)
