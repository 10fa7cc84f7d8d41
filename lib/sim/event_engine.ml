open Ppdc_core
module Events = Ppdc_traffic.Events
module Trace = Ppdc_traffic.Trace
module Cost_matrix = Ppdc_topology.Cost_matrix
module Graph = Ppdc_topology.Graph
module Obs = Ppdc_prelude.Obs

type trigger =
  | Periodic of float
  | Threshold of float
  | Hysteresis of { up : float; down : float }
  | On_event

let trigger_name = function
  | Periodic _ -> "periodic"
  | Threshold _ -> "threshold"
  | Hysteresis _ -> "hysteresis"
  | On_event -> "on_event"

let validate_trigger = function
  | Periodic span ->
      if not (Float.is_finite span) || span <= 0.0 then
        invalid_arg "Event_engine: periodic span must be finite positive"
  | Threshold ratio ->
      if not (Float.is_finite ratio) || ratio <= 0.0 then
        invalid_arg "Event_engine: threshold ratio must be finite positive"
  | Hysteresis { up; down } ->
      if
        (not (Float.is_finite up))
        || (not (Float.is_finite down))
        || down <= 0.0
        || Float.compare up down < 0
      then
        invalid_arg
          "Event_engine: hysteresis needs finite up >= down > 0"
  | On_event -> ()

let trigger_of_string s =
  let float_of s what =
    match float_of_string_opt s with
    | Some f -> f
    | None -> invalid_arg (Printf.sprintf "Event_engine: bad %s %S" what s)
  in
  let t =
    match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
    | [ "on-event" ] | [ "on_event" ] -> On_event
    | [ "periodic"; span ] -> Periodic (float_of span "periodic span")
    | [ "threshold"; ratio ] -> Threshold (float_of ratio "threshold ratio")
    | [ "hysteresis"; updown ] -> (
        match String.split_on_char ',' updown with
        | [ up; down ] ->
            Hysteresis
              {
                up = float_of up "hysteresis up";
                down = float_of down "hysteresis down";
              }
        | _ ->
            invalid_arg
              "Event_engine: hysteresis spec must be hysteresis:UP,DOWN")
    | _ ->
        invalid_arg
          (Printf.sprintf
             "Event_engine: unknown trigger %S (periodic:SPAN | \
              threshold:RATIO | hysteresis:UP,DOWN | on-event)"
             s)
  in
  validate_trigger t;
  t

type event_record = {
  time : float;
  kind : string;
  comm_charge : float;
  fired : bool;
  migration_cost : float;
  moved : int;
}

type run = {
  policy : Engine.policy;
  trigger : trigger;
  initial_placement : Placement.t;
  final_placement : Placement.t;
  records : event_record array;
  final_comm : float;
  total_comm : float;
  total_migration : float;
  total_cost : float;
  total_moves : int;
  reconfigurations : int;
}

(* The rate vector in force at [until]: the last [Rate_update] among
   the events at the head of [pending] whose time is at most [until],
   else [rates]. A rate event carries every flow's rate, so this equals
   applying each of them in stream order. *)
let rates_at rates pending ~until =
  let rec go acc = function
    | (e : Events.event) :: rest when Float.compare e.time until <= 0 ->
        go (match e.kind with Events.Rate_update v -> v | _ -> acc) rest
    | _ -> acc
  in
  go rates pending

let run scenario ~policy ~trigger ~events () =
  validate_trigger trigger;
  let problem0 = scenario.Scenario.problem in
  let l = Problem.num_flows problem0 in
  let horizon = Events.horizon events in
  let rates = Array.make l 0.0 in
  (* The timeline is the sorted stream: [pending] holds the events not
     yet replayed. *)
  let pending = ref (Events.events events) in
  List.iter
    (fun (e : Events.event) ->
      match e.kind with
      | Events.Rate_update v when Array.length v <> l ->
          invalid_arg
            (Printf.sprintf
               "Event_engine.run: the rate vector at t = %g has %d entries \
                (have %d flows)"
               e.time (Array.length v) l)
      | _ -> ())
    !pending;
  let next () =
    match !pending with
    | e :: rest when Float.compare e.Events.time horizon < 0 ->
        pending := rest;
        Some e
    | _ -> None
  in
  (* An [Hour1] deployment sees the rates in force at the stream's
     earliest timestamp. *)
  let first_rates =
    let until = match !pending with [] -> 0.0 | e :: _ -> e.time in
    rates_at rates !pending ~until
  in
  let initial_placement = Engine.initial_placement_of scenario ~first_rates in
  let state =
    { Engine.placement = Array.copy initial_placement; problem = problem0 }
  in
  (* [comm_rate] is the communication cost per unit of virtual time
     under the current (problem, rates, placement); each segment
     between consecutive events is charged [dt *. comm_rate], so an
     hour-long segment is "one hour of C_a". After a reconfiguration
     the policy's own comm evaluation becomes the rate: the policies
     differ from [Cost.comm_cost] in float association, and the hourly
     report charges each hour exactly what the step returned. *)
  let comm_rate = ref (Cost.comm_cost state.problem ~rates state.placement) in
  let baseline = ref !comm_rate in
  let next_due = ref 0.0 in
  let armed = ref true in
  let t_now = ref 0.0 in
  let total_comm = ref 0.0 in
  let total_migration = ref 0.0 in
  let total_moves = ref 0 in
  let reconfigs = ref 0 in
  let records = ref [] in
  (* A link event rebuilds the fabric from its edited edge list —
     [Graph.make] refuses to repair a link that is up or out of range —
     and [Cost_matrix.repair_to] re-runs only the rows the one changed
     link can affect. *)
  let relink edit =
    let cm = Problem.cm state.problem in
    let g = Cost_matrix.graph cm in
    let g' =
      Graph.make
        ~kinds:(Array.init (Graph.num_nodes g) (Graph.kind g))
        ~edges:(edit (Graph.edges g))
    in
    (* Same nodes and kinds: [repair_to] never refuses. *)
    let cm', _rows = Option.get (Cost_matrix.repair_to cm g') in
    state.problem <- Problem.with_cm state.problem cm'
  in
  let apply_kind = function
    | Events.Link_failure { u; v } ->
        relink (fun edges ->
            let kept =
              List.filter
                (fun (a, b, _) -> not ((a = u && b = v) || (a = v && b = u)))
                edges
            in
            if List.compare_lengths kept edges = 0 then
              invalid_arg
                (Printf.sprintf "Event_engine.run: no link (%d, %d) to fail"
                   u v);
            kept)
    | Events.Link_repair { u; v; weight } ->
        relink (fun edges -> (min u v, max u v, weight) :: edges)
    | Events.Rate_update v -> Array.blit v 0 rates 0 l
    | Events.Probe -> ()
  in
  (* Perfect short-range forecast: the rate vector in force at [t + 1].
     An [of_trace] stream carries its all-zero vector *at* the horizon,
     so the forecast at the last epoch is the zero vector (the horizon
     contract in engine.mli). *)
  let forecast t = rates_at rates !pending ~until:(t +. 1.0) in
  let rec replay () =
    match next () with
    | None -> ()
    | Some e ->
        let t = e.Events.time in
        let charge = (t -. !t_now) *. !comm_rate in
        total_comm := !total_comm +. charge;
        t_now := t;
        apply_kind e.kind;
        (match e.kind with
        | Events.Probe -> ()
        | _ ->
            comm_rate := Cost.comm_cost state.problem ~rates state.placement);
        let fired =
          match trigger with
          | On_event -> true
          | Periodic _ -> Float.compare t !next_due >= 0
          | Threshold ratio ->
              Float.compare !comm_rate (ratio *. !baseline) > 0
          | Hysteresis { up; down } ->
              if !armed then Float.compare !comm_rate (up *. !baseline) > 0
              else begin
                if Float.compare !comm_rate (down *. !baseline) <= 0 then
                  armed := true;
                false
              end
        in
        let migration_cost, moved =
          if not fired then (0.0, 0)
          else begin
            incr reconfigs;
            let next_rates =
              match policy with
              | Engine.Mpareto_lookahead -> forecast t
              | _ -> rates
            in
            let t0 = if Obs.enabled () then Obs.now () else 0.0 in
            let comm, migration_cost, moved =
              Engine.step scenario state ~policy ~rates ~next_rates
            in
            if Obs.enabled () then begin
              let dt = Obs.now () -. t0 in
              Obs.observe_span "sim.reconfig" dt;
              Obs.observe_span ("sim.step." ^ Engine.policy_name policy) dt;
              Obs.incr ("sim.trigger." ^ trigger_name trigger)
            end;
            comm_rate := comm;
            baseline := comm;
            (match trigger with
            | Periodic span -> next_due := t +. span
            | Hysteresis _ -> armed := false
            | Threshold _ | On_event -> ());
            (migration_cost, moved)
          end
        in
        total_migration := !total_migration +. migration_cost;
        total_moves := !total_moves + moved;
        if Obs.enabled () then
          Obs.emit "sim.event"
            [
              ("kind", Obs.String (Events.kind_name e.kind));
              ("t", Obs.Float t);
              ("fired", Obs.Bool fired);
              ("moved", Obs.Int moved);
            ];
        records :=
          {
            time = t;
            kind = Events.kind_name e.kind;
            comm_charge = charge;
            fired;
            migration_cost;
            moved;
          }
          :: !records;
        replay ()
  in
  replay ();
  let final_comm = (horizon -. !t_now) *. !comm_rate in
  total_comm := !total_comm +. final_comm;
  {
    policy;
    trigger;
    initial_placement;
    final_placement = Array.copy state.Engine.placement;
    records = Array.of_list (List.rev !records);
    final_comm;
    total_comm = !total_comm;
    total_migration = !total_migration;
    total_cost = !total_comm +. !total_migration;
    total_moves = !total_moves;
    reconfigurations = !reconfigs;
  }

(* The hourly view of a [Periodic 1.0] replay of [Events.of_trace]:
   every epoch's event fires, so hour [i] (0-based) takes its move from
   record [i] and its C_a from the one-hour segment that record [i+1]
   closes, or from the tail segment for the last hour. *)
let run_trace scenario ~policy ~trace =
  if Trace.num_flows trace <> Problem.num_flows scenario.Scenario.problem then
    invalid_arg "Event_engine.run_trace: trace flow count mismatch";
  (* [Events.of_trace] refuses an empty trace. *)
  let r =
    run scenario ~policy ~trigger:(Periodic 1.0)
      ~events:(Events.of_trace trace) ()
  in
  let n = Array.length r.records in
  let hours =
    Array.mapi
      (fun i (e : event_record) ->
        let comm_cost =
          if i + 1 < n then r.records.(i + 1).comm_charge else r.final_comm
        in
        if Obs.enabled () then
          Obs.emit "sim.epoch"
            [
              ("policy", Obs.String (Engine.policy_name policy));
              ("hour", Obs.Int (i + 1));
              ("comm_cost", Obs.Float comm_cost);
              ("migration_cost", Obs.Float e.migration_cost);
              ("migrations", Obs.Int e.moved);
            ];
        {
          Engine.hour = i + 1;
          comm_cost;
          migration_cost = e.migration_cost;
          migrations = e.moved;
          total_cost = comm_cost +. e.migration_cost;
        })
      r.records
  in
  {
    Engine.policy;
    initial_placement = r.initial_placement;
    hours;
    total_cost =
      Array.fold_left
        (fun acc (h : Engine.hour_record) -> acc +. h.total_cost)
        0.0 hours;
    total_migrations = r.total_moves;
  }

let run_day scenario ~policy =
  run_trace scenario ~policy
    ~trace:
      (Trace.of_diurnal Ppdc_traffic.Diurnal.default
         ~flows:(Problem.flows scenario.Scenario.problem))
