open Ppdc_core
module Events = Ppdc_traffic.Events
module Cost_matrix = Ppdc_topology.Cost_matrix
module Graph = Ppdc_topology.Graph
module Pqueue = Ppdc_prelude.Pqueue
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

(* The rate vector the stream leaves in place after every event at the
   earliest timestamp — what an [Hour1] deployment gets to see. *)
let first_rates_of events ~l =
  match Events.events events with
  | [] -> Array.make l 0.0
  | first :: _ as all ->
      let rates = Array.make l 0.0 in
      List.iter
        (fun (e : Events.event) ->
          if Float.compare e.time first.time = 0 then
            match e.kind with
            | Events.Flow_arrival { flow; rate } ->
                if flow < l then rates.(flow) <- rate
            | Events.Flow_departure { flow } ->
                if flow < l then rates.(flow) <- 0.0
            | Events.Rate_update updates ->
                List.iter (fun (f, r) -> if f < l then rates.(f) <- r) updates
            | _ -> ())
        all;
      rates

let run ?(migration_delay = 0.0) scenario ~policy ~trigger ~events () =
  validate_trigger trigger;
  if not (Float.is_finite migration_delay) || migration_delay < 0.0 then
    invalid_arg "Event_engine.run: migration_delay must be finite >= 0";
  let problem0 = scenario.Scenario.problem in
  let l = Problem.num_flows problem0 in
  let num_nodes = Graph.num_nodes (Problem.graph problem0) in
  let horizon = Events.horizon events in
  let rates = Array.make l 0.0 in
  let initial_placement =
    Engine.initial_placement_of scenario
      ~first_rates:(first_rates_of events ~l)
  in
  let state =
    { Engine.placement = Array.copy initial_placement; problem = problem0 }
  in
  let q : Events.event Pqueue.Stable.t = Pqueue.Stable.create () in
  Events.iter (fun e -> Pqueue.Stable.push q e.time e) events;
  (* [comm_rate] is the communication cost per unit of virtual time
     under the current (problem, rates, placement); each segment
     between consecutive events is charged [dt *. comm_rate] — the
     generalization of the hour engine's "one hour of C_a". After a
     reconfiguration the policy's own comm evaluation becomes the
     rate, exactly as [Engine.run_epochs] records it (the policies
     differ from [Cost.comm_cost] in float association, so adopting
     the step's value is what keeps hourly replay bit-identical). *)
  let comm_rate = ref (Cost.comm_cost state.problem ~rates state.placement) in
  let baseline = ref !comm_rate in
  let next_due = ref 0.0 in
  let armed = ref true in
  let in_flight = ref false in
  let t_now = ref 0.0 in
  let total_comm = ref 0.0 in
  let total_migration = ref 0.0 in
  let total_moves = ref 0 in
  let reconfigs = ref 0 in
  let records = ref [] in
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  let set_rate flow r =
    if flow < 0 || flow >= l then
      bad "Event_engine.run: flow %d out of range (have %d flows)" flow l;
    rates.(flow) <- r
  in
  let apply_kind = function
    | Events.Flow_arrival { flow; rate } -> set_rate flow rate
    | Events.Flow_departure { flow } -> set_rate flow 0.0
    | Events.Rate_update updates ->
        List.iter (fun (f, r) -> set_rate f r) updates
    | Events.Link_failure { u; v } ->
        if u >= num_nodes || v >= num_nodes then
          bad "Event_engine.run: link (%d, %d) out of range" u v;
        state.problem <-
          Problem.with_cm state.problem
            (Cost_matrix.delete_edge (Problem.cm state.problem) ~u ~v)
    | Events.Link_repair { u; v; weight } ->
        if u >= num_nodes || v >= num_nodes then
          bad "Event_engine.run: link (%d, %d) out of range" u v;
        state.problem <-
          Problem.with_cm state.problem
            (Cost_matrix.restore_edge (Problem.cm state.problem) ~u ~v ~weight)
    | Events.Migration_complete -> in_flight := false
    | Events.Probe -> ()
  in
  (* Perfect short-range forecast: the rate vector after every pending
     event within [t, t + 1], applied in replay order. An
     [of_trace] stream carries its all-zero vector *at* the horizon
     precisely so this scan reproduces the hour engine's zero-forecast
     end-of-day contract. *)
  let forecast t =
    let next = Array.copy rates in
    List.iter
      (fun ((_ : float), (e : Events.event)) ->
        if Float.compare e.time (t +. 1.0) <= 0 then
          match e.kind with
          | Events.Flow_arrival { flow; rate } ->
              if flow >= 0 && flow < l then next.(flow) <- rate
          | Events.Flow_departure { flow } ->
              if flow >= 0 && flow < l then next.(flow) <- 0.0
          | Events.Rate_update updates ->
              List.iter
                (fun (f, r) -> if f >= 0 && f < l then next.(f) <- r)
                updates
          | _ -> ())
      (Pqueue.Stable.to_sorted_list q);
    next
  in
  let continue = ref true in
  while !continue do
    match Pqueue.Stable.peek_min q with
    | None -> continue := false
    | Some (t, _) when Float.compare t horizon >= 0 -> continue := false
    | Some _ ->
        let t, e =
          match Pqueue.Stable.pop_min q with
          | Some te -> te
          | None -> assert false
        in
        let charge = (t -. !t_now) *. !comm_rate in
        total_comm := !total_comm +. charge;
        t_now := t;
        apply_kind e.kind;
        (match e.kind with
        | Events.Probe | Events.Migration_complete -> ()
        | _ ->
            comm_rate := Cost.comm_cost state.problem ~rates state.placement);
        let fired =
          (not !in_flight)
          &&
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
              Obs.observe_span "sim.reconfig" (Obs.now () -. t0);
              Obs.incr ("sim.trigger." ^ trigger_name trigger)
            end;
            comm_rate := comm;
            baseline := comm;
            (match trigger with
            | Periodic span -> next_due := t +. span
            | Hysteresis _ -> armed := false
            | Threshold _ | On_event -> ());
            if migration_delay > 0.0 && moved > 0 then begin
              in_flight := true;
              Pqueue.Stable.push q
                (t +. migration_delay)
                { Events.time = t +. migration_delay;
                  kind = Events.Migration_complete }
            end;
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
          :: !records
  done;
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
