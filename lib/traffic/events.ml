type kind =
  | Flow_arrival of { flow : int; rate : float }
  | Flow_departure of { flow : int }
  | Rate_update of (int * float) list
  | Link_failure of { u : int; v : int }
  | Link_repair of { u : int; v : int; weight : float }
  | Probe

type event = { time : float; kind : kind }

type t = { events : event array; horizon : float }

let kind_name = function
  | Flow_arrival _ -> "flow_arrival"
  | Flow_departure _ -> "flow_departure"
  | Rate_update _ -> "rate_update"
  | Link_failure _ -> "link_failure"
  | Link_repair _ -> "link_repair"
  | Probe -> "probe"

let check_rate what r =
  if not (Float.is_finite r) || r < 0.0 then
    invalid_arg (Printf.sprintf "Events.make: %s rate must be finite >= 0" what)

let check_kind = function
  | Flow_arrival { flow; rate } ->
      if flow < 0 then invalid_arg "Events.make: negative flow id";
      check_rate "arrival" rate
  | Flow_departure { flow } ->
      if flow < 0 then invalid_arg "Events.make: negative flow id"
  | Rate_update updates ->
      List.iter
        (fun (flow, rate) ->
          if flow < 0 then invalid_arg "Events.make: negative flow id";
          check_rate "update" rate)
        updates
  | Link_failure { u; v } ->
      if u < 0 || v < 0 || u = v then invalid_arg "Events.make: bad link"
  | Link_repair { u; v; weight } ->
      if u < 0 || v < 0 || u = v then invalid_arg "Events.make: bad link";
      if not (Float.is_finite weight) || weight <= 0.0 then
        invalid_arg "Events.make: repair weight must be finite positive"
  | Probe -> ()

let make ~horizon events =
  if not (Float.is_finite horizon) || horizon < 0.0 then
    invalid_arg "Events.make: horizon must be finite >= 0";
  List.iter
    (fun e ->
      if not (Float.is_finite e.time) || e.time < 0.0 then
        invalid_arg "Events.make: event time must be finite >= 0";
      check_kind e.kind)
    events;
  (* Stable sort on time only: equal-time events keep list order, the
     order the simulator then replays them in. *)
  let events =
    List.stable_sort
      (fun (a : event) (b : event) -> Float.compare a.time b.time)
      events
  in
  { events = Array.of_list events; horizon }

let events t = Array.to_list t.events
let horizon t = t.horizon
let length t = Array.length t.events

(* One full-vector rate event per trace epoch, at integer times
   0 .. epochs-1, plus a final all-zero vector at [t = epochs]. The
   horizon equals [epochs], so the engine never *processes* the final
   event — but a forecast scanning pending events does see it: the
   look-ahead policy's horizon contract (the forecast one epoch past
   the end is the zero vector). *)
let of_trace trace =
  let epochs = Trace.num_epochs trace in
  let l = Trace.num_flows trace in
  if epochs = 0 then invalid_arg "Events.of_trace: empty trace";
  let full_vector rates = List.init l (fun i -> (i, rates.(i))) in
  let per_epoch =
    List.init epochs (fun e ->
        {
          time = float_of_int e;
          kind = Rate_update (full_vector (Trace.rates_at trace ~epoch:e));
        })
  in
  let final =
    {
      time = float_of_int epochs;
      kind = Rate_update (List.init l (fun i -> (i, 0.0)));
    }
  in
  make ~horizon:(float_of_int epochs) (per_epoch @ [ final ])

let of_diurnal diurnal ~flows = of_trace (Trace.of_diurnal diurnal ~flows)

let exponential rng ~mean =
  (* Inverse-CDF sample; [uniform] never returns exactly [hi], so the
     log argument stays positive. *)
  let u = Ppdc_prelude.Rng.uniform rng ~lo:0.0 ~hi:1.0 in
  -.mean *. log (1.0 -. u)

let poisson ~rng ~horizon ~mean_active flows =
  if not (Float.is_finite horizon) || horizon <= 0.0 then
    invalid_arg "Events.poisson: horizon must be finite positive";
  if not (Float.is_finite mean_active) || mean_active <= 0.0 then
    invalid_arg "Events.poisson: mean_active must be finite positive";
  let l = Array.length flows in
  if l = 0 then invalid_arg "Events.poisson: no flows";
  (* Flows join as a Poisson process: exponential inter-arrivals with
     the full population spread over the first half of the horizon (so
     the tail still has traffic to observe), each session staying
     Exponential(mean_active). Departures past the horizon are dropped —
     the run ends with the flow still active, which is fine: nothing
     after the horizon is ever processed. *)
  let inter_mean = horizon /. 2.0 /. float_of_int l in
  let clock = ref 0.0 in
  let evs = ref [] in
  Array.iter
    (fun (f : Flow.t) ->
      clock := !clock +. exponential rng ~mean:inter_mean;
      let arrival = !clock in
      if arrival < horizon then begin
        let rate = f.base_rate *. Ppdc_prelude.Rng.uniform rng ~lo:0.8 ~hi:1.2 in
        evs :=
          { time = arrival; kind = Flow_arrival { flow = f.id; rate } }
          :: !evs;
        let departure = arrival +. exponential rng ~mean:mean_active in
        if departure < horizon then
          evs :=
            { time = departure; kind = Flow_departure { flow = f.id } }
            :: !evs
      end)
    flows;
  make ~horizon (List.rev !evs)

(* Each tick is an event a run replays, and under [On_event] a
   decision, so a tiny period would hang its caller and exhaust memory;
   the finest schedule in use (a quarter hour over the 12 h day) is 47
   ticks. *)
let max_probe_ticks = 10_000

let probes ~every ~horizon =
  if not (Float.is_finite every) || every <= 0.0 then
    invalid_arg "Events.probes: period must be finite positive";
  if not (Float.is_finite horizon) || horizon < 0.0 then
    invalid_arg "Events.probes: horizon must be finite >= 0";
  let rec ticks t count acc =
    if t >= horizon then List.rev acc
    else if count = max_probe_ticks then
      invalid_arg
        (Printf.sprintf
           "Events.probes: a period of %g h over a %g h horizon gives more \
            than %d probe ticks"
           every horizon max_probe_ticks)
    else ticks (t +. every) (count + 1) ({ time = t; kind = Probe } :: acc)
  in
  make ~horizon (ticks every 0 [])

let merge a b =
  (* [make] stable-sorts, so equal-time events order a-before-b. *)
  make
    ~horizon:(Float.max a.horizon b.horizon)
    (Array.to_list a.events @ Array.to_list b.events)
