type kind =
  | Rate_update of float array
  | Link_failure of { u : int; v : int }
  | Link_repair of { u : int; v : int; weight : float }
  | Probe

type event = { time : float; kind : kind }

type t = { events : event array; horizon : float }

let kind_name = function
  | Rate_update _ -> "rate_update"
  | Link_failure _ -> "link_failure"
  | Link_repair _ -> "link_repair"
  | Probe -> "probe"

let check_kind = function
  | Rate_update rates ->
      Array.iter
        (fun r ->
          if not (Float.is_finite r) || r < 0.0 then
            invalid_arg "Events.make: update rate must be finite >= 0")
        rates
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
   the end is the zero vector). [Trace.rates_at] returns a fresh
   vector, which the stream then owns. *)
let of_trace trace =
  let epochs = Trace.num_epochs trace in
  if epochs = 0 then invalid_arg "Events.of_trace: empty trace";
  let per_epoch =
    List.init epochs (fun e ->
        {
          time = float_of_int e;
          kind = Rate_update (Trace.rates_at trace ~epoch:e);
        })
  in
  let final =
    {
      time = float_of_int epochs;
      kind = Rate_update (Array.make (Trace.num_flows trace) 0.0);
    }
  in
  make ~horizon:(float_of_int epochs) (per_epoch @ [ final ])

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
