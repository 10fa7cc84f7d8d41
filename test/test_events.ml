(* Discrete-event simulator tests: determinism across domain counts,
   trigger-policy semantics, event-stream constructors, and the
   elapsed-time cost accounting. The hourly day's answers are pinned
   hour by hour in test/golden/sim_days.expected. *)

module Fat_tree = Ppdc_topology.Fat_tree
module Cost_matrix = Ppdc_topology.Cost_matrix
module Workload = Ppdc_traffic.Workload
module Diurnal = Ppdc_traffic.Diurnal
module Trace = Ppdc_traffic.Trace
module Events = Ppdc_traffic.Events
module Rng = Ppdc_prelude.Rng
module Parallel = Ppdc_prelude.Parallel
module Scenario = Ppdc_sim.Scenario
module Engine = Ppdc_sim.Engine
module Event_engine = Ppdc_sim.Event_engine
open Ppdc_core

let with_domains d f =
  let prev = Parallel.domain_count () in
  Parallel.set_domains d;
  Fun.protect ~finally:(fun () -> Parallel.set_domains prev) f

let problem ?(l = 20) ?(n = 4) ~seed () =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let rng = Rng.create seed in
  let flows = Workload.generate_on_fat_tree ~rng ~l ft in
  Problem.make ~cm ~flows ~n ()

let scenario ?l ?n ?(mu = 1e3) ~seed () =
  Scenario.make ~mu (problem ?l ?n ~seed ())

let all_policies =
  Engine.[ Mpareto; Optimal; Mpareto_lookahead; Plan; Mcf; No_migration ]

let bits = Int64.bits_of_float

let check_bits msg a b =
  Alcotest.(check int64) msg (bits a) (bits b)

(* --- determinism ---------------------------------------------------------- *)

let test_equivalence_across_domains () =
  (* The replay must be bit-identical at any domain count (the policy
     steps are deterministically parallel; everything else is
     sequential), and so must its hourly view, hour by hour. *)
  let sc = scenario ~seed:9 () in
  let stream = Scenario.events_of_diurnal sc in
  let run () =
    Event_engine.run sc ~policy:Engine.Mpareto
      ~trigger:(Event_engine.Periodic 1.0) ~events:stream ()
  in
  let a = with_domains 1 run and b = with_domains 4 run in
  check_bits "total comm" a.Event_engine.total_comm b.Event_engine.total_comm;
  check_bits "total migration" a.Event_engine.total_migration
    b.Event_engine.total_migration;
  Alcotest.(check (array int)) "final placement" a.Event_engine.final_placement
    b.Event_engine.final_placement;
  let hours policy () =
    Array.map
      (fun (h : Engine.hour_record) ->
        Printf.sprintf "%d %h %h %d %h" h.hour h.comm_cost h.migration_cost
          h.migrations h.total_cost)
      (Event_engine.run_day sc ~policy).Engine.hours
  in
  List.iter
    (fun policy ->
      Alcotest.(check (array string))
        (Engine.policy_name policy ^ ": run_day hours at 1 and 4 domains")
        (with_domains 1 (hours policy))
        (with_domains 4 (hours policy)))
    all_policies

(* --- trigger semantics ---------------------------------------------------- *)

let constant_stream sc ~epochs ~scale =
  let flows = Problem.flows sc.Scenario.problem in
  let vec =
    Array.map (fun r -> r *. scale) (Ppdc_traffic.Flow.base_rates flows)
  in
  Events.of_trace (Trace.make ~flows ~rates:(Array.make epochs vec))

let test_on_event_fires_everywhere () =
  let sc = scenario ~seed:2 () in
  let stream = constant_stream sc ~epochs:5 ~scale:1.0 in
  let run =
    Event_engine.run sc ~policy:Engine.Mpareto ~trigger:Event_engine.On_event
      ~events:stream ()
  in
  Alcotest.(check int) "fires at every processed event" 5
    run.Event_engine.reconfigurations

let test_periodic_span () =
  let sc = scenario ~seed:2 () in
  let stream = constant_stream sc ~epochs:6 ~scale:1.0 in
  let run =
    Event_engine.run sc ~policy:Engine.Mpareto
      ~trigger:(Event_engine.Periodic 2.0) ~events:stream ()
  in
  (* Events at t = 0..5; due at 0, then 2, 4, ... → fires at 0, 2, 4. *)
  Alcotest.(check int) "every other event" 3 run.Event_engine.reconfigurations;
  let fired =
    Array.to_list
      (Array.map (fun r -> r.Event_engine.fired) run.Event_engine.records)
  in
  Alcotest.(check (list bool)) "alternating"
    [ true; false; true; false; true; false ]
    fired

let test_threshold_fires_once_on_constant_load () =
  let sc = scenario ~seed:3 () in
  let stream = constant_stream sc ~epochs:6 ~scale:1.0 in
  let run =
    Event_engine.run sc ~policy:Engine.Mpareto
      ~trigger:(Event_engine.Threshold 1.2) ~events:stream ()
  in
  (* The pre-traffic baseline is a zero cost rate, so the first traffic
     fires; constant load never drifts 20% past the post-reconfig
     baseline again. *)
  Alcotest.(check int) "exactly one reconfiguration" 1
    run.Event_engine.reconfigurations;
  Alcotest.(check bool) "the first event fired" true
    run.Event_engine.records.(0).Event_engine.fired

let spike_stream sc =
  (* rates ×1 (fire), ×10 (spike while disarmed), ×1 (re-arm), ×10
     (spike while armed → fire). *)
  let flows = Problem.flows sc.Scenario.problem in
  let base = Ppdc_traffic.Flow.base_rates flows in
  let at scale = Array.map (fun r -> r *. scale) base in
  Events.of_trace
    (Trace.make ~flows ~rates:[| at 1.0; at 10.0; at 1.0; at 10.0 |])

let test_hysteresis_disarms_and_rearms () =
  let sc = scenario ~seed:3 () in
  let run =
    Event_engine.run sc ~policy:Engine.Mpareto
      ~trigger:(Event_engine.Hysteresis { up = 1.5; down = 1.1 })
      ~events:(spike_stream sc) ()
  in
  let fired =
    Array.to_list
      (Array.map (fun r -> r.Event_engine.fired) run.Event_engine.records)
  in
  (* t0 fires (baseline was zero); t1's spike finds the trigger
     disarmed; t2's return to baseline re-arms it; t3's spike fires. *)
  Alcotest.(check (list bool)) "disarm then re-arm"
    [ true; false; false; true ]
    fired;
  let threshold =
    Event_engine.run sc ~policy:Engine.Mpareto
      ~trigger:(Event_engine.Threshold 1.5) ~events:(spike_stream sc) ()
  in
  (* Without the disarm, the same spike at t1 fires too. *)
  Alcotest.(check bool) "threshold fires on the t1 spike" true
    threshold.Event_engine.records.(1).Event_engine.fired

(* --- timeline order ------------------------------------------------------- *)

let kinds_of (run : Event_engine.run) =
  Array.to_list
    (Array.map (fun (r : Event_engine.event_record) -> r.kind)
       run.Event_engine.records)

(* Events at one time replay in the order the stream lists them: the
   kinds come back in stream order, and the later of two equal-time rate
   vectors is the one in force afterwards. *)
let test_equal_times_keep_stream_order () =
  let sc = scenario ~seed:3 () in
  let l = Problem.num_flows sc.Scenario.problem in
  let vector flow rate =
    let v = Array.make l 0.0 in
    v.(flow) <- rate;
    v
  in
  let first = vector 0 5.0 and second = vector 1 2.0 in
  let at kind = { Events.time = 0.5; kind } in
  let stream =
    Events.make ~horizon:1.0
      [
        at Events.Probe;
        at (Events.Rate_update first);
        at Events.Probe;
        at (Events.Rate_update second);
        at Events.Probe;
      ]
  in
  let run =
    Event_engine.run sc ~policy:Engine.No_migration
      ~trigger:Event_engine.On_event ~events:stream ()
  in
  Alcotest.(check (list string)) "stream order"
    [ "probe"; "rate_update"; "probe"; "rate_update"; "probe" ]
    (kinds_of run);
  check_bits "the later vector is charged over the tail"
    (0.5
    *. Cost.comm_cost sc.Scenario.problem ~rates:second
         run.Event_engine.initial_placement)
    run.Event_engine.final_comm

(* A link event the fabric cannot take is refused, not replayed. *)
let test_link_errors () =
  let sc = scenario ~seed:1 () in
  let ft = Fat_tree.build 4 in
  let u, v, w = List.hd (Ppdc_topology.Graph.edges ft.graph) in
  let host = ft.hosts.(0) in
  let refused name kind =
    Alcotest.(check bool) name true
      (try
         ignore
           (Event_engine.run sc ~policy:Engine.No_migration
              ~trigger:Event_engine.On_event
              ~events:(Events.make ~horizon:1.0 [ { Events.time = 0.5; kind } ])
              ());
         false
       with Invalid_argument _ -> true)
  in
  refused "failure of an absent link"
    (Events.Link_failure { u = ft.core.(0); v = ft.core.(1) });
  let uplink = Fat_tree.edge_switch_of_host ft host in
  refused "failure of a host's only uplink"
    (Events.Link_failure { u = host; v = uplink });
  refused "repair of a present link" (Events.Link_repair { u; v; weight = w });
  refused "repair out of range"
    (Events.Link_repair { u = 0; v = 10_000; weight = 1.0 })

(* --- cost accounting ------------------------------------------------------ *)

let test_elapsed_time_charging () =
  let sc = scenario ~seed:6 () in
  let l = Problem.num_flows sc.Scenario.problem in
  let rates = Array.make l 0.0 in
  rates.(0) <- 50.0;
  let stream =
    Events.make ~horizon:1.0
      [
        { Events.time = 0.25; kind = Events.Rate_update rates };
        { Events.time = 0.75; kind = Events.Rate_update (Array.make l 0.0) };
      ]
  in
  let run =
    Event_engine.run sc ~policy:Engine.No_migration
      ~trigger:Event_engine.On_event ~events:stream ()
  in
  let c =
    Cost.comm_cost sc.Scenario.problem ~rates run.Event_engine.initial_placement
  in
  check_bits "pre-traffic segment is free"
    0.0 run.Event_engine.records.(0).Event_engine.comm_charge;
  check_bits "active segment charges 0.5 × C_a" (0.5 *. c)
    run.Event_engine.records.(1).Event_engine.comm_charge;
  check_bits "post-departure tail is free" 0.0 run.Event_engine.final_comm;
  check_bits "total" (0.5 *. c) run.Event_engine.total_comm

let test_failure_episode_replay () =
  let sc = scenario ~seed:7 () in
  let episode =
    Scenario.failure_episode ~rng:(Rng.create 11) ~at:3.0 ~duration:4.0
      ~fraction:0.15 sc
  in
  Alcotest.(check bool) "episode failed something" true
    (Events.length episode > 0);
  let stream = Events.merge (Scenario.events_of_diurnal sc) episode in
  let go () =
    Event_engine.run sc ~policy:Engine.Mpareto
      ~trigger:(Event_engine.Periodic 1.0) ~events:stream ()
  in
  let run = go () and again = go () in
  check_bits "deterministic replay" run.Event_engine.total_cost
    again.Event_engine.total_cost;
  let kinds =
    Array.fold_left
      (fun acc (r : Event_engine.event_record) ->
        if List.mem r.kind acc then acc else r.kind :: acc)
      [] run.Event_engine.records
  in
  Alcotest.(check bool) "failures and repairs were processed" true
    (List.mem "link_failure" kinds && List.mem "link_repair" kinds);
  (* Degraded fabric can only cost more: compare against the
     episode-free day under the same trigger. *)
  let clean =
    Event_engine.run sc ~policy:Engine.No_migration
      ~trigger:(Event_engine.Periodic 1.0)
      ~events:(Scenario.events_of_diurnal sc) ()
  in
  let degraded =
    Event_engine.run sc ~policy:Engine.No_migration
      ~trigger:(Event_engine.Periodic 1.0) ~events:stream ()
  in
  Alcotest.(check bool) "failures never cheapen a frozen placement" true
    (degraded.Event_engine.total_comm >= clean.Event_engine.total_comm -. 1e-9)

(* --- stream constructors -------------------------------------------------- *)

let test_of_trace_structure () =
  let sc = scenario ~seed:1 () in
  let flows = Problem.flows sc.Scenario.problem in
  let trace = Trace.of_diurnal Diurnal.default ~flows in
  let stream = Events.of_trace trace in
  Alcotest.(check int) "one event per epoch plus the horizon vector"
    (Trace.num_epochs trace + 1)
    (Events.length stream);
  check_bits "horizon = epochs"
    (float_of_int (Trace.num_epochs trace))
    (Events.horizon stream);
  let vector (e : Events.event) =
    match e.kind with
    | Events.Rate_update v -> v
    | _ -> Alcotest.fail "of_trace emits only rate vectors"
  in
  List.iteri
    (fun i (e : Events.event) ->
      check_bits "event i sits at time i" (float_of_int i) e.time;
      let expected =
        if i < Trace.num_epochs trace then Trace.rates_at trace ~epoch:i
        else Array.make (Array.length flows) 0.0
      in
      Alcotest.(check (array int64))
        "epoch i's vector, then the all-zero vector at the horizon"
        (Array.map bits expected)
        (Array.map bits (vector e)))
    (Events.events stream)

let test_merge_is_stable () =
  let ev t = { Events.time = t; kind = Events.Probe } in
  let a = Events.make ~horizon:2.0 [ ev 0.5; ev 1.0 ] in
  let b =
    Events.make ~horizon:3.0
      [ { Events.time = 1.0; kind = Events.Rate_update [| 0.0 |] } ]
  in
  let m = Events.merge a b in
  check_bits "horizon is the max" 3.0 (Events.horizon m);
  match Events.events m with
  | [ e1; e2; e3 ] ->
      check_bits "sorted" 0.5 e1.Events.time;
      (match (e2.Events.kind, e3.Events.kind) with
      | Events.Probe, Events.Rate_update _ -> ()
      | _ -> Alcotest.fail "equal-time events must keep a-before-b order")
  | _ -> Alcotest.fail "expected three events"

let test_trigger_parsing () =
  let roundtrip s t =
    Alcotest.(check string) s
      (Event_engine.trigger_name t)
      (Event_engine.trigger_name (Event_engine.trigger_of_string s))
  in
  roundtrip "periodic:1.5" (Event_engine.Periodic 1.5);
  roundtrip "threshold:1.3" (Event_engine.Threshold 1.3);
  roundtrip "hysteresis:1.5,1.1"
    (Event_engine.Hysteresis { up = 1.5; down = 1.1 });
  roundtrip "on-event" Event_engine.On_event;
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true
        (try
           ignore (Event_engine.trigger_of_string s);
           false
         with Invalid_argument _ -> true))
    [ "periodic:-1"; "periodic:nope"; "hysteresis:1.0,2.0"; "sometimes"; "" ]

let test_stream_validation () =
  let reject name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  reject "negative time" (fun () ->
      Events.make ~horizon:1.0 [ { Events.time = -1.0; kind = Events.Probe } ]);
  reject "negative rate" (fun () ->
      Events.make ~horizon:1.0
        [ { Events.time = 0.0; kind = Events.Rate_update [| 1.0; -1.0 |] } ]);
  reject "nan rate" (fun () ->
      Events.make ~horizon:1.0
        [ { Events.time = 0.0; kind = Events.Rate_update [| Float.nan; 1.0 |] } ]);
  reject "self-loop link" (fun () ->
      Events.make ~horizon:1.0
        [ { Events.time = 0.0; kind = Events.Link_failure { u = 3; v = 3 } } ]);
  reject "nan horizon" (fun () -> Events.make ~horizon:Float.nan []);
  reject "nan time" (fun () ->
      Events.make ~horizon:1.0 [ { Events.time = Float.nan; kind = Events.Probe } ]);
  (* A vector of the wrong length is refused before any event is
     replayed: the failure of an absent link at t = 0 would raise a
     different message if it were replayed first. A vector past the
     horizon, which only a forecast reads, is refused too. *)
  let sc = scenario ~seed:1 () in
  let l = Problem.num_flows sc.Scenario.problem in
  let ft = Fat_tree.build 4 in
  let absent = Events.Link_failure { u = ft.core.(0); v = ft.core.(1) } in
  List.iter
    (fun (name, time, len) ->
      let events =
        Events.make ~horizon:1.0
          [
            { Events.time = 0.0; kind = absent };
            { Events.time; kind = Events.Rate_update (Array.make len 1.0) };
          ]
      in
      match
        Event_engine.run sc ~policy:Engine.No_migration
          ~trigger:Event_engine.On_event ~events ()
      with
      | _ -> Alcotest.failf "%s: accepted" name
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (name ^ " refused before the replay: " ^ msg)
            true
            (String.starts_with ~prefix:"Event_engine.run: the rate vector"
               msg))
    [
      ("a short vector", 0.5, l - 1);
      ("a long vector", 0.5, l + 1);
      ("a short vector past the horizon", 2.0, l - 1);
    ]

(* One stream replays identically any number of times: the engine
   copies a rate event's values into its own vector and never writes
   into the stream's. Covers the live vector, the [Hour1] deployment's
   first vector and the look-ahead forecast. *)
let test_replay_leaves_stream_intact () =
  let sc =
    Scenario.make ~mu:1e3 ~initial:Scenario.Hour1 (problem ~seed:4 ())
  in
  let stream =
    Events.merge (Scenario.events_of_diurnal sc)
      (Events.probes ~every:0.5 ~horizon:12.0)
  in
  let vectors () =
    List.filter_map
      (fun (e : Events.event) ->
        match e.kind with
        | Events.Rate_update v -> Some (Array.map bits v)
        | _ -> None)
      (Events.events stream)
  in
  let before = vectors () in
  let records () =
    let run =
      Event_engine.run sc ~policy:Engine.Mpareto_lookahead
        ~trigger:(Event_engine.Threshold 1.1) ~events:stream ()
    in
    Array.to_list
      (Array.map
         (fun (r : Event_engine.event_record) ->
           Printf.sprintf "%h %s %h %b %h %d" r.time r.kind r.comm_charge
             r.fired r.migration_cost r.moved)
         run.Event_engine.records)
    @ [
        Printf.sprintf "%h %h" run.Event_engine.final_comm
          run.Event_engine.total_cost;
      ]
  in
  let first = records () in
  Alcotest.(check (list string)) "second replay, record for record" first
    (records ());
  Alcotest.(check (list (array int64))) "the stream's vectors are unchanged"
    before (vectors ())

(* Events.probes refuses a schedule of more than 10,000 ticks instead
   of building it; the finest one in use, a quarter hour over the 12 h
   day, is far below the cap. *)
let test_probe_cap () =
  let refused every horizon =
    match Events.probes ~every ~horizon with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "0.001 h over 12 h refused" true (refused 0.001 12.0);
  Alcotest.(check int) "0.25 h over 12 h" 47
    (Events.length (Events.probes ~every:0.25 ~horizon:12.0));
  Alcotest.(check int) "exactly 10,000 ticks" 10_000
    (Events.length (Events.probes ~every:1.0 ~horizon:10_001.0));
  Alcotest.(check bool) "10,001 ticks refused" true (refused 1.0 10_001.5)

(* --- observability -------------------------------------------------------- *)

let test_metrics_instrumentation () =
  let module Obs = Ppdc_prelude.Obs in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled false)
    (fun () ->
      let sc = scenario ~seed:2 () in
      let run =
        Event_engine.run sc ~policy:Engine.Mpareto
          ~trigger:(Event_engine.Periodic 2.0)
          ~events:(Scenario.events_of_diurnal sc) ()
      in
      let snap = Obs.snapshot () in
      let events =
        List.filter (fun (e : Obs.event) -> e.Obs.name = "sim.event")
          snap.Obs.events
      in
      Alcotest.(check int) "one sim.event per processed event"
        (Array.length run.Event_engine.records)
        (List.length events);
      Alcotest.(check bool) "trigger counter" true
        (List.exists
           (fun (name, v) ->
             name = "sim.trigger.periodic"
             && v = run.Event_engine.reconfigurations)
           snap.Obs.counters);
      Alcotest.(check bool) "reconfig span recorded" true
        (List.mem_assoc "sim.reconfig" snap.Obs.spans);
      Alcotest.(check bool) "policy step span recorded" true
        (List.mem_assoc "sim.step.mPareto" snap.Obs.spans))

let () =
  Alcotest.run "ppdc_events"
    [
      ( "equivalence",
        [
          Alcotest.test_case "bit-identical across domain counts" `Quick
            test_equivalence_across_domains;
        ] );
      ( "triggers",
        [
          Alcotest.test_case "on-event fires everywhere" `Quick
            test_on_event_fires_everywhere;
          Alcotest.test_case "periodic span" `Quick test_periodic_span;
          Alcotest.test_case "threshold fires once on constant load" `Quick
            test_threshold_fires_once_on_constant_load;
          Alcotest.test_case "hysteresis disarms and re-arms" `Quick
            test_hysteresis_disarms_and_rearms;
          Alcotest.test_case "trigger spec parsing" `Quick test_trigger_parsing;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "equal times keep stream order" `Quick
            test_equal_times_keep_stream_order;
          Alcotest.test_case "refused link events" `Quick test_link_errors;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "elapsed-time comm charging" `Quick
            test_elapsed_time_charging;
          Alcotest.test_case "failure episode replay" `Quick
            test_failure_episode_replay;
        ] );
      ( "streams",
        [
          Alcotest.test_case "of_trace structure" `Quick test_of_trace_structure;
          Alcotest.test_case "merge stability" `Quick test_merge_is_stable;
          Alcotest.test_case "stream validation" `Quick test_stream_validation;
          Alcotest.test_case "replay leaves the stream intact" `Quick
            test_replay_leaves_stream_intact;
          Alcotest.test_case "probe tick cap" `Quick test_probe_cap;
        ] );
      ( "observability",
        [
          Alcotest.test_case "sim.event / sim.trigger / sim.reconfig" `Quick
            test_metrics_instrumentation;
        ] );
    ]
