module Flow = Ppdc_traffic.Flow
module Workload = Ppdc_traffic.Workload
module Diurnal = Ppdc_traffic.Diurnal
module Fat_tree = Ppdc_topology.Fat_tree
module Rng = Ppdc_prelude.Rng

(* --- flows -------------------------------------------------------------- *)

let test_flow_make_and_rates () =
  let f = Flow.make ~id:0 ~src_host:3 ~dst_host:7 ~base_rate:42.0 ~coast:East in
  Alcotest.(check int) "id" 0 f.id;
  let flows =
    [| f; Flow.make ~id:1 ~src_host:1 ~dst_host:2 ~base_rate:8.0 ~coast:West |]
  in
  Alcotest.(check (array (float 0.0))) "base rates" [| 42.0; 8.0 |]
    (Flow.base_rates flows);
  Alcotest.(check (float 0.0)) "total" 50.0
    (Flow.total_rate (Flow.base_rates flows))

let test_flow_rejects_negative () =
  Alcotest.(check bool) "negative rate" true
    (try
       ignore (Flow.make ~id:0 ~src_host:0 ~dst_host:1 ~base_rate:(-1.0) ~coast:East);
       false
     with Invalid_argument _ -> true)

(* --- workload generator --------------------------------------------------- *)

let test_rate_mix_buckets () =
  let rng = Rng.create 42 in
  let light = ref 0 and medium = ref 0 and heavy = ref 0 in
  let samples = 20_000 in
  for _ = 1 to samples do
    let r = Workload.sample_rate rng Workload.facebook_mix in
    Alcotest.(check bool) "rate in [0, 10000]" true (r >= 0.0 && r <= 10_000.0);
    if r < 3000.0 then incr light
    else if r <= 7000.0 then incr medium
    else incr heavy
  done;
  let share x = float_of_int !x /. float_of_int samples in
  Alcotest.(check bool) "~25% light" true (Float.abs (share light -. 0.25) < 0.02);
  Alcotest.(check bool) "~70% medium" true (Float.abs (share medium -. 0.70) < 0.02);
  Alcotest.(check bool) "~5% heavy" true (Float.abs (share heavy -. 0.05) < 0.01)

let test_rack_locality () =
  let ft = Fat_tree.build 8 in
  let rng = Rng.create 7 in
  let flows = Workload.generate_on_fat_tree ~rng ~l:5000 ft in
  let local = ref 0 in
  Array.iter
    (fun (f : Flow.t) ->
      if Fat_tree.rack_of_host ft f.src_host = Fat_tree.rack_of_host ft f.dst_host
      then incr local)
    flows;
  let share = float_of_int !local /. 5000.0 in
  Alcotest.(check bool) "~80% intra-rack" true (Float.abs (share -. 0.8) < 0.03)

let test_coast_split () =
  (* Coast follows the source pod, so with uniform rack draws roughly
     half the flows are on each coast — and the assignment is exactly
     "first half of the pods = east". *)
  let ft = Fat_tree.build 4 in
  let rng = Rng.create 7 in
  let flows = Workload.generate_on_fat_tree ~rng ~l:1000 ft in
  let east = ref 0 in
  Array.iter
    (fun (f : Flow.t) ->
      let expected =
        if Fat_tree.pod_of_host ft f.src_host < 2 then Flow.East else Flow.West
      in
      Alcotest.(check bool) "coast matches source pod" true (f.coast = expected);
      if f.coast = East then incr east)
    flows;
  Alcotest.(check bool) "roughly half east" true
    (!east > 400 && !east < 600)

let test_workload_deterministic () =
  let ft = Fat_tree.build 4 in
  let gen seed =
    Workload.generate_on_fat_tree ~rng:(Rng.create seed) ~l:50 ft
  in
  Alcotest.(check bool) "same seed" true (gen 3 = gen 3);
  Alcotest.(check bool) "different seed" true (gen 3 <> gen 4)

let test_generate_on_hosts () =
  let hosts = [| 10; 11; 12 |] in
  let rng = Rng.create 5 in
  let flows = Workload.generate_on_hosts ~rng ~l:200 ~hosts () in
  Array.iter
    (fun (f : Flow.t) ->
      Alcotest.(check bool) "src from pool" true (Array.exists (( = ) f.src_host) hosts);
      Alcotest.(check bool) "dst from pool" true (Array.exists (( = ) f.dst_host) hosts))
    flows

(* Racks are drawn uniformly: with 64 racks, no rack sources a tenth of
   2000 flows. *)
let test_uniform_racks_spread () =
  let ft = Fat_tree.build 8 in
  let rng = Rng.create 17 in
  let flows = Workload.generate_on_fat_tree ~rng ~l:2000 ft in
  let per_rack = Hashtbl.create 32 in
  Array.iter
    (fun (f : Flow.t) ->
      let r = Fat_tree.rack_of_host ft f.src_host in
      Hashtbl.replace per_rack r
        (1 + Option.value (Hashtbl.find_opt per_rack r) ~default:0))
    flows;
  let top = Hashtbl.fold (fun _ c acc -> max c acc) per_rack 0 in
  Alcotest.(check bool) "uniform spreads (top rack < 10%)" true
    (float_of_int top /. 2000.0 < 0.1)

let test_redraw_preserves_length () =
  let ft = Fat_tree.build 4 in
  let rng = Rng.create 5 in
  let flows = Workload.generate_on_fat_tree ~rng ~l:30 ft in
  let rates = Workload.redraw_rates ~rng flows in
  Alcotest.(check int) "same length" 30 (Array.length rates);
  Array.iter
    (fun r -> Alcotest.(check bool) "valid range" true (r >= 0.0 && r <= 10_000.0))
    rates

(* --- diurnal model ----------------------------------------------------------- *)

let test_tau_shape () =
  let m = Diurnal.default in
  Alcotest.(check (float 1e-9)) "zero at h=0" 0.0 (Diurnal.tau m 0);
  Alcotest.(check (float 1e-9)) "peak at noon" 0.8 (Diurnal.tau m 6);
  Alcotest.(check (float 1e-9)) "zero at h=N" 0.0 (Diurnal.tau m 12);
  Alcotest.(check (float 1e-9)) "eq9 at h=3" (2.0 *. 3.0 /. 12.0 *. 0.8)
    (Diurnal.tau m 3);
  (* Monotone up to noon, down after. *)
  for h = 1 to 5 do
    Alcotest.(check bool) "rising" true (Diurnal.tau m (h + 1) > Diurnal.tau m h)
  done;
  for h = 6 to 11 do
    Alcotest.(check bool) "falling" true (Diurnal.tau m (h + 1) < Diurnal.tau m h)
  done

let test_tau_out_of_range () =
  let m = Diurnal.default in
  Alcotest.(check (float 1e-9)) "negative hour" 0.0 (Diurnal.tau m (-2));
  Alcotest.(check (float 1e-9)) "past the day" 0.0 (Diurnal.tau m 20)

let test_coast_offset () =
  let m = Diurnal.default in
  Alcotest.(check (float 1e-9)) "west lags by 3h" (Diurnal.tau m 2)
    (Diurnal.scale m ~coast:West ~hour:5);
  Alcotest.(check (float 1e-9)) "east at face value" (Diurnal.tau m 5)
    (Diurnal.scale m ~coast:East ~hour:5);
  (* The offset wraps modulo the period: the early west hours carry the
     tail of the west curve (hour 2 ≡ τ_{11}), they are not dead air. *)
  Alcotest.(check (float 1e-9)) "west wraps early" (Diurnal.tau m 11)
    (Diurnal.scale m ~coast:West ~hour:2);
  Alcotest.(check (float 1e-9)) "west curve zero-point at hour 3"
    (Diurnal.tau m 12)
    (Diurnal.scale m ~coast:West ~hour:3)

let test_coast_equal_daily_volume () =
  (* Regression: the clamped (non-wrapping) offset zeroed west hours
     1..3 and dropped the tail of the west curve, so a west flow moved
     strictly less daily volume than an identical east flow. *)
  let m = Diurnal.default in
  let daily coast =
    let total = ref 0.0 in
    for hour = 1 to m.Diurnal.hours do
      total := !total +. Diurnal.scale m ~coast ~hour
    done;
    !total
  in
  Alcotest.(check (float 1e-9)) "east and west daily volume" (daily Flow.East)
    (daily Flow.West)

let test_scale_zero_outside_day () =
  let m = Diurnal.default in
  List.iter
    (fun hour ->
      Alcotest.(check (float 0.0)) "east zero outside day" 0.0
        (Diurnal.scale m ~coast:East ~hour);
      Alcotest.(check (float 0.0)) "west zero outside day" 0.0
        (Diurnal.scale m ~coast:West ~hour))
    [ -1; 0; m.Diurnal.hours + 1; m.Diurnal.hours + 5 ]

let test_rates_at () =
  let m = Diurnal.default in
  let flows =
    [|
      Flow.make ~id:0 ~src_host:0 ~dst_host:1 ~base_rate:1000.0 ~coast:East;
      Flow.make ~id:1 ~src_host:0 ~dst_host:1 ~base_rate:1000.0 ~coast:West;
    |]
  in
  let rates = Diurnal.rates_at m ~flows ~hour:6 in
  Alcotest.(check (float 1e-9)) "east at peak" 800.0 rates.(0);
  Alcotest.(check (float 1e-9)) "west three hours behind" (1000.0 *. Diurnal.tau m 3)
    rates.(1)

(* --- traces -------------------------------------------------------------- *)

let sample_trace () =
  let ft = Fat_tree.build 4 in
  let rng = Rng.create 3 in
  let flows = Workload.generate_on_fat_tree ~rng ~l:6 ft in
  Ppdc_traffic.Trace.of_diurnal Diurnal.default ~flows

let test_trace_of_diurnal () =
  let t = sample_trace () in
  Alcotest.(check int) "12 epochs" 12 (Ppdc_traffic.Trace.num_epochs t);
  Alcotest.(check int) "6 flows" 6 (Ppdc_traffic.Trace.num_flows t);
  (* Epoch 0 is hour 1: west-coast flows run the wrapped tail of their
     curve (τ_{10} for the default 12-hour day). *)
  let m = Ppdc_traffic.Diurnal.default in
  let first = Ppdc_traffic.Trace.rates_at t ~epoch:0 in
  Array.iteri
    (fun i r ->
      if t.flows.(i).Flow.coast = West then
        Alcotest.(check (float 1e-9)) "west tail at hour 1"
          (t.flows.(i).Flow.base_rate *. Ppdc_traffic.Diurnal.tau m 10)
          r)
    first

let test_trace_csv_roundtrip () =
  let t = sample_trace () in
  let t' = Ppdc_traffic.Trace.of_csv (Ppdc_traffic.Trace.to_csv t) in
  Alcotest.(check bool) "flows round-trip" true (t.flows = t'.flows);
  Alcotest.(check bool) "rates round-trip" true (t.rates = t'.rates)

let test_trace_file_roundtrip () =
  let t = sample_trace () in
  let path = Filename.temp_file "ppdc-trace" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ppdc_traffic.Trace.save t ~path;
      let t' = Ppdc_traffic.Trace.load ~path in
      Alcotest.(check bool) "file round-trip" true
        (t.flows = t'.flows && t.rates = t'.rates))

let test_trace_churn () =
  let ft = Fat_tree.build 4 in
  let rng = Rng.create 9 in
  let flows = Workload.generate_on_fat_tree ~rng ~l:20 ft in
  let t = Ppdc_traffic.Trace.churn ~rng:(Rng.create 5) ~epochs:10 flows in
  Alcotest.(check int) "epochs" 10 (Ppdc_traffic.Trace.num_epochs t);
  (* Every flow has a contiguous active window with positive rates. *)
  Array.iteri
    (fun i (f : Flow.t) ->
      let active =
        List.init 10 (fun e -> (Ppdc_traffic.Trace.rates_at t ~epoch:e).(i) > 0.0)
      in
      let switches_on_off =
        List.fold_left
          (fun (prev, changes) now ->
            (now, if now <> prev then changes + 1 else changes))
          (false, 0) active
        |> snd
      in
      Alcotest.(check bool) "window is contiguous" true (switches_on_off <= 2);
      Alcotest.(check bool) "flow is active at least once" true
        (List.exists Fun.id active);
      (* Jitter keeps rates near the base while active. *)
      List.iteri
        (fun e on ->
          if on then begin
            let r = (Ppdc_traffic.Trace.rates_at t ~epoch:e).(i) in
            Alcotest.(check bool) "rate within jitter band" true
              (r >= 0.8 *. f.base_rate -. 1e-9 && r <= 1.2 *. f.base_rate +. 1e-9)
          end)
        active)
    flows

let test_trace_churn_validation () =
  let ft = Fat_tree.build 4 in
  let rng = Rng.create 9 in
  let flows = Workload.generate_on_fat_tree ~rng ~l:2 ft in
  let reject name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  reject "one epoch" (fun () ->
      Ppdc_traffic.Trace.churn ~rng:(Rng.create 1) ~epochs:1 flows)

let test_trace_rejects_garbage () =
  let reject name text =
    Alcotest.(check bool) name true
      (try
         ignore (Ppdc_traffic.Trace.of_csv text);
         false
       with Invalid_argument _ -> true)
  in
  reject "empty" "";
  reject "bad header" "nope\n";
  reject "bad number"
    "flow,src_host,dst_host,base_rate,coast\n0,1,2,xyz,east\n";
  reject "bad coast"
    "flow,src_host,dst_host,base_rate,coast\n0,1,2,1.0,north\n";
  reject "ragged rates"
    "flow,src_host,dst_host,base_rate,coast\n0,1,2,1.0,east\nrates,0,1.0,2.0\n"

let test_trace_epoch_column_validated () =
  (* Regression: the epoch column used to be ignored, so gapped,
     duplicated or reordered rates rows were silently renumbered by
     line position. *)
  let header = "flow,src_host,dst_host,base_rate,coast\n0,1,2,1.0,east\n" in
  let reject name rows =
    Alcotest.(check bool) name true
      (try
         ignore (Ppdc_traffic.Trace.of_csv (header ^ rows));
         false
       with Invalid_argument _ -> true)
  in
  reject "gap" "rates,0,1.0\nrates,2,2.0\n";
  reject "duplicate" "rates,0,1.0\nrates,0,2.0\n";
  reject "reordered" "rates,1,1.0\nrates,0,2.0\n";
  reject "not starting at zero" "rates,1,1.0\n";
  reject "non-integer epoch" "rates,x,1.0\n";
  (* Dense in-order epochs parse, and the epochs keep their indices. *)
  let t = Ppdc_traffic.Trace.of_csv (header ^ "rates,0,1.0\nrates,1,2.0\n") in
  Alcotest.(check (float 0.0)) "epoch 1 kept" 2.0
    (Ppdc_traffic.Trace.rates_at t ~epoch:1).(0);
  (* And to_csv output round-trips through the validation. *)
  let rt = Ppdc_traffic.Trace.of_csv (Ppdc_traffic.Trace.to_csv t) in
  Alcotest.(check int) "round-trip epochs" 2 (Ppdc_traffic.Trace.num_epochs rt)

let prop_tau_bounded =
  QCheck.Test.make ~name:"tau stays within [0, 1]" ~count:500
    QCheck.(pair (int_range (-5) 25) (float_bound_inclusive 1.0))
    (fun (h, tau_min) ->
      let m = { Diurnal.hours = 12; tau_min } in
      let t = Diurnal.tau m h in
      t >= 0.0 && t <= 1.0)

let qsuite name tests = (name, List.map (fun t -> QCheck_alcotest.to_alcotest t) tests)

let () =
  Alcotest.run "ppdc_traffic"
    [
      ( "flow",
        [
          Alcotest.test_case "construction and rate vectors" `Quick
            test_flow_make_and_rates;
          Alcotest.test_case "negative rate rejected" `Quick
            test_flow_rejects_negative;
        ] );
      ( "workload",
        [
          Alcotest.test_case "facebook 25/70/5 rate mix" `Quick
            test_rate_mix_buckets;
          Alcotest.test_case "80% rack locality" `Quick test_rack_locality;
          Alcotest.test_case "coast split" `Quick test_coast_split;
          Alcotest.test_case "seed determinism" `Quick
            test_workload_deterministic;
          Alcotest.test_case "arbitrary host pools" `Quick
            test_generate_on_hosts;
          Alcotest.test_case "rate redraw" `Quick test_redraw_preserves_length;
          Alcotest.test_case "uniform racks spread traffic" `Quick
            test_uniform_racks_spread;
        ] );
      ( "diurnal",
        [
          Alcotest.test_case "Eq. 9 shape" `Quick test_tau_shape;
          Alcotest.test_case "zero outside the day" `Quick test_tau_out_of_range;
          Alcotest.test_case "3-hour coast offset" `Quick test_coast_offset;
          Alcotest.test_case "equal daily volume per coast" `Quick
            test_coast_equal_daily_volume;
          Alcotest.test_case "scale zero outside the day" `Quick
            test_scale_zero_outside_day;
          Alcotest.test_case "per-flow rate vectors" `Quick test_rates_at;
        ] );
      ( "trace",
        [
          Alcotest.test_case "diurnal trace" `Quick test_trace_of_diurnal;
          Alcotest.test_case "csv round-trip" `Quick test_trace_csv_roundtrip;
          Alcotest.test_case "file round-trip" `Quick test_trace_file_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick
            test_trace_rejects_garbage;
          Alcotest.test_case "epoch column validated" `Quick
            test_trace_epoch_column_validated;
          Alcotest.test_case "churn windows" `Quick test_trace_churn;
          Alcotest.test_case "churn validation" `Quick
            test_trace_churn_validation;
        ] );
      qsuite "diurnal-properties" [ prop_tau_bounded ];
    ]
