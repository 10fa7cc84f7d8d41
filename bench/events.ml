(* Event-simulator bench: the committed cost trajectory of the
   discrete-event reconfiguration day (BENCH_events.json).

   Unlike the flatgraph/dynamic benches this one records no wall
   times: every entry is a deterministic statistic of one seeded
   replay (communication cost, VNF moves, reconfiguration count), so
   the committed artifact reproduces bit-for-bit on any machine and
   `--check` compares every entry exactly: it detects behavior drift,
   not slowdown.

   Two in-run invariants back the eta-sweep experiment's claims and
   fail the bench if a change breaks them:

   - the mu trade-off: along the migration-coefficient sweep (under a
     fixed threshold trigger) migration traffic is non-increasing and
     communication cost non-decreasing in mu;
   - trigger dominance: at the same mu, the adaptive triggers
     (threshold, hysteresis) spend no more reconfigurations than the
     periodic baseline while landing a total cost no worse than
     [dominance_slack] of it. *)

module Bench = Bench_common
module Event_engine = Ppdc_sim.Event_engine

let reference_entry = "comm_mu1e2"
let seed = 17
let mu_sweep = [ (1e2, "1e2"); (1e3, "1e3"); (1e4, "1e4"); (1e5, "1e5") ]
let trigger_mu = 1e4
let dominance_slack = 1.005

(* One eta_sweep trial: its composite day on its k=4 instance. *)
let replay ~mu ~trigger =
  Ppdc_experiments.Eta_sweep.replay ~mu ~trigger ~seed ~k:4 ~l:10 ~n:4

let triggers =
  [
    ("periodic", Event_engine.Periodic 1.0);
    ("threshold", Event_engine.Threshold 1.2);
    ("hysteresis", Event_engine.Hysteresis { up = 1.2; down = 1.05 });
  ]

let run ~quick:_ t =
  List.iter
    (fun (mu, tag) ->
      let r = replay ~mu ~trigger:(Event_engine.Threshold 1.2) in
      Bench.record_value t ("comm_mu" ^ tag) r.Event_engine.total_comm;
      Bench.record_value t ("moves_mu" ^ tag)
        (float_of_int r.Event_engine.total_moves))
    mu_sweep;
  List.iter
    (fun (name, trigger) ->
      let r = replay ~mu:trigger_mu ~trigger in
      Bench.record_value t ("total_" ^ name) r.Event_engine.total_cost;
      Bench.record_value t ("reconfigs_" ^ name)
        (float_of_int r.Event_engine.reconfigurations))
    triggers

let value name entries =
  match Bench.find name entries with
  | Some e -> e.Bench.seconds
  | None -> failwith ("events bench: missing entry " ^ name)

let post ~quick:_ entries =
  let die fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.printf "bench-check: %s\n" msg;
        exit 1)
      fmt
  in
  (* The mu trade-off, within this very run. *)
  let rec pairwise = function
    | (_, a) :: ((_, b) :: _ as rest) ->
        let comm_a = value ("comm_mu" ^ a) entries
        and comm_b = value ("comm_mu" ^ b) entries
        and moves_a = value ("moves_mu" ^ a) entries
        and moves_b = value ("moves_mu" ^ b) entries in
        if moves_b > moves_a then
          die "migration traffic rose with mu (%s: %g -> %s: %g)" a moves_a b
            moves_b;
        if comm_b < comm_a then
          die "communication cost fell with mu (%s: %g -> %s: %g)" a comm_a b
            comm_b;
        pairwise rest
    | _ -> ()
  in
  pairwise mu_sweep;
  Printf.printf
    "mu trade-off: moves non-increasing, comm non-decreasing over %d points\n"
    (List.length mu_sweep);
  (* Trigger dominance at equal budget. *)
  let p_total = value "total_periodic" entries
  and p_reconfigs = value "reconfigs_periodic" entries in
  List.iter
    (fun name ->
      let total = value ("total_" ^ name) entries
      and reconfigs = value ("reconfigs_" ^ name) entries in
      if reconfigs > p_reconfigs then
        die "%s used more reconfigurations than periodic (%g > %g)" name
          reconfigs p_reconfigs;
      if total > p_total *. dominance_slack then
        die "%s total %.1f exceeds periodic %.1f beyond %.1f%% slack" name
          total p_total
          (100.0 *. (dominance_slack -. 1.0)))
    [ "threshold"; "hysteresis" ];
  Printf.printf
    "trigger dominance: adaptive triggers within %.1f%% of periodic at a \
     smaller reconfiguration budget\n"
    (100.0 *. (dominance_slack -. 1.0))

let () = Bench.main ~bench:"events" ~reference:reference_entry ~post run
