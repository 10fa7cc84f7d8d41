(* ppdc — command-line front end.

   Subcommands:
     topology    inspect a fat-tree PPDC (summary or Graphviz DOT)
     place       run one VNF placement algorithm on a seeded workload
     migrate     run one migration algorithm after a traffic redraw
     simulate    run a diurnal day (or replay a trace) under a policy
     trace       generate a diurnal workload trace as CSV
     ilp         export the TOP/TOM MIP in CPLEX-LP format
     experiment  regenerate one of the paper's tables/figures
     list        list available experiments
     serve       run the placement/migration RPC daemon (ppdc.rpc/1)
     rpc         send requests to a running ppdc serve daemon *)

open Cmdliner
module Table = Ppdc_prelude.Table
module Rng = Ppdc_prelude.Rng
module Obs = Ppdc_prelude.Obs
module Json = Ppdc_prelude.Json
module Graph = Ppdc_topology.Graph
module Cost_matrix = Ppdc_topology.Cost_matrix
module Flow = Ppdc_traffic.Flow
module Workload = Ppdc_traffic.Workload
module Mode = Ppdc_experiments.Mode
module Registry = Ppdc_experiments.Registry
module Runner = Ppdc_experiments.Runner
module Scenario = Ppdc_sim.Scenario
module Engine = Ppdc_sim.Engine
module Event_engine = Ppdc_sim.Event_engine
open Ppdc_core

(* --- shared arguments -------------------------------------------------- *)

(* [conv] restricted to the values [ok] accepts: a value the library
   would refuse stops when the arguments are parsed (exit 124, with
   [msg]), not as an uncaught exception or a nan answer later. *)
let checked conv ok msg =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg msg)
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let at_least_one what =
  checked Arg.int (fun v -> v >= 1) ("expected " ^ what ^ " of at least 1")

let k_arg =
  let doc = "Fat-tree arity k (even). k=8 gives 128 hosts, k=16 gives 1024." in
  let arity =
    checked Arg.int (fun k -> k >= 2 && k mod 2 = 0)
      "k must be even and at least 2"
  in
  Arg.(value & opt arity 8 & info [ "k" ] ~docv:"K" ~doc)

let l_arg =
  let doc = "Number of communicating VM pairs." in
  let count = at_least_one "a flow count" in
  Arg.(value & opt count 100 & info [ "l"; "flows" ] ~docv:"L" ~doc)

let n_arg =
  let doc = "SFC length (number of VNFs)." in
  let length = at_least_one "a chain length" in
  Arg.(value & opt length 5 & info [ "n"; "vnfs" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed (workloads are fully reproducible)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let mu_arg =
  let doc = "VNF migration coefficient mu (paper: 1e4..1e5)." in
  let coefficient =
    checked Arg.float (fun mu -> Float.is_finite mu && mu >= 0.0)
      "mu must be finite and non-negative"
  in
  Arg.(value & opt coefficient 1e4 & info [ "mu" ] ~docv:"MU" ~doc)

let weighted_arg =
  let doc = "Use uniform link delays (mean 1.5, variance 0.5) instead of hop counts." in
  Arg.(value & flag & info [ "weighted" ] ~doc)

let domains_arg =
  let doc =
    "Number of OCaml domains for the parallel sections (all-pairs \
     shortest paths, DP placement, experiment trials). Defaults to \
     $(b,PPDC_DOMAINS) or the machine's recommended domain count; 1 \
     forces the exact-sequential path. Results are identical for every \
     value."
  in
  Arg.(
    value
    & opt (some (at_least_one "a domain count")) None
    & info [ "j"; "domains" ] ~docv:"DOMAINS" ~doc)

let apply_domains = function
  | None -> ()
  | Some d -> Ppdc_prelude.Parallel.set_domains d

let metrics_arg =
  let doc =
    "Collect metrics (counters, solver span timings, per-epoch events) \
     during the run and write them as NDJSON to $(docv). Setting the \
     $(b,PPDC_METRICS) environment variable to a path does the same \
     without the flag; the flag wins when both are given. Inspect the \
     file with $(b,ppdc metrics-summary)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let with_metrics metrics f =
  let path = match metrics with Some _ -> metrics | None -> Obs.env_path () in
  match path with
  | None -> f ()
  | Some path ->
      Obs.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Obs.export ~path;
          Printf.eprintf "metrics written to %s\n%!" path)
        f

(* Refuse what the arguments alone could not rule out: the message on
   stderr, exit code 1. *)
let refuse cmd msg =
  Printf.eprintf "ppdc %s: %s\n" cmd msg;
  exit 1

(* The converters check k, l and n one by one; an n above the fabric's
   switch count is refused here. *)
let problem_of cmd ~weighted ~k ~l ~n ~seed =
  match Runner.fat_tree_problem ~weighted ~k ~l ~n ~seed () with
  | problem -> problem
  | exception Invalid_argument msg -> refuse cmd msg

(* --- topology ----------------------------------------------------------- *)

let topology_cmd =
  let run j k dot =
    apply_domains j;
    let ft, cm = Runner.unweighted_fat_tree k in
    if dot then
      print_string (Ppdc_topology.Dot.of_graph ft.Ppdc_topology.Fat_tree.graph)
    else begin
    let g = ft.Ppdc_topology.Fat_tree.graph in
    let table =
      Table.create ~title:(Printf.sprintf "k=%d fat-tree PPDC" k)
        ~columns:[ "property"; "value" ]
    in
    Table.add_row table [ "switches"; string_of_int (Graph.num_switches g) ];
    Table.add_row table [ "hosts"; string_of_int (Graph.num_hosts g) ];
    Table.add_row table [ "links"; string_of_int (Graph.num_edges g) ];
    Table.add_row table [ "racks"; string_of_int (Ppdc_topology.Fat_tree.num_racks ft) ];
    Table.add_row table
      [ "diameter (hops)"; Printf.sprintf "%.0f" (Cost_matrix.diameter cm) ];
    Table.print table
    end
  in
  let dot_arg =
    let doc = "Emit the topology as Graphviz DOT instead of a summary." in
    Arg.(value & flag & info [ "dot" ] ~doc)
  in
  let doc = "Inspect a fat-tree PPDC topology." in
  Cmd.v (Cmd.info "topology" ~doc)
    Term.(const run $ domains_arg $ k_arg $ dot_arg)

(* --- place --------------------------------------------------------------- *)

let place_algo_arg =
  let doc = "Placement algorithm: dp (Algo 3), optimal (Algo 4), steering, greedy." in
  Arg.(
    value
    & opt (enum [ ("dp", `Dp); ("optimal", `Optimal); ("steering", `Steering); ("greedy", `Greedy) ]) `Dp
    & info [ "algo" ] ~docv:"ALGO" ~doc)

let place_cmd =
  let run j k l n seed weighted algo metrics =
    apply_domains j;
    with_metrics metrics @@ fun () ->
    let problem = problem_of "place" ~weighted ~k ~l ~n ~seed in
    let rates = Flow.base_rates (Problem.flows problem) in
    let name, placement, cost =
      match algo with
      | `Dp ->
          let o = Placement_dp.solve problem ~rates () in
          ("DP (Algo 3)", o.placement, o.cost)
      | `Optimal ->
          let o = Placement_opt.solve problem ~rates () in
          ( (if o.proven_optimal then "Optimal (Algo 4)" else "Optimal* (budget hit)"),
            o.placement,
            o.cost )
      | `Steering ->
          let o = Ppdc_baselines.Steering.place problem ~rates in
          ("Steering [55]", o.placement, o.cost)
      | `Greedy ->
          let o = Ppdc_baselines.Greedy_liu.place problem ~rates in
          ("Greedy [34]", o.placement, o.cost)
    in
    Format.printf "%s placement: %a@.C_a = %.1f@." name Placement.pp placement
      cost
  in
  let doc = "Place an SFC with one of the TOP algorithms." in
  Cmd.v (Cmd.info "place" ~doc)
    Term.(
      const run $ domains_arg $ k_arg $ l_arg $ n_arg $ seed_arg
      $ weighted_arg $ place_algo_arg $ metrics_arg)

(* --- migrate -------------------------------------------------------------- *)

let migrate_algo_arg =
  let doc = "Migration algorithm: mpareto (Algo 5), optimal (Algo 6), plan, mcf, none." in
  Arg.(
    value
    & opt
        (enum
           [ ("mpareto", `Mpareto); ("optimal", `Optimal); ("plan", `Plan);
             ("mcf", `Mcf); ("none", `None) ])
        `Mpareto
    & info [ "algo" ] ~docv:"ALGO" ~doc)

let migrate_cmd =
  let run j k l n seed weighted mu algo metrics =
    apply_domains j;
    with_metrics metrics @@ fun () ->
    let problem = problem_of "migrate" ~weighted ~k ~l ~n ~seed in
    let rates0 = Flow.base_rates (Problem.flows problem) in
    let current = (Placement_dp.solve problem ~rates:rates0 ()).placement in
    let rng = Rng.create (seed + 1000) in
    let rates = Workload.redraw_rates ~rng (Problem.flows problem) in
    let stale = Cost.comm_cost problem ~rates current in
    Format.printf "initial placement: %a@.stale C_a after rate redraw: %.1f@."
      Placement.pp current stale;
    (match algo with
    | `Mpareto ->
        let o = Mpareto.migrate problem ~rates ~mu ~current () in
        Format.printf
          "mPareto: moved %d VNFs, C_b = %.1f, C_a = %.1f, C_t = %.1f@."
          o.moved o.migration_cost o.comm_cost o.total_cost
    | `Optimal ->
        let o = Migration_opt.solve problem ~rates ~mu ~current () in
        Format.printf "Optimal%s: C_t = %.1f, %d nodes explored@."
          (if o.proven_optimal then "" else "*")
          o.cost o.explored
    | `Plan ->
        let o = Ppdc_baselines.Plan.migrate problem ~rates ~mu_vm:mu ~placement:current in
        Format.printf "PLAN: moved %d VMs, C_b = %.1f, C_a = %.1f, C_t = %.1f@."
          o.migrations o.migration_cost o.comm_cost o.total_cost
    | `Mcf ->
        let o =
          Ppdc_baselines.Mcf_migration.migrate problem ~rates ~mu_vm:mu
            ~placement:current ()
        in
        Format.printf "MCF: moved %d VMs, C_b = %.1f, C_a = %.1f, C_t = %.1f@."
          o.migrations o.migration_cost o.comm_cost o.total_cost
    | `None ->
        let o = Ppdc_baselines.No_migration.evaluate problem ~rates ~placement:current in
        Format.printf "NoMigration: C_t = %.1f@." o.total_cost)
  in
  let doc = "Migrate after a traffic redraw with one of the TOM algorithms." in
  Cmd.v (Cmd.info "migrate" ~doc)
    Term.(
      const run $ domains_arg $ k_arg $ l_arg $ n_arg $ seed_arg
      $ weighted_arg $ mu_arg $ migrate_algo_arg $ metrics_arg)

(* --- simulate ------------------------------------------------------------- *)

let policy_arg =
  let doc =
    "Migration policy: mpareto, optimal, forecast (mPareto with a perfect \
     one-hour forecast), plan, mcf, none."
  in
  Arg.(
    value
    & opt (enum Engine.policies) Engine.Mpareto
    & info [ "policy" ] ~docv:"POLICY" ~doc)

let trace_cmd =
  let run k l seed output =
    let ft, _ = Runner.unweighted_fat_tree k in
    let rng = Rng.create seed in
    let flows = Workload.generate_on_fat_tree ~rng ~l ft in
    let trace =
      Ppdc_traffic.Trace.of_diurnal Ppdc_traffic.Diurnal.default ~flows
    in
    (match output with
    | Some path ->
        Ppdc_traffic.Trace.save trace ~path;
        Printf.printf "wrote %d flows x %d epochs to %s\n"
          (Ppdc_traffic.Trace.num_flows trace)
          (Ppdc_traffic.Trace.num_epochs trace)
          path
    | None -> print_string (Ppdc_traffic.Trace.to_csv trace))
  in
  let output_arg =
    let doc = "Write the trace to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let doc = "Generate a diurnal workload trace (CSV) for later replay." in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ k_arg $ l_arg $ seed_arg $ output_arg)

(* Finite rates can still overflow the day's cost (a trace row of
   1e308s); such a day is refused before any of it prints, as the
   daemon refuses such an answer. A policy that refuses the costs
   itself (mcf's flow network takes finite arc costs only) raises
   [Invalid_argument], refused the same way. *)
let check_day_total total =
  if not (Float.is_finite total) then
    refuse "simulate"
      (Printf.sprintf "the rates overflow the day's cost to %g" total)

(* The per-event view of `simulate`: the day's trace as an event
   stream, replayed by Event_engine under a when-to-migrate trigger,
   optionally enriched with probe ticks and a failure episode. *)
let simulate_events scenario ~trace ~seed ~policy ~trigger ~probe_every
    ~failure_at =
  let module Events = Ppdc_traffic.Events in
  let refuse = refuse "simulate" in
  let base = Events.of_trace trace in
  let horizon = Events.horizon base in
  let stream = ref base in
  (match probe_every with
  | None -> ()
  | Some every -> (
      match Events.probes ~every ~horizon with
      | probes -> stream := Events.merge !stream probes
      | exception Invalid_argument msg -> refuse msg));
  (match failure_at with
  | None -> ()
  | Some at ->
      let duration = 1.5 in
      let episode =
        match
          Scenario.failure_episode
            ~rng:(Rng.create (seed + 0xfa11))
            ~at ~duration ~fraction:0.05 scenario
        with
        | episode -> episode
        | exception Invalid_argument msg -> refuse msg
      in
      (* The replay stops at the day's horizon: repairs at or past it
         are never replayed, and the merged stream would take the
         episode's later horizon and replay the day's closing vector. *)
      if not (at +. duration < horizon) then
        refuse
          (Printf.sprintf
             "--failure-at %g: the repairs at T + %g h must land before the \
              day ends at %g h, so T must be below %g"
             at duration horizon (horizon -. duration));
      stream := Events.merge !stream episode);
  let r =
    match Event_engine.run scenario ~policy ~trigger ~events:!stream () with
    | r -> r
    | exception Invalid_argument msg -> refuse msg
  in
  check_day_total r.total_cost;
  let table =
    Table.create
      ~title:
        (Printf.sprintf "event-driven day: %s, trigger %s (mu=%g)"
           (Engine.policy_name policy)
           (Event_engine.trigger_name trigger)
           scenario.Scenario.mu)
      ~columns:[ "time"; "event"; "comm"; "fired"; "migration"; "moves" ]
  in
  Array.iter
    (fun (e : Event_engine.event_record) ->
      Table.add_row table
        [
          Printf.sprintf "%.2f" e.time;
          e.kind;
          Printf.sprintf "%.0f" e.comm_charge;
          (if e.fired then "*" else "");
          Printf.sprintf "%.0f" e.migration_cost;
          string_of_int e.moved;
        ])
    r.records;
  Table.print table;
  Printf.printf
    "day total: %.0f (comm %.0f + migration %.0f; %d reconfigurations, %d \
     moves)\n"
    r.total_cost r.total_comm r.total_migration r.reconfigurations
    r.total_moves

let trigger_conv =
  let parse s =
    match Event_engine.trigger_of_string s with
    | t -> Ok t
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv
    ( parse,
      fun fmt t ->
        Format.pp_print_string fmt (Event_engine.trigger_name t) )

let simulate_cmd =
  let run j k l n seed mu policy trace_path events trigger probe_every
      failure_at metrics =
    apply_domains j;
    with_metrics metrics @@ fun () ->
    let problem = problem_of "simulate" ~weighted:false ~k ~l ~n ~seed in
    (* The day to replay: the --trace file on this fabric, or the
       diurnal model on the seeded workload. A file that does not parse,
       whose flows are not host pairs of this fabric, or that holds no
       epoch to replay is refused before anything runs. *)
    let problem, trace =
      match trace_path with
      | None ->
          ( problem,
            Ppdc_traffic.Trace.of_diurnal Ppdc_traffic.Diurnal.default
              ~flows:(Problem.flows problem) )
      | Some path -> (
          match
            let trace = Ppdc_traffic.Trace.load ~path in
            ( Problem.make ~cm:(Problem.cm problem)
                ~flows:trace.Ppdc_traffic.Trace.flows ~n:(Problem.n problem) (),
              trace )
          with
          | exception Invalid_argument msg -> refuse "simulate" msg
          | _, trace when Ppdc_traffic.Trace.num_epochs trace = 0 ->
              refuse "simulate"
                (Printf.sprintf "--trace %s: no rates rows to replay" path)
          | day -> day)
    in
    let scenario = Scenario.make ~mu problem in
    if
      events || Option.is_some trigger || Option.is_some probe_every
      || Option.is_some failure_at
    then
      simulate_events scenario ~trace ~seed ~policy
        ~trigger:(Option.value ~default:(Event_engine.Periodic 1.0) trigger)
        ~probe_every ~failure_at
    else begin
      let run =
        match Event_engine.run_trace scenario ~policy ~trace with
        | run -> run
        | exception Invalid_argument msg -> refuse "simulate" msg
      in
      check_day_total run.total_cost;
      let table =
        Table.create
          ~title:
            (Printf.sprintf "simulated day: %s (k=%d, l=%d, n=%d, mu=%g)"
               (Engine.policy_name policy) k l n mu)
          ~columns:[ "hour"; "comm"; "migration"; "moves"; "total" ]
      in
      Array.iter
        (fun (h : Engine.hour_record) ->
          Table.add_row table
            [
              string_of_int h.hour;
              Printf.sprintf "%.0f" h.comm_cost;
              Printf.sprintf "%.0f" h.migration_cost;
              string_of_int h.migrations;
              Printf.sprintf "%.0f" h.total_cost;
            ])
        run.hours;
      Table.print table;
      Printf.printf "day total: %.0f (%d migrations)\n" run.total_cost
        run.total_migrations
    end
  in
  let trace_arg =
    let doc = "Replay a trace file (from $(b,ppdc trace)) instead of the built-in diurnal model; -l and --seed are then ignored for the workload." in
    Arg.(
      value & opt (some non_dir_file) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let events_arg =
    let doc =
      "Print the day event by event instead of hour by hour: the day is an \
       event stream (one rate update per hour, or per trace epoch with \
       $(b,--trace)) and reconfiguration is decided by $(b,--trigger). \
       Implied by $(b,--trigger), $(b,--probe-every) and $(b,--failure-at)."
    in
    Arg.(value & flag & info [ "events" ] ~doc)
  in
  let trigger_arg =
    let doc =
      "When-to-migrate trigger for $(b,--events): $(b,periodic:SPAN), \
       $(b,threshold:RATIO), $(b,hysteresis:UP,DOWN) or $(b,on-event). \
       Default periodic:1, the hourly day. Implies $(b,--events)."
    in
    Arg.(
      value
      & opt (some trigger_conv) None
      & info [ "trigger" ] ~docv:"TRIGGER" ~doc)
  in
  let probe_every_arg =
    let doc =
      "Add probe ticks every $(docv) hours so triggers can fire between \
       state changes. Implies $(b,--events)."
    in
    Arg.(
      value & opt (some float) None & info [ "probe-every" ] ~docv:"SPAN" ~doc)
  in
  let failure_at_arg =
    let doc =
      "Fail a random 5% of switch-switch links at $(docv) hours and \
       repair them 1.5 hours later, before the day ends (on the 12-hour \
       day, $(docv) below 10.5). Implies $(b,--events)."
    in
    Arg.(
      value & opt (some float) None & info [ "failure-at" ] ~docv:"T" ~doc)
  in
  let doc = "Simulate a 12-hour diurnal day under a migration policy." in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run $ domains_arg $ k_arg $ l_arg $ n_arg $ seed_arg $ mu_arg
      $ policy_arg $ trace_arg $ events_arg $ trigger_arg $ probe_every_arg
      $ failure_at_arg $ metrics_arg)

(* --- ilp ------------------------------------------------------------------ *)

let ilp_cmd =
  let run k l n seed mu tom output =
    let problem = problem_of "ilp" ~weighted:false ~k ~l ~n ~seed in
    let rates = Flow.base_rates (Problem.flows problem) in
    let lp =
      if tom then begin
        let current = (Placement_dp.solve problem ~rates ()).placement in
        let rng = Rng.create (seed + 1000) in
        let rates' = Workload.redraw_rates ~rng (Problem.flows problem) in
        Ilp.tom_lp problem ~rates:rates' ~mu ~current
      end
      else Ilp.top_lp problem ~rates
    in
    match output with
    | Some path ->
        let oc = open_out path in
        output_string oc lp;
        close_out oc;
        Printf.printf "wrote %s (%d variables, %d constraints)\n" path
          (Ilp.variable_count problem)
          (Ilp.constraint_count problem)
    | None -> print_string lp
  in
  let tom_arg =
    let doc =
      "Export the TOM instance (after a traffic redraw, migrating from the \
       DP placement) instead of TOP."
    in
    Arg.(value & flag & info [ "tom" ] ~doc)
  in
  let output_arg =
    let doc = "Write the LP document to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "Export the instance as a CPLEX-LP MIP for an external solver."
  in
  Cmd.v (Cmd.info "ilp" ~doc)
    Term.(
      const run $ k_arg $ l_arg $ n_arg $ seed_arg $ mu_arg $ tom_arg
      $ output_arg)

(* --- experiment / list ------------------------------------------------------ *)

let mode_arg =
  let doc = "Experiment scale: quick or full (paper-scale parameters)." in
  Arg.(
    value
    & opt (enum [ ("quick", Mode.Quick); ("full", Mode.Full) ]) (Mode.of_env ())
    & info [ "mode" ] ~docv:"MODE" ~doc)

let experiment_cmd =
  let slug title =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii c
        | _ -> '-')
      title
  in
  let run j mode id csv_dir metrics =
    apply_domains j;
    with_metrics metrics @@ fun () ->
    match Registry.find id with
    | Some e ->
        let tables = e.run mode in
        List.iter Table.print tables;
        (match csv_dir with
        | None -> ()
        | Some dir ->
            if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
            List.iteri
              (fun i t ->
                let path =
                  Filename.concat dir
                    (Printf.sprintf "%s-%d-%s.csv" e.id i
                       (String.sub (slug (Table.title t)) 0
                          (min 40 (String.length (Table.title t)))))
                in
                let oc = open_out path in
                output_string oc (Table.to_csv t);
                close_out oc;
                Printf.printf "wrote %s\n" path)
              tables)
    | None ->
        Printf.eprintf "unknown experiment %S; try: %s\n" id
          (String.concat ", " (Registry.ids ()));
        exit 1
  in
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT")
  in
  let csv_arg =
    let doc = "Also write each table as CSV into $(docv) (created if missing)." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)
  in
  let doc = "Regenerate one of the paper's tables or figures." in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(const run $ domains_arg $ mode_arg $ id_arg $ csv_arg $ metrics_arg)

(* --- metrics-summary -------------------------------------------------------- *)

let metrics_summary_cmd =
  let read_records path =
    let ic = open_in path in
    let records = ref [] in
    let lineno = ref 0 in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          while true do
            let line = input_line ic in
            incr lineno;
            if String.trim line <> "" then
              match Json.parse line with
              | json -> records := json :: !records
              | exception Failure msg ->
                  Printf.eprintf "%s:%d: %s\n" path !lineno msg;
                  exit 1
          done;
          assert false
        with End_of_file -> List.rev !records)
  in
  let run path =
    if not (Sys.file_exists path) then begin
      Printf.eprintf "no such file: %s\n" path;
      exit 1
    end;
    let records = read_records path in
    let str_of = function Some (Json.Str s) -> s | _ -> "" in
    let num_of = function Some (Json.Num n) -> n | _ -> Float.nan in
    let of_type ty =
      List.filter (fun r -> str_of (Json.member "type" r) = ty) records
    in
    let seconds v = Printf.sprintf "%.6f" v in
    (match of_type "meta" with
    | m :: _ ->
        Printf.printf "schema %s, %d domain shard(s), %d record(s)\n"
          (str_of (Json.member "schema" m))
          (int_of_float (num_of (Json.member "domains" m)))
          (List.length records)
    | [] -> Printf.printf "%d record(s), no meta line\n" (List.length records));
    let counters = of_type "counter" in
    if counters <> [] then begin
      let t = Table.create ~title:"counters" ~columns:[ "name"; "value" ] in
      List.iter
        (fun c ->
          Table.add_row t
            [
              str_of (Json.member "name" c);
              Printf.sprintf "%.0f" (num_of (Json.member "value" c));
            ])
        counters;
      Table.print t
    end;
    let dist_table ~title ~unit_suffix rows =
      if rows <> [] then begin
        let t =
          Table.create ~title
            ~columns:[ "name"; "count"; "total"; "mean"; "p50"; "p95"; "max" ]
        in
        List.iter
          (fun s ->
            let field name = num_of (Json.member (name ^ unit_suffix) s) in
            Table.add_row t
              [
                str_of (Json.member "name" s);
                Printf.sprintf "%.0f" (num_of (Json.member "count" s));
                seconds (field "total");
                seconds (field "mean");
                seconds (field "p50");
                seconds (field "p95");
                seconds (field "max");
              ])
          rows;
        Table.print t
      end
    in
    dist_table ~title:"spans (seconds)" ~unit_suffix:"_s" (of_type "span");
    dist_table ~title:"histograms" ~unit_suffix:"" (of_type "hist");
    let events = of_type "event" in
    if events <> [] then begin
      let tally = Hashtbl.create 8 in
      List.iter
        (fun e ->
          let name = str_of (Json.member "name" e) in
          Hashtbl.replace tally name
            (1 + Option.value ~default:0 (Hashtbl.find_opt tally name)))
        events;
      let t = Table.create ~title:"events" ~columns:[ "name"; "count" ] in
      Hashtbl.fold (fun name count acc -> (name, count) :: acc) tally []
      |> List.sort compare
      |> List.iter (fun (name, count) ->
             Table.add_row t [ name; string_of_int count ]);
      Table.print t
    end
  in
  let path_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"NDJSON metrics file written by --metrics or PPDC_METRICS.")
  in
  let doc = "Pretty-print an NDJSON metrics file." in
  Cmd.v (Cmd.info "metrics-summary" ~doc) Term.(const run $ path_arg)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Registry.entry) -> Printf.printf "%-15s %s\n" e.id e.summary)
      Registry.all
  in
  let doc = "List the available experiments." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* --- serve / rpc ------------------------------------------------------------ *)

let max_line_arg =
  let doc =
    "Longest accepted request line in bytes; longer lines are drained \
     and answered with a line_too_long error."
  in
  Arg.(
    value
    & opt int Ppdc_server.Transport.default_max_line
    & info [ "max-line" ] ~docv:"BYTES" ~doc)

let serve_cmd =
  let run j socket stdio cache_capacity max_line max_pending request_timeout
      shards session_budget tenant_sessions tenant_bytes tenant_inflight
      metrics =
    apply_domains j;
    with_metrics metrics @@ fun () ->
    let engine =
      Ppdc_server.Engine.create ~cache_capacity ?shards ?session_budget
        ?tenant_sessions ?tenant_bytes ?tenant_inflight ()
    in
    match (stdio, socket) with
    | true, _ -> Ppdc_server.Transport.serve_stdio ~max_line engine
    | false, Some path ->
        let workers = Ppdc_prelude.Parallel.domain_count () in
        Printf.eprintf "ppdc: serving ppdc.rpc/1 on %s (%d workers)\n%!" path
          workers;
        Ppdc_server.Transport.serve_unix ~max_line ~workers ~max_pending
          ?request_timeout ~path engine;
        Printf.eprintf "ppdc: shutdown complete\n%!"
    | false, None ->
        Printf.eprintf "ppdc serve: pass --socket PATH or --stdio\n";
        exit 2
  in
  let socket_arg =
    let doc = "Listen on a Unix-domain socket at $(docv)." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let stdio_arg =
    let doc =
      "Serve a single connection on stdin/stdout instead of a socket \
       (tests, CI, and inetd-style supervisors)."
    in
    Arg.(value & flag & info [ "stdio" ] ~doc)
  in
  let cache_arg =
    let doc =
      "Capacity of the cost-matrix LRU cache (a unit k=16 entry is 448 \
       stored rows × 320 columns, ≈1.4 MB; k=32 ≈23 MB; keyed by \
       structural topology digest)."
    in
    Arg.(value & opt int 8 & info [ "cache" ] ~docv:"ENTRIES" ~doc)
  in
  let max_pending_arg =
    let doc =
      "Connections allowed to wait for a worker beyond the ones being \
       served. A connection arriving past this bound is answered with \
       one structured $(i,overloaded) error and closed, instead of \
       queueing without bound."
    in
    Arg.(
      value
      & opt int Ppdc_server.Transport.default_max_pending
      & info [ "max-pending" ] ~docv:"N" ~doc)
  in
  let request_timeout_arg =
    let doc =
      "Per-request deadline in seconds (default: none). A request that \
       could not start within this budget of its arrival — it spent \
       the whole budget queued behind other work — is answered with a \
       $(i,deadline_exceeded) error instead of running; a request \
       whose handler already started always runs to completion."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "request-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let shards_arg =
    let doc =
      "Session-registry shard count (rounded up to a power of two; \
       default: the $(b,-j) domain count). More shards means less lock \
       contention between unrelated sessions."
    in
    Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N" ~doc)
  in
  let session_budget_arg =
    let doc =
      "Global cap on live sessions; exceeding it evicts the \
       least-recently-used session (the evicted client's next request \
       is answered $(i,session_evicted))."
    in
    Arg.(
      value & opt (some int) None & info [ "session-budget" ] ~docv:"N" ~doc)
  in
  let tenant_sessions_arg =
    let doc =
      "Per-tenant cap on live sessions (tenant = session-name prefix \
       before the first '-'); enforced by LRU eviction within the \
       tenant."
    in
    Arg.(
      value & opt (some int) None & info [ "tenant-sessions" ] ~docv:"N" ~doc)
  in
  let tenant_bytes_arg =
    let doc =
      "Per-tenant budget on estimated resident session bytes; enforced \
       by LRU eviction within the tenant."
    in
    Arg.(
      value & opt (some int) None & info [ "tenant-bytes" ] ~docv:"BYTES" ~doc)
  in
  let tenant_inflight_arg =
    let doc =
      "Per-tenant cap on concurrently executing requests; a tenant at \
       its cap is answered $(i,overloaded) instead of queueing further \
       work, so one noisy tenant cannot monopolize the worker pool."
    in
    Arg.(
      value & opt (some int) None & info [ "tenant-inflight" ] ~docv:"N" ~doc)
  in
  let doc =
    "Run the long-lived placement/migration daemon (ppdc.rpc/1 over \
     NDJSON). Connections are served concurrently by a pool of $(b,-j) \
     worker domains with a bounded pending queue; sessions live in a \
     sharded registry with optional global and per-tenant budgets."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ domains_arg $ socket_arg $ stdio_arg $ cache_arg
      $ max_line_arg $ max_pending_arg $ request_timeout_arg $ shards_arg
      $ session_budget_arg $ tenant_sessions_arg $ tenant_bytes_arg
      $ tenant_inflight_arg $ metrics_arg)

let rpc_cmd =
  let run socket timeout requests =
    let requests =
      match requests with
      | [] ->
          (* Read request lines from stdin. *)
          let acc = ref [] in
          (try
             while true do
               let line = input_line Stdlib.stdin in
               if String.trim line <> "" then acc := line :: !acc
             done
           with End_of_file -> ());
          List.rev !acc
      | rs -> rs
    in
    (* Fill in sequential ids for requests that lack one; anything
       unparseable is sent as-is so the server's parse_error answer
       comes back to the user. *)
    let prepare i req =
      match Json.parse req with
      | Obj fields when not (List.mem_assoc "id" fields) ->
          Json.to_string (Json.Obj (("id", Json.Num (float_of_int (i + 1))) :: fields))
      | _ | (exception Failure _) -> req
    in
    let responses =
      Ppdc_server.Transport.call ?timeout ~path:socket
        (List.mapi prepare requests)
    in
    List.iter print_endline responses
  in
  let socket_arg =
    let doc = "Socket path of the running $(b,ppdc serve) daemon." in
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let timeout_arg =
    let doc =
      "Give up on a response after $(docv) seconds (default: wait \
       forever) instead of hanging on a stalled daemon."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let requests_arg =
    let doc =
      "Requests to send, one JSON object each (reads NDJSON from stdin \
       when omitted). An \"id\" field is added when missing."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"REQUEST" ~doc)
  in
  let doc = "Send ppdc.rpc/1 requests to a running daemon and print the responses." in
  Cmd.v (Cmd.info "rpc" ~doc)
    Term.(const run $ socket_arg $ timeout_arg $ requests_arg)

let loadgen_cmd =
  let run socket rate requests tenants sessions connections seed k l n timeout
      out =
    let cfg =
      {
        Ppdc_server.Loadgen.path = socket;
        rate;
        requests;
        tenants;
        sessions;
        connections;
        seed;
        k;
        l;
        n;
        timeout;
      }
    in
    let o = Ppdc_server.Loadgen.run cfg in
    Format.eprintf "%a@." Ppdc_server.Loadgen.pp_outcome o;
    let doc = Ppdc_server.Loadgen.outcome_to_bench_json o in
    (match out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Json.to_string doc);
        output_char oc '\n';
        close_out oc;
        Printf.eprintf "ppdc loadgen: wrote %s\n%!" path);
    print_endline (Json.to_string doc);
    (* Protocol-level failures (parse errors, handler exceptions,
       responses lost to the timeout) fail the run; structured
       evicted/overloaded/deadline answers are expected under tiny
       budgets and do not. *)
    if o.other_errors > 0 || o.completed < o.sent then exit 1
  in
  let socket_arg =
    let doc = "Socket path of the running $(b,ppdc serve) daemon." in
    Arg.(
      required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let rate_arg =
    let doc = "Open-loop Poisson arrival rate, requests per second." in
    Arg.(value & opt float 200. & info [ "rate" ] ~docv:"R" ~doc)
  in
  let requests_arg =
    let doc = "Total requests to send." in
    Arg.(value & opt int 1000 & info [ "requests" ] ~docv:"N" ~doc)
  in
  let tenants_arg =
    let doc = "Number of tenants (sessions are named t<i>-s<j>)." in
    Arg.(value & opt int 4 & info [ "tenants" ] ~docv:"N" ~doc)
  in
  let sessions_arg =
    let doc = "Sessions per tenant." in
    Arg.(value & opt int 4 & info [ "sessions" ] ~docv:"N" ~doc)
  in
  let connections_arg =
    let doc = "Pipelined daemon connections per tenant." in
    Arg.(value & opt int 2 & info [ "connections" ] ~docv:"N" ~doc)
  in
  let timeout_arg =
    let doc = "Wall-clock cap on the whole run, in seconds." in
    Arg.(value & opt float 60. & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let out_arg =
    let doc = "Also write the ppdc.bench/1 JSON document to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "Drive a running daemon with an open-loop Poisson workload (mixed \
     load_topology/place/migrate/rates_update over N tenants × M \
     sessions) and report throughput and p50/p95/p99 latency as a \
     ppdc.bench/1 JSON document."
  in
  Cmd.v (Cmd.info "loadgen" ~doc)
    Term.(
      const run $ socket_arg $ rate_arg $ requests_arg $ tenants_arg
      $ sessions_arg $ connections_arg $ seed_arg $ k_arg $ l_arg $ n_arg
      $ timeout_arg $ out_arg)

let () =
  let doc = "traffic-optimal VNF placement and migration in dynamic PPDCs" in
  let info = Cmd.info "ppdc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            topology_cmd; place_cmd; migrate_cmd; simulate_cmd; trace_cmd;
            ilp_cmd; experiment_cmd; metrics_summary_cmd; list_cmd;
            serve_cmd; rpc_cmd; loadgen_cmd;
          ]))
