(* Open-loop load generator for the ppdc daemon (DESIGN.md §4j).

   Arrivals follow a Poisson process at a fixed rate, independent of
   how fast the daemon answers — the defining property of an open-loop
   driver: when the server slows down, requests queue and the measured
   latency includes that queueing, instead of the generator politely
   backing off and hiding the regression (closed-loop coordination
   omission).

   Each of [tenants] tenants owns [sessions] sessions named
   "t<i>-s<j>" (so {!Registry.tenant_of} groups them) and
   [connections] sockets to the daemon. A session is pinned to one of
   its tenant's connections (session index mod connections): the
   server answers each connection's lines in order, so pinning keeps
   one session's requests strictly ordered — its place can never be
   served before its load_topology — and an in-flight FIFO per
   connection matches responses to requests without ids doing double
   duty. Note the daemon dedicates a worker to a connection for its
   lifetime, so the fleet needs [tenants × connections ≤ workers] to
   be fully served.

   Per-session workload is a tiny state machine: a session that is not
   loaded issues [load_topology]; one that is loaded but never placed
   issues [place]; a placed session draws [place]/[migrate]/
   [rates_update] at weights 2/2/1. A [session_evicted] answer flips
   the session back to not-loaded — the client-side recovery the
   protocol documents — so eviction shows up as extra load_topology
   traffic, not as a stuck generator. *)

module Json = Ppdc_prelude.Json
module Rng = Ppdc_prelude.Rng
module Clock = Ppdc_prelude.Clock
module Stats = Ppdc_prelude.Stats

type config = {
  path : string;
  rate : float;  (* arrivals per second, whole fleet *)
  requests : int;
  tenants : int;
  sessions : int;  (* per tenant *)
  connections : int;  (* per tenant *)
  seed : int;
  k : int;
  l : int;
  n : int;
  timeout : float;  (* wall-clock cap on the whole run, seconds *)
}

let default_config =
  {
    path = "/tmp/ppdc.sock";
    rate = 200.;
    requests = 1000;
    tenants = 4;
    sessions = 4;
    connections = 2;
    seed = 1;
    k = 4;
    l = 6;
    n = 3;
    timeout = 60.;
  }

type outcome = {
  sent : int;
  completed : int;
  ok : int;
  evicted : int;  (* session_evicted answers *)
  overloaded : int;
  deadline : int;
  other_errors : int;
  duration_s : float;
  throughput : float;  (* completed / duration *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

type session_state = Unloaded | Loaded | Placed

type inflight = {
  if_tenant : int;
  if_session : int;
  if_arrival : float;  (* scheduled arrival on the Clock.now timebase *)
}

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : string;  (* bytes read but not yet newline-framed *)
  fifo : inflight Queue.t;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  fd

(* The sockets are non-blocking for the read side; a full send buffer
   (daemon busy, many pipelined lines) surfaces as EAGAIN here, where
   we briefly block on writability — arrivals already fired stay
   charged to their scheduled time, so this pause costs accuracy
   nothing. *)
let write_line fd line =
  let msg = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length msg in
  let off = ref 0 in
  while !off < len do
    match Unix.write fd msg !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        ignore (Unix.select [] [ fd ] [] 1.0)
  done

(* One request for [session], advancing its state machine. The seed
   makes a given (tenant, session) load the same topology every time,
   so a reload after eviction is a cache-warm load_topology. *)
let next_request cfg rng states ~tenant ~session ~id =
  let name = Printf.sprintf "t%d-s%d" tenant session in
  match states.(tenant).(session) with
  | Unloaded ->
      states.(tenant).(session) <- Loaded;
      Printf.sprintf
        {|{"id":%d,"method":"load_topology","params":{"session":%S,"k":%d,"l":%d,"n":%d,"seed":%d}}|}
        id name cfg.k cfg.l cfg.n
        (cfg.seed + (tenant * 1009) + session)
  | Loaded ->
      states.(tenant).(session) <- Placed;
      Printf.sprintf {|{"id":%d,"method":"place","params":{"session":%S}}|} id
        name
  | Placed -> (
      match Rng.int rng 5 with
      | 0 | 1 ->
          Printf.sprintf {|{"id":%d,"method":"place","params":{"session":%S}}|}
            id name
      | 2 | 3 ->
          Printf.sprintf
            {|{"id":%d,"method":"migrate","params":{"session":%S,"mu":100}}|}
            id name
      | _ ->
          Printf.sprintf
            {|{"id":%d,"method":"rates_update","params":{"session":%S,"seed":%d}}|}
            id name (id land 0xffff))

type tally = {
  mutable t_completed : int;
  mutable t_ok : int;
  mutable t_evicted : int;
  mutable t_overloaded : int;
  mutable t_deadline : int;
  mutable t_other : int;
  mutable latencies : float list;  (* seconds *)
}

let absorb_response tally states now req line =
  tally.t_completed <- tally.t_completed + 1;
  tally.latencies <- (now -. req.if_arrival) :: tally.latencies;
  let j = try Json.parse line with Failure _ -> Json.Null in
  match Json.member "ok" j with
  | Some (Json.Bool true) -> tally.t_ok <- tally.t_ok + 1
  | _ -> (
      let code =
        match Json.member "error" j with
        | Some err -> (
            match Json.member "code" err with
            | Some (Json.Str c) -> c
            | _ -> "?")
        | None -> "?"
      in
      match code with
      | "session_evicted" | "unknown_session" ->
          (* unknown_session can only mean our load_topology itself was
             rejected earlier; either way the recovery is a reload. *)
          tally.t_evicted <- tally.t_evicted + 1;
          states.(req.if_tenant).(req.if_session) <- Unloaded
      | "overloaded" -> tally.t_overloaded <- tally.t_overloaded + 1
      | "deadline_exceeded" -> tally.t_deadline <- tally.t_deadline + 1
      | _ -> tally.t_other <- tally.t_other + 1)

(* Drain every complete line currently buffered on [c]. *)
let drain_conn tally states c now =
  let chunk = Bytes.create 65536 in
  let read_once () =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "loadgen: daemon closed the connection"
    | n ->
        c.rbuf <- c.rbuf ^ Bytes.sub_string chunk 0 n;
        (* Only the bytes already delivered; do not block for more. *)
        ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  in
  read_once ();
  let rec split () =
    match String.index_opt c.rbuf '\n' with
    | None -> ()
    | Some i ->
        let line = String.sub c.rbuf 0 i in
        c.rbuf <- String.sub c.rbuf (i + 1) (String.length c.rbuf - i - 1);
        (match Queue.take_opt c.fifo with
        | Some req -> absorb_response tally states now req line
        | None -> failwith "loadgen: response without a request in flight");
        split ()
  in
  split ()

let percentile_ms lats q =
  match lats with
  | [] -> 0.
  | l -> 1000. *. Stats.percentile (Array.of_list l) q

let run (cfg : config) : outcome =
  if cfg.rate <= 0. then invalid_arg "Loadgen.run: rate must be > 0";
  if cfg.tenants < 1 || cfg.sessions < 1 || cfg.connections < 1 then
    invalid_arg "Loadgen.run: tenants/sessions/connections must be >= 1";
  let rng = Rng.create cfg.seed in
  let states =
    Array.init cfg.tenants (fun _ -> Array.make cfg.sessions Unloaded)
  in
  let conns =
    Array.init cfg.tenants (fun _ ->
        Array.init cfg.connections (fun _ ->
            let fd = connect cfg.path in
            Unix.set_nonblock fd;
            { fd; rbuf = ""; fifo = Queue.create () }))
  in
  let tally =
    {
      t_completed = 0;
      t_ok = 0;
      t_evicted = 0;
      t_overloaded = 0;
      t_deadline = 0;
      t_other = 0;
      latencies = [];
    }
  in
  let t0 = Clock.now () in
  let sent = ref 0 in
  (* Next scheduled arrival, as an offset from t0. Exponential
     inter-arrival times make the process Poisson. *)
  let next_arrival = ref 0. in
  let advance_arrival () =
    next_arrival :=
      !next_arrival +. (-.log (1. -. Rng.float rng 1.0) /. cfg.rate)
  in
  let all_fds =
    Array.to_list conns |> Array.concat |> Array.map (fun c -> c.fd)
    |> Array.to_list
  in
  let conn_of_fd fd =
    let found = ref None in
    Array.iter
      (Array.iter (fun c -> if c.fd == fd then found := Some c))
      conns;
    match !found with Some c -> c | None -> assert false
  in
  let inflight_total () =
    let n = ref 0 in
    Array.iter (Array.iter (fun c -> n := !n + Queue.length c.fifo)) conns;
    !n
  in
  (try
     while
       (!sent < cfg.requests || inflight_total () > 0)
       && Clock.elapsed_s ~since:t0 < cfg.timeout
     do
       let now = Clock.elapsed_s ~since:t0 in
       (* Fire every arrival that is due. *)
       while !sent < cfg.requests && !next_arrival <= now do
         let tenant = !sent mod cfg.tenants in
         let session = Rng.int rng cfg.sessions in
         let line = next_request cfg rng states ~tenant ~session ~id:!sent in
         let c = conns.(tenant).(session mod cfg.connections) in
         Queue.push
           {
             if_tenant = tenant;
             if_session = session;
             if_arrival = t0 +. !next_arrival;
           }
           c.fifo;
         write_line c.fd line;
         incr sent;
         advance_arrival ()
       done;
       let wait =
         if !sent < cfg.requests then Float.max 0. (!next_arrival -. now)
         else 0.05
       in
       match Unix.select all_fds [] [] (Float.min wait 0.05) with
       | readable, _, _ ->
           let now = Clock.now () in
           List.iter (fun fd -> drain_conn tally states (conn_of_fd fd) now)
             readable
       | exception Unix.Unix_error (EINTR, _, _) -> ()
     done
   with e ->
     Array.iter (Array.iter (fun c -> try Unix.close c.fd with _ -> ())) conns;
     raise e);
  Array.iter (Array.iter (fun c -> try Unix.close c.fd with _ -> ())) conns;
  let duration = Clock.elapsed_s ~since:t0 in
  let lats = tally.latencies in
  {
    sent = !sent;
    completed = tally.t_completed;
    ok = tally.t_ok;
    evicted = tally.t_evicted;
    overloaded = tally.t_overloaded;
    deadline = tally.t_deadline;
    other_errors = tally.t_other;
    duration_s = duration;
    throughput =
      (if duration > 0. then float_of_int tally.t_completed /. duration
       else 0.);
    p50_ms = percentile_ms lats 0.5;
    p95_ms = percentile_ms lats 0.95;
    p99_ms = percentile_ms lats 0.99;
  }

(* ppdc.bench/1 rendering, schema-compatible with bench_common: the
   latency/throughput statistics land in [seconds] slots of named
   entries, which is exactly how deterministic stats are gated by
   `make bench-check` (normalized against the in-run reference). *)
let outcome_to_bench_json o =
  let entry name v =
    Json.Obj
      [ ("name", Json.Str name); ("seconds", Json.Num v); ("reps", Json.Num 1.) ]
  in
  Json.Obj
    [
      ("schema", Json.Str "ppdc.bench/1");
      ( "domains",
        Json.Num (float_of_int (Ppdc_prelude.Parallel.domain_count ())) );
      ("mode", Json.Str "full");
      ("reference", Json.Str "loadgen_throughput");
      ( "entries",
        Json.List
          [
            entry "loadgen_throughput" o.throughput;
            entry "loadgen_p50_ms" o.p50_ms;
            entry "loadgen_p95_ms" o.p95_ms;
            entry "loadgen_p99_ms" o.p99_ms;
            entry "loadgen_ok" (float_of_int o.ok);
            entry "loadgen_evicted" (float_of_int o.evicted);
            entry "loadgen_overloaded" (float_of_int o.overloaded);
            entry "loadgen_errors" (float_of_int o.other_errors);
          ] );
    ]

let pp_outcome ppf o =
  Format.fprintf ppf
    "sent %d  completed %d  ok %d  evicted %d  overloaded %d  deadline %d  \
     errors %d@\n\
     %.2f req/s over %.2fs   p50 %.2fms  p95 %.2fms  p99 %.2fms"
    o.sent o.completed o.ok o.evicted o.overloaded o.deadline o.other_errors
    o.throughput o.duration_s o.p50_ms o.p95_ms o.p99_ms
