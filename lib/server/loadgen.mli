(** Open-loop load generator for the daemon ([ppdc loadgen]).

    Drives a running Unix-socket daemon with Poisson arrivals at a
    fixed rate — {e open loop}: arrivals do not wait for responses, so
    when the server slows down the measured latency includes the
    queueing delay instead of the generator silently backing off
    (coordinated omission). [tenants] × [sessions] sessions named
    ["t<i>-s<j>"] are driven through a mixed
    [load_topology]/[place]/[migrate]/[rates_update] workload over
    [connections] pipelined sockets per tenant; a [session_evicted]
    answer flips the session back to unloaded and the generator
    reloads it on its next turn, exactly the recovery the protocol
    documents.

    Latency for each request is measured from its {e scheduled}
    arrival to the arrival of its response line. *)

type config = {
  path : string;  (** daemon socket path *)
  rate : float;  (** arrivals per second across the whole fleet *)
  requests : int;  (** total requests to send *)
  tenants : int;
  sessions : int;  (** sessions per tenant *)
  connections : int;  (** sockets per tenant *)
  seed : int;
  k : int;  (** fat-tree arity of the per-session topology *)
  l : int;  (** flow count *)
  n : int;  (** SFC length (VNFs in the chain) *)
  timeout : float;  (** wall-clock cap on the whole run, seconds *)
}

val default_config : config
(** 1000 requests at 200/s, 4 tenants × 4 sessions × 2 connections. *)

type outcome = {
  sent : int;
  completed : int;
  ok : int;
  evicted : int;  (** [session_evicted] answers (plus reload-races) *)
  overloaded : int;
  deadline : int;
  other_errors : int;
  duration_s : float;
  throughput : float;  (** completed responses per second *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

val run : config -> outcome
(** Run to completion: all responses received, or [timeout] elapsed.
    Raises [Unix.Unix_error] when the daemon is unreachable and
    [Failure] when a connection is closed mid-run. *)

val outcome_to_bench_json : outcome -> Ppdc_prelude.Json.t
(** Render as a [ppdc.bench/1] document (reference entry
    [loadgen_throughput]), the same schema `make bench-check` gates. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** Two-line human summary. *)
