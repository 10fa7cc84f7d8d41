type value = Int of int | Float of float | String of string | Bool of bool

(* Lock hierarchy of this module (checked by ppdc-lint R6): the shard
   registry mutex and the per-shard locks never nest — snapshot/reset
   copy the registry under its mutex, release it, then visit shards one
   at a time — so the declared order only documents the intended
   direction should nesting ever appear. *)
[@@@ppdc.lock_order "obs.registry obs.shard"]

(* --- enabled flag ------------------------------------------------------ *)

let enabled_flag =
  Atomic.make
    (match Sys.getenv_opt "PPDC_METRICS" with
    | Some p when String.trim p <> "" -> true
    | _ -> false)

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let env_path () =
  match Sys.getenv_opt "PPDC_METRICS" with
  | Some p when String.trim p <> "" -> Some p
  | _ -> None

(* Monotonic, not gettimeofday: span durations must survive NTP steps. *)
let now () = Clock.now ()

(* --- growable sample buffer ------------------------------------------- *)

type buf = { mutable data : float array; mutable len : int }

let buf_create () = { data = Array.make 16 0.0; len = 0 }

let buf_push b x =
  if b.len = Array.length b.data then begin
    let data = Array.make (2 * b.len) 0.0 in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let buf_contents b = Array.sub b.data 0 b.len

(* --- per-domain shards ------------------------------------------------- *)

type event = { seq : int; name : string; fields : (string * value) list }

type shard = {
  lock : Mutex.t; [@ppdc.guards "obs.shard"]
      (* Writes come only from the owning domain; the lock exists so a
         merging/resetting domain can read or clear a shard without
         tearing a concurrent write. Uncontended in steady state. *)
  counters : (string, int ref) Hashtbl.t;
  spans : (string, buf) Hashtbl.t;
  hists : (string, buf) Hashtbl.t;
  mutable events : event list;  (* newest first *)
}

let registry : shard list ref = ref []
[@@ppdc.domain_safe
  "appended under registry_mutex at shard creation (Domain.DLS init); \
   snapshot/reset iterate a copy taken under the same mutex, and each \
   shard's contents are protected by its own per-shard lock"]

let registry_mutex = Mutex.create () [@@ppdc.guards "obs.registry"]
let event_seq = Atomic.make 0

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s =
        {
          lock = Mutex.create ();
          counters = Hashtbl.create 16;
          spans = Hashtbl.create 16;
          hists = Hashtbl.create 16;
          events = [];
        }
      in
      Mutexes.with_lock registry_mutex (fun () -> registry := s :: !registry);
      s)

let my_shard () = Domain.DLS.get shard_key

(* The shard lock is per-domain and uncontended in steady state, and is
   never held across user code — safe to take from inside Parallel
   sections, hence the [@@ppdc.domain_safe] exempting callers from the
   R8 transitive-lock check. *)
let with_shard f =
  let s = my_shard () in
  Mutexes.with_lock s.lock (fun () -> f s)
[@@ppdc.domain_safe
  "per-domain DLS shard; its lock is uncontended and never held across \
   user code, so acquiring it inside a Parallel section cannot deadlock \
   or serialize the pool"]
[@@ppdc.calls_under "obs.shard"]

(* --- recording --------------------------------------------------------- *)

let incr ?(by = 1) name =
  if Atomic.get enabled_flag then
    with_shard (fun s ->
        match Hashtbl.find_opt s.counters name with
        | Some r -> r := !r + by
        | None -> Hashtbl.add s.counters name (ref by))

let record_into table name x =
  if Float.is_finite x then
    with_shard (fun s ->
        let b =
          match Hashtbl.find_opt (table s) name with
          | Some b -> b
          | None ->
              let b = buf_create () in
              Hashtbl.add (table s) name b;
              b
        in
        buf_push b x)

let observe name x =
  if Atomic.get enabled_flag then record_into (fun s -> s.hists) name x

let observe_span name dt =
  if Atomic.get enabled_flag then record_into (fun s -> s.spans) name dt

let time name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = now () in
    Fun.protect
      ~finally:(fun () -> observe_span name (now () -. t0))
      f
  end

let emit name fields =
  if Atomic.get enabled_flag then begin
    let seq = Atomic.fetch_and_add event_seq 1 in
    with_shard (fun s -> s.events <- { seq; name; fields } :: s.events)
  end

(* --- snapshot ----------------------------------------------------------- *)

type dist_summary = {
  count : int;
  total : float;
  mean : float;
  p50 : float;
  p95 : float;
  max : float;
}

type snapshot = {
  counters : (string * int) list;
  spans : (string * dist_summary) list;
  hists : (string * dist_summary) list;
  events : event list;
}

let summarize samples =
  let count = Array.length samples in
  if count = 0 then
    { count = 0; total = 0.0; mean = 0.0; p50 = 0.0; p95 = 0.0; max = 0.0 }
  else
    let total = Array.fold_left ( +. ) 0.0 samples in
    {
      count;
      total;
      mean = total /. float_of_int count;
      p50 = Stats.percentile samples 0.5;
      p95 = Stats.percentile samples 0.95;
      max = Array.fold_left Float.max samples.(0) samples;
    }

let shards () = Mutexes.with_lock registry_mutex (fun () -> !registry)

let snapshot () =
  let counters = Hashtbl.create 16 in
  let spans = Hashtbl.create 16 in
  let hists = Hashtbl.create 16 in
  let events = ref [] in
  List.iter
    (fun s ->
      Mutexes.with_lock s.lock (fun () ->
          Hashtbl.iter
            (fun name r ->
              match Hashtbl.find_opt counters name with
              | Some acc -> acc := !acc + !r
              | None -> Hashtbl.add counters name (ref !r))
            s.counters;
          let merge dst =
            Hashtbl.iter (fun name b ->
                let samples = buf_contents b in
                match Hashtbl.find_opt dst name with
                | Some acc -> Hashtbl.replace dst name (samples :: acc)
                | None -> Hashtbl.add dst name [ samples ])
          in
          merge spans s.spans;
          merge hists s.hists;
          events := List.rev_append s.events !events))
    (shards ());
  let sorted_assoc of_value table =
    Hashtbl.fold (fun name v acc -> (name, of_value v) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    counters = sorted_assoc (fun r -> !r) counters;
    spans = sorted_assoc (fun chunks -> summarize (Array.concat chunks)) spans;
    hists = sorted_assoc (fun chunks -> summarize (Array.concat chunks)) hists;
    events =
      List.sort (fun (a : event) b -> Stdlib.compare a.seq b.seq) !events;
  }

let reset () =
  List.iter
    (fun s ->
      Mutexes.with_lock s.lock (fun () ->
          Hashtbl.reset s.counters;
          Hashtbl.reset s.spans;
          Hashtbl.reset s.hists;
          s.events <- []))
    (shards ());
  Atomic.set event_seq 0

(* --- NDJSON writer ------------------------------------------------------ *)

(* [Json] prints an integer below 10^12 as [string_of_int] does. *)
let json_int i = Json.Num (float_of_int i)

let json_of_value = function
  | Int i -> json_int i
  | Float x -> Json.Num x
  | String s -> Json.Str s
  | Bool b -> Json.Bool b

let to_ndjson snap =
  let str s = Json.Str s and int = json_int in
  let dist kind ~unit_suffix (name, d) =
    Json.Obj
      [
        ("type", str kind);
        ("name", str name);
        ("count", int d.count);
        ("total" ^ unit_suffix, Json.Num d.total);
        ("mean" ^ unit_suffix, Json.Num d.mean);
        ("p50" ^ unit_suffix, Json.Num d.p50);
        ("p95" ^ unit_suffix, Json.Num d.p95);
        ("max" ^ unit_suffix, Json.Num d.max);
      ]
  in
  let records =
    Json.Obj
      [
        ("type", str "meta");
        ("schema", str "ppdc.metrics/1");
        ("domains", int (List.length (shards ())));
      ]
    :: List.map
         (fun e ->
           Json.Obj
             (("type", str "event") :: ("seq", int e.seq)
             :: ("name", str e.name)
             :: List.map (fun (k, v) -> (k, json_of_value v)) e.fields))
         snap.events
    @ List.map
        (fun (name, v) ->
          Json.Obj
            [ ("type", str "counter"); ("name", str name); ("value", int v) ])
        snap.counters
    @ List.map (dist "span" ~unit_suffix:"_s") snap.spans
    @ List.map (dist "hist" ~unit_suffix:"") snap.hists
  in
  let buffer = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string buffer (Json.to_string r);
      Buffer.add_char buffer '\n')
    records;
  Buffer.contents buffer

let export ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_ndjson (snapshot ())))
