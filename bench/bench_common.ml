(* Shared harness for the committed `ppdc.bench/1` benchmarks
   (flatgraph, dynamic).

   Each benchmark records named entries as the minimum wall time over
   several repetitions — timer noise on a shared VM is one-sided:
   interference only ever adds time — on the monotonic clock
   ({!Ppdc_prelude.Clock}; an NTP step mid-run must not fabricate a
   regression). The JSON artifact, the `--check` regression gate and
   the CLI surface (`--out`/`--check`, PPDC_BENCH_MODE=quick and
   PPDC_BENCH_TOLERANCE) are shared so every bench gates the same way
   in CI.

   Raw seconds are not comparable across machines, so `--check`
   normalizes every timed entry by the benchmark's reference entry
   measured in the same run: an entry regresses when its normalized
   time exceeds the baseline's normalized time by more than the
   tolerance (default 10%). A uniform machine-wide slowdown cancels
   out; a change that slows one path relative to the others fails the
   gate. A deterministic entry (a cost or a count, from
   [record_value]) is compared bit for bit instead: it reproduces
   exactly on any machine, so any difference, in either direction, is
   a behaviour change. *)

module Json = Ppdc_prelude.Json
module Clock = Ppdc_prelude.Clock
module Parallel = Ppdc_prelude.Parallel

type entry = {
  name : string;
  seconds : float;
  reps : int;
  exact : bool;  (* a deterministic value, gated bit for bit *)
}

let time f =
  let t0 = Clock.now () in
  let r = f () in
  (Clock.elapsed_s ~since:t0, r)

let min_time ~reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t, r = time f in
    ignore (Sys.opaque_identity r);
    if t < !best then best := t
  done;
  !best

type recorder = { mutable entries : entry list (* newest first *) }

let record t name ~reps f =
  let seconds = min_time ~reps f in
  Printf.eprintf "  %-22s %8.3fs (min of %d)\n%!" name seconds reps;
  t.entries <- { name; seconds; reps; exact = false } :: t.entries

(* Record a deterministic statistic (a cost, a move count) instead of
   a wall time. The artifact reuses the [seconds] slot, and `--check`
   compares it with the baseline bit for bit. A bench that records a
   machine-dependent value this way keeps it out of the baseline
   ([baseline_filter]). *)
let record_value t name value =
  Printf.eprintf "  %-22s %14.4f\n%!" name value;
  t.entries <- { name; seconds = value; reps = 1; exact = true } :: t.entries

let to_json ~quick ~reference entries =
  Json.Obj
    [
      ("schema", Json.Str "ppdc.bench/1");
      ("domains", Json.Num (float_of_int (Parallel.domain_count ())));
      ("mode", Json.Str (if quick then "quick" else "full"));
      ("reference", Json.Str reference);
      ( "entries",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("name", Json.Str e.name);
                   ("seconds", Json.Num e.seconds);
                   ("reps", Json.Num (float_of_int e.reps));
                 ])
             entries) );
    ]

let entries_of_json j =
  let fail msg = failwith ("bad baseline: " ^ msg) in
  (match Json.member "schema" j with
  | Some (Json.Str "ppdc.bench/1") -> ()
  | _ -> fail "schema is not ppdc.bench/1");
  match Json.member "entries" j with
  | Some (Json.List l) ->
      List.map
        (fun e ->
          match (Json.member "name" e, Json.member "seconds" e) with
          | Some (Json.Str name), Some (Json.Num seconds) ->
              { name; seconds; reps = 0; exact = false }
          | _ -> fail "entry missing name/seconds")
        l
  | _ -> fail "no entries array"

let find name l = List.find_opt (fun e -> String.equal e.name name) l

(* Report every baseline entry and return whether all of them passed;
   the caller decides when to exit, so a bench's own [post] invariants
   are judged in the same run. *)
let check ~reference ~tolerance ~baseline entries =
  let reference_of l =
    match find reference l with
    | Some e when e.seconds > 0.0 -> e.seconds
    | _ -> failwith ("missing reference entry " ^ reference)
  in
  let base_ref = reference_of baseline and cur_ref = reference_of entries in
  let failures = ref 0 in
  let compared = ref 0 in
  List.iter
    (fun base ->
      match find base.name entries with
      | None ->
          (* Quick mode omits the large entries; absence narrows the
             gate, it is not a regression. *)
          Printf.printf "SKIP %-22s (not measured in this run)\n" base.name
      | Some cur when cur.exact ->
          incr compared;
          let same =
            Int64.equal
              (Int64.bits_of_float base.seconds)
              (Int64.bits_of_float cur.seconds)
          in
          if not same then incr failures;
          Printf.printf "%-4s %-22s %-10s base %.17g  now %.17g\n"
            (if same then "ok" else "FAIL")
            base.name "exact" base.seconds cur.seconds
      | Some cur ->
          incr compared;
          let base_v = base.seconds /. base_ref
          and cur_v = cur.seconds /. cur_ref in
          let limit = base_v *. (1.0 +. tolerance) in
          if cur_v > limit then incr failures;
          Printf.printf
            "%-4s %-22s %-10s base %10.4f  now %10.4f  (limit %10.4f)\n"
            (if cur_v > limit then "FAIL" else "ok")
            base.name "normalized" base_v cur_v limit)
    baseline;
  if !compared = 0 then failwith "baseline and run share no entries";
  if !failures > 0 then
    Printf.printf
      "bench-check: %d regression(s): an exact entry changed or a timed one \
       went beyond %.0f%% tolerance\n"
      !failures (100.0 *. tolerance)
  else
    Printf.printf
      "bench-check: ok (%d entries: exact ones identical, timed ones within \
       %.0f%%)\n"
      !compared (100.0 *. tolerance);
  !failures = 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* CLI driver: measure, optionally write the artifact, optionally gate
   against a baseline, then let the bench enforce its own in-run
   invariants ([post] — e.g. the dynamic bench's repair-vs-rebuild
   speedup floor, which is a ratio within one run and therefore
   machine-independent). [post] runs even when the gate failed, and
   the exit status is non-zero if either one failed. *)
let main ~bench ~reference ?(baseline_filter = fun e -> e)
    ?(post = fun ~quick:_ _ -> ()) run =
  let out = ref None
  and check_path = ref None
  and quick = Sys.getenv_opt "PPDC_BENCH_MODE" = Some "quick"
  and tolerance =
    match Sys.getenv_opt "PPDC_BENCH_TOLERANCE" with
    | Some s -> float_of_string s
    | None -> 0.10
  in
  let rec parse = function
    | [] -> ()
    | "--out" :: path :: rest ->
        out := Some path;
        parse rest
    | "--check" :: path :: rest ->
        check_path := Some path;
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "usage: %s [--out FILE] [--check BASELINE]\nunknown argument: %s\n"
          bench arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  Parallel.set_domains 1;
  Printf.eprintf "%s bench (%s, 1 domain):\n%!" bench
    (if quick then "quick" else "full");
  let recorder = { entries = [] } in
  run ~quick recorder;
  let entries = List.rev recorder.entries in
  (* [baseline_filter] selects which entries land in the committed
     artifact: a bench whose run includes machine-class-dependent
     measurements (e.g. a cross-domain contention ratio, which flips
     with the host's core count) keeps them out of the baseline so the
     normalized gate only ever compares class-stable entries — the
     `check` loop walks the baseline, so run-only entries are never
     judged. *)
  (match !out with
  | Some path ->
      let oc = open_out path in
      output_string oc
        (Json.to_string
           (to_json ~quick ~reference (baseline_filter entries)));
      output_char oc '\n';
      close_out oc
  | None -> ());
  let passed =
    match !check_path with
    | Some path ->
        check ~reference ~tolerance
          ~baseline:(entries_of_json (Json.parse (read_file path)))
          entries
    | None ->
        if !out = None then
          print_endline (Json.to_string (to_json ~quick ~reference entries));
        true
  in
  post ~quick entries;
  if not passed then exit 1
