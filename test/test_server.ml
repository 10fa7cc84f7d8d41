(* Tests for the ppdc.rpc/1 daemon: engine-level unit tests that drive
   [Engine.handle_line] directly, and a [--stdio] integration test that
   spawns the real binary and walks every method plus the malformed
   cases, checking the server answers each with a structured error and
   keeps serving. *)

module Json = Ppdc_prelude.Json
module Clock = Ppdc_prelude.Clock
module Engine = Ppdc_server.Engine
module Obs = Ppdc_prelude.Obs

(* --- response helpers ------------------------------------------------- *)

let response_id line =
  match Json.member "id" (Json.parse line) with
  | Some v -> v
  | None -> Alcotest.failf "response without id: %s" line

let expect_ok line =
  let j = Json.parse line in
  match (Json.member "ok" j, Json.member "result" j) with
  | Some (Json.Bool true), Some r -> r
  | _ -> Alcotest.failf "expected ok response, got: %s" line

let expect_error line =
  let j = Json.parse line in
  match (Json.member "ok" j, Json.member "error" j) with
  | Some (Json.Bool false), Some err -> (
      match Json.member "code" err with
      | Some (Json.Str code) -> code
      | _ -> Alcotest.failf "error without code: %s" line)
  | _ -> Alcotest.failf "expected error response, got: %s" line

let bool_field result key =
  match Json.member key result with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "expected bool field %s" key

let str_field result key =
  match Json.member key result with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "expected string field %s" key

(* --- engine unit tests ------------------------------------------------ *)

let eng () = Engine.create ~cache_capacity:4 ()

let load e ?(session = "s") ?(k = 4) ?(l = 6) ?(n = 3) () =
  expect_ok
    (Engine.handle_line e
       (Printf.sprintf
          {|{"id":0,"method":"load_topology","params":{"session":%S,"k":%d,"l":%d,"n":%d}}|}
          session k l n))

let test_engine_health () =
  let e = eng () in
  let r = expect_ok (Engine.handle_line e {|{"id":1,"method":"health"}|}) in
  Alcotest.(check string) "schema" "ppdc.rpc/1" (str_field r "schema");
  Alcotest.(check bool) "not stopped" false (Engine.stopped e)

let test_engine_errors_echo_id () =
  let e = eng () in
  (* Unparseable line: error with id null. *)
  let bad = Engine.handle_line e "{nope" in
  Alcotest.(check string) "parse error" "parse_error" (expect_error bad);
  Alcotest.(check bool) "id null" true (Json.equal Json.Null (response_id bad));
  (* Valid JSON that is not a request object. *)
  Alcotest.(check string) "invalid request" "invalid_request"
    (expect_error (Engine.handle_line e "[1,2]"));
  (* Unknown method echoes the (string) id. *)
  let unk = Engine.handle_line e {|{"id":"x7","method":"frobnicate"}|} in
  Alcotest.(check string) "unknown method" "unknown_method" (expect_error unk);
  Alcotest.(check bool) "id echoed" true
    (Json.equal (Json.Str "x7") (response_id unk));
  (* Missing session. *)
  let ghost =
    Engine.handle_line e {|{"id":9,"method":"place","params":{"session":"g"}}|}
  in
  Alcotest.(check string) "unknown session" "unknown_session"
    (expect_error ghost);
  Alcotest.(check bool) "numeric id echoed" true
    (Json.equal (Json.Num 9.0) (response_id ghost));
  (* The engine survives all of the above. *)
  ignore (expect_ok (Engine.handle_line e {|{"id":10,"method":"health"}|}));
  (* The canned overlong response is a well-formed line_too_long error. *)
  Alcotest.(check string) "overlong canned" "line_too_long"
    (expect_error Engine.overlong_response);
  Alcotest.(check bool) "overlong id null" true
    (Json.equal Json.Null (response_id Engine.overlong_response))

let test_engine_place_uses_cache () =
  let e = eng () in
  ignore (load e ());
  let place () =
    expect_ok
      (Engine.handle_line e
         {|{"id":1,"method":"place","params":{"session":"s","algo":"dp"}}|})
  in
  let first = place () in
  let second = place () in
  Alcotest.(check bool) "first place misses" false (bool_field first "cache_hit");
  Alcotest.(check bool) "second place hits" true (bool_field second "cache_hit");
  (* Same fabric, same workload: the answer must not depend on the cache. *)
  let render r key = Json.to_string (Option.get (Json.member key r)) in
  Alcotest.(check string) "same placement" (render first "placement")
    (render second "placement");
  Alcotest.(check string) "same cost" (render first "cost") (render second "cost");
  let stats = expect_ok (Engine.handle_line e {|{"id":2,"method":"stats"}|}) in
  match Json.member "cache" stats with
  | Some cache -> (
      match (Json.member "hits" cache, Json.member "entries" cache) with
      | Some (Json.Num h), Some (Json.Num n) ->
          Alcotest.(check bool) "stats report a hit" true (h >= 1.0);
          Alcotest.(check bool) "one fabric cached" true
            (Float.compare n 1.0 = 0)
      | _ -> Alcotest.fail "stats.cache missing hits/entries")
  | None -> Alcotest.fail "stats without cache section"

let test_engine_migrate_flow () =
  let e = eng () in
  ignore (load e ());
  (* Migration without a placement is a structured refusal. *)
  Alcotest.(check string) "migrate before place" "invalid_params"
    (expect_error
       (Engine.handle_line e
          {|{"id":1,"method":"migrate","params":{"session":"s"}}|}));
  ignore
    (expect_ok
       (Engine.handle_line e
          {|{"id":2,"method":"place","params":{"session":"s"}}|}));
  ignore
    (expect_ok
       (Engine.handle_line e
          {|{"id":3,"method":"rates_update","params":{"session":"s","seed":2}}|}));
  let m =
    expect_ok
      (Engine.handle_line e
         {|{"id":4,"method":"migrate","params":{"session":"s","algo":"mpareto","mu":100}}|})
  in
  Alcotest.(check string) "algo echoed" "mpareto" (str_field m "algo");
  Alcotest.(check bool) "migrate reuses cached matrix" true
    (bool_field m "cache_hit")

let test_engine_simulate_events () =
  let e = eng () in
  ignore (load e ());
  let r =
    expect_ok
      (Engine.handle_line e
         {|{"id":1,"method":"simulate_events","params":{"session":"s","mu":1e4,"trigger":"threshold:1.2","probe_every":0.5}}|})
  in
  Alcotest.(check string) "trigger echoed" "threshold" (str_field r "trigger");
  Alcotest.(check string) "default policy" "mPareto" (str_field r "policy");
  let numf key =
    match Json.member key r with
    | Some (Json.Num x) -> x
    | _ -> Alcotest.failf "expected numeric field %s" key
  in
  Alcotest.(check bool) "events processed" true (numf "events" > 0.0);
  Alcotest.(check bool) "total = comm + migration" true
    (Float.compare (numf "total_cost")
       (numf "comm_cost" +. numf "migration_cost")
    = 0);
  (* The replay runs on copies: the session still has no placement, so
     a migrate must still be refused. *)
  Alcotest.(check string) "session placement untouched" "invalid_params"
    (expect_error
       (Engine.handle_line e
          {|{"id":2,"method":"migrate","params":{"session":"s"}}|}));
  (* Bad trigger grammar is a structured refusal. *)
  Alcotest.(check string) "bad trigger" "invalid_params"
    (expect_error
       (Engine.handle_line e
          {|{"id":3,"method":"simulate_events","params":{"session":"s","trigger":"sometimes"}}|}))

(* Every name in the policy table is accepted by simulate_events and
   echoed under the policy's display name. *)
let test_engine_simulate_every_policy () =
  let e = eng () in
  ignore (load e ());
  List.iter
    (fun (name, policy) ->
      let r =
        expect_ok
          (Engine.handle_line e
             (Printf.sprintf
                {|{"id":1,"method":"simulate_events","params":{"session":"s","policy":%S,"trigger":"threshold:1.2"}}|}
                name))
      in
      Alcotest.(check string) name
        (Ppdc_sim.Engine.policy_name policy)
        (str_field r "policy"))
    Ppdc_sim.Engine.policies

let test_engine_fail_links_changes_digest () =
  let e = eng () in
  let loaded = load e ~k:4 () in
  let before = str_field loaded "digest" in
  let degraded =
    expect_ok
      (Engine.handle_line e
         {|{"id":1,"method":"fail_links","params":{"session":"s","fraction":0.05,"seed":3}}|})
  in
  let after = str_field degraded "digest" in
  Alcotest.(check bool) "digest changed" false (String.equal before after);
  (* The degraded fabric is new to the cache: its first place misses. *)
  let p =
    expect_ok
      (Engine.handle_line e
         {|{"id":2,"method":"place","params":{"session":"s"}}|})
  in
  Alcotest.(check bool) "degraded fabric misses" false (bool_field p "cache_hit")

let num_field j key =
  match Json.member key j with
  | Some (Json.Num n) -> n
  | _ -> Alcotest.failf "expected numeric field %s" key

(* Method names are client input: 200 distinct unknown names, one as
   long as a line allows, share one stats entry instead of adding 200,
   and still count as requests and errors. *)
let test_engine_unknown_methods_bounded () =
  let e = eng () in
  let requests id =
    let stats =
      expect_ok
        (Engine.handle_line e
           (Printf.sprintf {|{"id":%d,"method":"stats"}|} id))
    in
    match Json.member "requests" stats with
    | Some r -> r
    | None -> Alcotest.fail "stats without requests section"
  in
  let before = requests 0 in
  for i = 1 to 200 do
    let name =
      if i = 200 then String.make 201 'f' else Printf.sprintf "frob%d" i
    in
    Alcotest.(check string) "unknown method" "unknown_method"
      (expect_error
         (Engine.handle_line e
            (Printf.sprintf {|{"id":%d,"method":%S}|} i name)))
  done;
  let after = requests 201 in
  let keys section =
    match Json.member section after with
    | Some (Json.Obj fields) -> List.map fst fields
    | _ -> Alcotest.failf "stats without %s" section
  in
  Alcotest.(check (list string)) "by_method keys"
    [ "stats"; "unknown_method" ] (keys "by_method");
  Alcotest.(check (list string)) "latency_ms keys"
    [ "stats"; "unknown_method" ] (keys "latency_ms");
  (match Json.member "by_method" after with
  | Some counts ->
      Alcotest.(check (float 0.0)) "unknown calls" 200.0
        (num_field counts "unknown_method")
  | None -> Alcotest.fail "stats without by_method");
  let grew key = num_field after key -. num_field before key in
  Alcotest.(check (float 0.0)) "errors grew by 200" 200.0 (grew "errors");
  Alcotest.(check (float 0.0)) "total grew by 200 and the second stats"
    201.0 (grew "total")

(* The meters keep integer nanoseconds: each method's mean is at most
   its max, and its total is its count times its mean to within 1 ns
   per call. *)
let test_engine_latency_meters () =
  let e = eng () in
  ignore (load e ());
  List.iter
    (fun line -> ignore (Engine.handle_line e line))
    [
      {|{"id":1,"method":"health"}|};
      {|{"id":2,"method":"place","params":{"session":"s"}}|};
      {|{"id":3,"method":"place","params":{"session":"s"}}|};
      {|{"id":4,"method":"migrate","params":{"session":"s","mu":100}}|};
      {|{"id":5,"method":"frobnicate"}|};
      {|{"id":6,"method":"stats"}|};
    ];
  let stats = expect_ok (Engine.handle_line e {|{"id":7,"method":"stats"}|}) in
  let latency =
    match
      Option.bind (Json.member "requests" stats) (Json.member "latency_ms")
    with
    | Some (Json.Obj rows) -> rows
    | _ -> Alcotest.fail "stats without requests.latency_ms"
  in
  Alcotest.(check (list string)) "metered methods"
    [ "health"; "load_topology"; "migrate"; "place"; "stats"; "unknown_method" ]
    (List.map fst latency);
  List.iter
    (fun (m, row) ->
      let count = num_field row "count" and mean = num_field row "mean_ms" in
      Alcotest.(check bool) (m ^ ": mean_ms <= max_ms") true
        (mean <= num_field row "max_ms");
      Alcotest.(check (float (count *. 1e-6)))
        (m ^ ": total_ms = count x mean_ms") (num_field row "total_ms")
        (count *. mean))
    latency

let test_engine_fail_links_repairs_warm_cache () =
  (* When the healthy fabric's matrix is already cached, fail_links
     derives the degraded matrix incrementally and installs it under
     the new digest — so the first place after the failure is a warm
     hit, not a cold all-pairs rebuild. *)
  let e = eng () in
  ignore (load e ~k:4 ());
  let place id =
    expect_ok
      (Engine.handle_line e
         (Printf.sprintf
            {|{"id":%d,"method":"place","params":{"session":"s","algo":"dp"}}|}
            id))
  in
  ignore (place 1);
  let degraded =
    expect_ok
      (Engine.handle_line e
         {|{"id":2,"method":"fail_links","params":{"session":"s","fraction":0.05,"seed":3}}|})
  in
  Alcotest.(check bool) "links failed" true
    (num_field degraded "failed_count" >= 1.0);
  Alcotest.(check bool) "matrix repaired" true
    (bool_field degraded "repaired_cost_matrix");
  Alcotest.(check bool) "matrix cached after repair" true
    (bool_field degraded "cached_cost_matrix");
  let p = place 3 in
  Alcotest.(check bool) "first place after failure is warm" true
    (bool_field p "cache_hit");
  let stats = expect_ok (Engine.handle_line e {|{"id":4,"method":"stats"}|}) in
  match Json.member "cache" stats with
  | Some cache ->
      Alcotest.(check bool) "one repair counted" true
        (Float.compare (num_field cache "repairs") 1.0 = 0);
      Alcotest.(check bool) "one cold rebuild counted" true
        (Float.compare (num_field cache "rebuilds") 1.0 = 0)
  | None -> Alcotest.fail "stats without cache section"

let test_engine_failure_log_ordering () =
  (* Two failure episodes: the session's stats log must be their
     concatenation in episode order, oldest first. *)
  let e = eng () in
  ignore (load e ~k:4 ());
  let episode id seed =
    let r =
      expect_ok
        (Engine.handle_line e
           (Printf.sprintf
              {|{"id":%d,"method":"fail_links","params":{"session":"s","fraction":0.05,"seed":%d}}|}
              id seed))
    in
    match Json.member "failed" r with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "fail_links without failed list"
  in
  let first = episode 1 3 in
  let second = episode 2 11 in
  let stats = expect_ok (Engine.handle_line e {|{"id":3,"method":"stats"}|}) in
  match Json.member "sessions" stats with
  | Some (Json.List [ session ]) -> (
      Alcotest.(check bool) "failed_links counts both episodes" true
        (Float.compare
           (num_field session "failed_links")
           (float_of_int (List.length first + List.length second))
        = 0);
      match Json.member "failed" session with
      | Some (Json.List logged) ->
          Alcotest.(check string) "log is episode-ordered"
            (Json.to_string (Json.List (first @ second)))
            (Json.to_string (Json.List logged))
      | _ -> Alcotest.fail "session stats without failed log")
  | _ -> Alcotest.fail "stats without a single session"

let test_engine_invalid_params () =
  let e = eng () in
  ignore (load e ());
  Alcotest.(check string) "bogus algo" "invalid_params"
    (expect_error
       (Engine.handle_line e
          {|{"id":1,"method":"place","params":{"session":"s","algo":"bogus"}}|}));
  Alcotest.(check string) "seed+scale both given" "invalid_params"
    (expect_error
       (Engine.handle_line e
          {|{"id":2,"method":"rates_update","params":{"session":"s","seed":1,"scale":2.0}}|}));
  (* Odd fat-tree arity is rejected by the builder; the engine turns
     the exception into a structured error and keeps serving. *)
  Alcotest.(check string) "odd k" "invalid_params"
    (expect_error
       (Engine.handle_line e
          {|{"id":3,"method":"load_topology","params":{"session":"t","k":3}}|}));
  ignore (expect_ok (Engine.handle_line e {|{"id":4,"method":"health"}|}))

(* A non-positive pair_limit is refused with a message naming it. *)
let test_engine_pair_limit () =
  let e = eng () in
  ignore (load e ());
  List.iter
    (fun k ->
      let line =
        Engine.handle_line e
          (Printf.sprintf
             {|{"id":1,"method":"place","params":{"session":"s","algo":"dp","pair_limit":%d}}|}
             k)
      in
      Alcotest.(check string) "code" "invalid_params" (expect_error line);
      match Json.member "error" (Json.parse line) with
      | Some err ->
          Alcotest.(check string)
            "message"
            (Printf.sprintf
               "Placement_dp.solve: pair_limit must be >= 1, got %d" k)
            (str_field err "message")
      | None -> Alcotest.fail "no error object")
    [ -1; 0 ];
  ignore
    (expect_ok
       (Engine.handle_line e
          {|{"id":2,"method":"place","params":{"session":"s","algo":"dp","pair_limit":2}}|}))

(* A non-finite or negative mu is refused by every migrate algorithm and
   by simulate_events; mu = 0 (Theorem 4) stays valid. *)
let test_engine_bad_mu () =
  let e = eng () in
  ignore (load e ());
  ignore
    (expect_ok
       (Engine.handle_line e
          {|{"id":1,"method":"place","params":{"session":"s"}}|}));
  List.iter
    (fun mu ->
      List.iter
        (fun algo ->
          Alcotest.(check string)
            (Printf.sprintf "migrate %s mu=%s" algo mu)
            "invalid_params"
            (expect_error
               (Engine.handle_line e
                  (Printf.sprintf
                     {|{"id":2,"method":"migrate","params":{"session":"s","algo":"%s","mu":%s}}|}
                     algo mu))))
        [ "mpareto"; "optimal"; "plan"; "mcf"; "none" ];
      Alcotest.(check string)
        (Printf.sprintf "simulate_events mu=%s" mu)
        "invalid_params"
        (expect_error
           (Engine.handle_line e
              (Printf.sprintf
                 {|{"id":3,"method":"simulate_events","params":{"session":"s","mu":%s}}|}
                 mu))))
    [ "1e999"; "-1" ];
  ignore
    (expect_ok
       (Engine.handle_line e
          {|{"id":4,"method":"migrate","params":{"session":"s","algo":"optimal","mu":0}}|}))

(* A probe schedule finer than Events.probes' tick cap is refused as
   invalid_params, and the session keeps serving. Without the cap,
   0.001 h over the 12 h day is 12,012 events, and each tenfold finer
   period ten times more. *)
let test_engine_probe_cap () =
  let e = eng () in
  ignore (load e ());
  let simulate every =
    Engine.handle_line e
      (Printf.sprintf
         {|{"id":1,"method":"simulate_events","params":{"session":"s","trigger":"periodic:1","probe_every":%s}}|}
         every)
  in
  Alcotest.(check string) "probe_every 0.001" "invalid_params"
    (expect_error (simulate "0.001"));
  ignore (expect_ok (simulate "0.5"))

(* Rates whose total overflows a float are refused, and so is a place or
   migrate whose cost overflows, and the session keeps its rates,
   placement and flows: after each refusal a migrate that stays put and
   a fresh place answer exactly as before it. *)
let test_engine_scale_overflow () =
  let e = eng () in
  ignore (load e ~l:2 ());
  let call line = Engine.handle_line e line in
  let update params =
    Printf.sprintf
      {|{"id":2,"method":"rates_update","params":{"session":"s",%s}}|} params
  in
  let place = {|{"id":1,"method":"place","params":{"session":"s"}}|} in
  let migrate algo =
    Printf.sprintf
      {|{"id":3,"method":"migrate","params":{"session":"s","algo":%S,"mu":100}}|}
      algo
  in
  let bits r key = Int64.bits_of_float (num_field r key) in
  (* The migrate runs first: it reads the stored placement and flows,
     which the place after it replaces with the same placement. *)
  let answers () =
    let stay = expect_ok (call (migrate "none")) in
    let placed = expect_ok (call place) in
    ( bits stay "total_cost",
      (match Json.member "placement" placed with
      | Some p -> Json.to_string p
      | None -> Alcotest.fail "place answer without placement"),
      bits placed "cost" )
  in
  let refused name line =
    Alcotest.(check string) name "invalid_params" (expect_error (call line))
  in
  ignore (expect_ok (call (update {|"rates":[1000,3000]|})));
  ignore (expect_ok (call place));
  let before = answers () in
  let unchanged name =
    Alcotest.(check (triple int64 string int64)) name before (answers ())
  in
  refused "scale 1e308" (update {|"scale":1e308|});
  unchanged "after scale 1e308";
  refused "rates summing past max_float" (update {|"rates":[1e308,1e308]|});
  unchanged "after rates [1e308, 1e308]";
  (* Λ = 1.6e308 is finite, but every cost overflows. *)
  ignore (expect_ok (call (update {|"rates":[8e307,8e307]|})));
  refused "scale overflowing the total" (update {|"scale":1.2|});
  refused "place with an infinite cost" place;
  List.iter
    (fun algo -> refused ("migrate " ^ algo ^ " with an infinite cost") (migrate algo))
    [ "mpareto"; "optimal"; "plan"; "mcf"; "none" ];
  ignore (expect_ok (call (update {|"rates":[1000,3000]|})));
  unchanged "after the refused place and migrates"

let test_engine_shutdown () =
  let e = eng () in
  ignore (expect_ok (Engine.handle_line e {|{"id":1,"method":"shutdown"}|}));
  Alcotest.(check bool) "stopped" true (Engine.stopped e)

let test_engine_deadline () =
  let e = eng () in
  (* Deadlines live on the monotonic Clock timebase, not the wall
     clock: an already-expired deadline means the handler never
     starts, the error echoes the id, and the engine keeps serving. *)
  let late =
    Engine.handle_line ~deadline:(Clock.now () -. 1.0) e
      {|{"id":"d1","method":"health"}|}
  in
  Alcotest.(check string) "deadline code" "deadline_exceeded"
    (expect_error late);
  Alcotest.(check bool) "deadline id echoed" true
    (Json.equal (Json.Str "d1") (response_id late));
  (* A generous deadline changes nothing. *)
  ignore
    (expect_ok
       (Engine.handle_line ~deadline:(Clock.now () +. 60.0) e
          {|{"id":"d2","method":"health"}|}));
  let stats = expect_ok (Engine.handle_line e {|{"id":"d3","method":"stats"}|}) in
  match Json.member "requests" stats with
  | Some req -> (
      match Json.member "deadline_exceeded" req with
      | Some (Json.Num n) ->
          Alcotest.(check bool) "one deadline miss counted" true
            (Float.compare n 1.0 = 0)
      | _ -> Alcotest.fail "stats without deadline_exceeded counter")
  | None -> Alcotest.fail "stats without requests section"

let test_engine_overloaded_response () =
  (* The canned rejection the socket transport writes before it ever
     reads a request: well-formed, code overloaded, id null. *)
  Alcotest.(check string) "overloaded canned" "overloaded"
    (expect_error Engine.overloaded_response);
  Alcotest.(check bool) "overloaded id null" true
    (Json.equal Json.Null (response_id Engine.overloaded_response))

(* A fabric whose cost matrix the daemon could not hold is refused
   before anything is built, with a message naming the limit, and
   leaves the session table as it was; the largest unit fabric still
   loads. *)
let test_engine_fabric_limits () =
  let e = eng () in
  let sessions () =
    let stats = expect_ok (Engine.handle_line e {|{"id":0,"method":"stats"}|}) in
    match Json.member "registry" stats with
    | Some reg -> (
        match Json.member "sessions" reg with
        | Some (Json.Num n) -> int_of_float n
        | _ -> Alcotest.fail "registry without sessions count")
    | None -> Alcotest.fail "stats without registry section"
  in
  ignore (load e ());
  List.iter
    (fun (params, limit) ->
      let line =
        Engine.handle_line e
          (Printf.sprintf
             {|{"id":1,"method":"load_topology","params":{"session":"big",%s}}|}
             params)
      in
      Alcotest.(check string) (params ^ " code") "invalid_params"
        (expect_error line);
      (match Json.member "error" (Json.parse line) with
      | Some err ->
          let msg = str_field err "message" in
          let has_limit =
            let n = String.length limit in
            let rec scan i =
              i + n <= String.length msg
              && (String.equal (String.sub msg i n) limit || scan (i + 1))
            in
            scan 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s names %s in %S" params limit msg)
            true has_limit
      | None -> Alcotest.fail "no error object");
      Alcotest.(check int) (params ^ " creates no session") 1 (sessions ()))
    [
      ({|"k":1000|}, "48");
      ({|"k":50|}, "48");
      ({|"k":34,"weighted":true|}, "32");
      ({|"k":4,"l":1000001|}, "1000000");
      ({|"k":4,"n":21|}, "20");
    ];
  (* The refused loads left nothing to place on and built no matrix. *)
  Alcotest.(check string) "nothing to place after a refused load"
    "unknown_session"
    (expect_error
       (Engine.handle_line e
          {|{"id":2,"method":"place","params":{"session":"big"}}|}));
  let stats = expect_ok (Engine.handle_line e {|{"id":0,"method":"stats"}|}) in
  Alcotest.(check (float 0.0)) "no matrix built" 0.0
    (num_field (Option.get (Json.member "cache" stats)) "misses");
  let big = load e ~session:"big" ~k:48 ~l:10 () in
  Alcotest.(check int) "unit k=48 hosts" 27648
    (match Json.member "hosts" big with
    | Some (Json.Num n) -> int_of_float n
    | _ -> Alcotest.fail "load_topology without hosts");
  Alcotest.(check int) "unit k=48 is a session" 2 (sessions ());
  (* A chain of all 20 switches of k=4 fits. *)
  ignore (load e ~session:"long" ~n:20 ());
  Alcotest.(check bool) "n=20 places" true
    (Option.is_some
       (Json.member "placement"
          (expect_ok
             (Engine.handle_line e
                {|{"id":3,"method":"place","params":{"session":"long"}}|}))))

(* [stats.runtime] carries the process's GC counters, so a mix whose
   major collections climb with every request shows it from the daemon
   alone. The counts are live, not a snapshot taken once: they never
   fall across requests, and a forced major cycle moves them. *)
let test_engine_stats_runtime () =
  let e = eng () in
  let runtime () =
    let stats = expect_ok (Engine.handle_line e {|{"id":0,"method":"stats"}|}) in
    match Json.member "runtime" stats with
    | Some r ->
        List.map (num_field r)
          [ "major_collections"; "minor_collections"; "heap_words";
            "top_heap_words" ]
    | None -> Alcotest.fail "stats without runtime section"
  in
  let majors () = List.hd (runtime ()) in
  let last = ref (majors ()) in
  List.iter
    (fun line ->
      ignore (expect_ok (Engine.handle_line e line));
      let now = majors () in
      Alcotest.(check bool)
        (Printf.sprintf "major_collections %g -> %g after %s" !last now line)
        true (now >= !last);
      last := now)
    [
      {|{"id":1,"method":"load_topology","params":{"session":"s","k":4,"l":6,"n":3}}|};
      {|{"id":2,"method":"place","params":{"session":"s"}}|};
      {|{"id":3,"method":"fail_links","params":{"session":"s","fraction":0.25}}|};
      {|{"id":4,"method":"place","params":{"session":"s"}}|};
      {|{"id":5,"method":"migrate","params":{"session":"s","mu":10}}|};
    ];
  Gc.full_major ();
  Alcotest.(check bool) "a forced major cycle is counted" true
    (majors () > !last);
  match runtime () with
  | [ _; minors; heap; top ] ->
      Alcotest.(check bool) "minor collections counted" true (minors > 0.0);
      Alcotest.(check bool) "heap within its peak" true
        (heap > 0.0 && heap <= top)
  | _ -> assert false

(* A session keeps the attachment sums of its last dp or mpareto solve,
   keyed on the matrix, the flows and the rates. Each step below gives
   the number of attachment passes ([cost.attach]) it must add: one rate
   vector is attached once however many decisions use it, and each
   change of an input costs exactly one pass at the next solve. Every
   answer must equal the one a fresh engine gives after replaying the
   steps before it and, before a solve, refreshing the session's rates
   to an equal new array ([scale] 1), which makes that engine attach
   afresh, so a stale memo shows in the answer as well as in the count.
   Capacity 1 and two fabrics make the last steps evict and rebuild a's
   matrix. *)
let memo_steps =
  [
    ("load_topology", "a", "", 0);
    ("place", "a", "", 1);
    ("load_topology", "a", "", 0);
    ("place", "a", "", 1);
    ("migrate", "a", {|,"mu":10|}, 0);
    ("place", "a", "", 0);
    ("rates_update", "a", {|,"rates":[1,2,3,4,5,6]|}, 0);
    ("place", "a", "", 1);
    ("migrate", "a", {|,"mu":10|}, 0);
    ("rates_update", "a", {|,"seed":7|}, 0);
    ("migrate", "a", {|,"mu":10|}, 1);
    ("rates_update", "a", {|,"scale":0.5|}, 0);
    ("place", "a", "", 1);
    ("migrate", "a", {|,"algo":"plan","mu":10|}, 0);
    ("place", "a", "", 1);
    ("migrate", "a", {|,"algo":"mcf","mu":10|}, 0);
    ("migrate", "a", {|,"mu":10|}, 1);
    ("fail_links", "a", {|,"fraction":0.25|}, 0);
    ("place", "a", "", 1);
    ("migrate", "a", {|,"mu":10|}, 0);
    ("load_topology", "b", {|,"weighted":true|}, 0);
    ("place", "b", "", 1);
    ("place", "a", "", 1);
    ("migrate", "a", {|,"mu":10|}, 0);
  ]

let step_line (meth, session, extra, _) =
  let extra =
    if meth = "load_topology" then {|,"k":4,"l":6,"n":3|} ^ extra else extra
  in
  Printf.sprintf {|{"id":1,"method":%S,"params":{"session":%S%s}}|} meth
    session extra

(* Obs state is global: turn it on from a clean slate, then off. *)
let with_metrics f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled false)
    f

let test_engine_attach_memo () =
  let engine () = Engine.create ~cache_capacity:1 () in
  let passes () =
    Option.value ~default:0
      (List.assoc_opt "cost.attach" (Obs.snapshot ()).Obs.counters)
  in
  let rec strip = function
    | Json.Obj fields ->
        Json.Obj
          (List.filter_map
             (fun (k, v) -> if k = "elapsed_ms" then None else Some (k, strip v))
             fields)
    | Json.List xs -> Json.List (List.map strip xs)
    | v -> v
  in
  let answer e line =
    Json.to_string (strip (Json.parse (Engine.handle_line e line)))
  in
  with_metrics @@ fun () ->
  let e = engine () in
  let answers =
    List.mapi
      (fun i ((_, _, _, expected) as step) ->
        let line = step_line step in
        let before = passes () in
        let a = answer e line in
        ignore (expect_ok a);
        Alcotest.(check int)
          (Printf.sprintf "step %d adds %d passes: %s" i expected line)
          expected (passes () - before);
        a)
      memo_steps
  in
  Alcotest.(check bool) "the eviction rebuilt a's matrix" false
    (bool_field (expect_ok (List.nth answers 22)) "cache_hit");
  List.iteri
    (fun i a ->
      let fresh = engine () in
      List.iteri
        (fun j step ->
          if j < i then ignore (Engine.handle_line fresh (step_line step)))
        memo_steps;
      let ((meth, session, _, _) as step) = List.nth memo_steps i in
      if meth = "place" || meth = "migrate" then
        ignore
          (expect_ok
             (Engine.handle_line fresh
                (step_line ("rates_update", session, {|,"scale":1|}, 0))));
      Alcotest.(check string)
        (Printf.sprintf "step %d answers as a fresh engine" i)
        (answer fresh (step_line step)) a)
    answers

(* --- protocol fuzzing -------------------------------------------------- *)

(* Random request lines: valid templates, truncated JSON, arbitrary
   bytes (NULs included), and lines far beyond the transport's bound.
   Newlines are scrubbed (the protocol frames by line; we fuzz line
   contents) and anything containing "shutdown" is skipped so [stopped]
   may only flip when a test means it to. *)
let fuzz_line_gen =
  let open QCheck.Gen in
  let scrub s =
    String.map (fun c -> if Char.equal c '\n' then ' ' else c) s
  in
  let template =
    oneofl
      [
        {|{"id":1,"method":"health"}|};
        {|{"id":"z","method":"stats"}|};
        {|{"id":2,"method":"place","params":{"session":"fz"}}|};
        {|{"id":3,"method":"load_topology","params":{"session":"fz","k":4,"l":3,"n":2}}|};
        {|{"id":4,"method":"rates_update","params":{"session":"fz","scale":2}}|};
        {|{"method":"health"}|};
        {|{"id":null,"method":"migrate","params":{"session":"fz"}}|};
        {|{"id":[1,2],"method":true}|};
        "[]";
        "null";
      ]
  in
  let truncated =
    map2
      (fun t k -> String.sub t 0 (min k (String.length t)))
      template (int_bound 40)
  in
  let junk =
    map scrub (string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 64))
  in
  let huge =
    map (fun c -> String.make 2000 (Char.chr (32 + (c mod 90)))) (int_bound 255)
  in
  frequency [ (3, template); (2, truncated); (3, junk); (1, huge) ]

let fuzz_lines =
  QCheck.make
    ~print:(fun ls -> String.concat " | " (List.map (Printf.sprintf "%S") ls))
    QCheck.Gen.(list_size (int_range 1 20) fuzz_line_gen)

let skip_line l =
  let needle = "shutdown" in
  let nl = String.length needle and n = String.length l in
  let rec find i =
    i + nl <= n && (String.equal (String.sub l i nl) needle || find (i + 1))
  in
  find 0

let is_response line =
  match Json.parse line with
  | exception Failure _ -> false
  | j -> ( match Json.member "ok" j with Some (Json.Bool _) -> true | _ -> false)

let prop_engine_fuzz =
  QCheck.Test.make ~count:300
    ~name:"handle_line is total: one well-formed line, never raises or stops"
    fuzz_lines
    (fun lines ->
      let e = eng () in
      List.iter
        (fun line ->
          if not (skip_line line) then begin
            let resp =
              try Engine.handle_line e line
              with exn ->
                QCheck.Test.fail_reportf "handle_line raised %s on %S"
                  (Printexc.to_string exn) line
            in
            if String.contains resp '\n' then
              QCheck.Test.fail_reportf "embedded newline in response to %S" line;
            if not (is_response resp) then
              QCheck.Test.fail_reportf "malformed response %S to %S" resp line;
            if Engine.stopped e then
              QCheck.Test.fail_reportf "%S stopped the engine" line
          end)
        lines;
      (* Still serving after the whole barrage. *)
      ignore (expect_ok (Engine.handle_line e {|{"id":"after","method":"health"}|}));
      true)

(* The same barrage through the transport's line loop: every non-blank
   input line gets exactly one response line, oversized ones included
   (answered [line_too_long] after resync). *)
let run_serve_channel lines =
  let in_path = Filename.temp_file "ppdc-fuzz" ".in" in
  let out_path = Filename.temp_file "ppdc-fuzz" ".out" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ in_path; out_path ])
    (fun () ->
      let oc0 = open_out_bin in_path in
      List.iter
        (fun l ->
          output_string oc0 l;
          output_char oc0 '\n')
        lines;
      close_out oc0;
      let e = eng () in
      let ic = open_in_bin in_path and oc = open_out_bin out_path in
      Ppdc_server.Transport.serve_channel ~max_line:256 e ic oc;
      close_in ic;
      close_out oc;
      let ic2 = open_in_bin out_path in
      let responses = ref [] in
      (try
         while true do
           responses := input_line ic2 :: !responses
         done
       with End_of_file -> ());
      close_in ic2;
      (e, List.rev !responses))

let prop_serve_channel_fuzz =
  QCheck.Test.make ~count:150
    ~name:"serve_channel: one response line per non-blank request line"
    fuzz_lines
    (fun lines ->
      let lines = List.filter (fun l -> not (skip_line l)) lines in
      let e, responses = run_serve_channel lines in
      (* A line past the 256-byte bound is always answered (line_too_long),
         even when it would otherwise trim to blank; within the bound,
         blank lines are skipped. *)
      let answered l = String.length l > 256 || String.trim l <> "" in
      let expected = List.length (List.filter answered lines) in
      if List.length responses <> expected then
        QCheck.Test.fail_reportf "%d responses to %d non-blank lines"
          (List.length responses) expected;
      List.iter
        (fun r ->
          if not (is_response r) then
            QCheck.Test.fail_reportf "malformed response line %S" r)
        responses;
      if Engine.stopped e then
        QCheck.Test.fail_reportf "fuzz input stopped the engine";
      true)

let test_serve_channel_shutdown_stops () =
  (* [stopped] flips exactly on a real shutdown: the loop answers it,
     stops reading, and later lines are never served. *)
  let e, responses =
    run_serve_channel
      [
        {|{"id":1,"method":"health"}|};
        {|{"id":2,"method":"shutdown"}|};
        {|{"id":3,"method":"health"}|};
      ]
  in
  Alcotest.(check int) "served up to shutdown only" 2 (List.length responses);
  List.iter (fun r -> ignore (expect_ok r)) responses;
  Alcotest.(check bool) "stopped" true (Engine.stopped e)

(* --- stdio integration ------------------------------------------------ *)

let find_binary () =
  match Sys.getenv_opt "PPDC_BIN" with
  | Some p -> p
  | None ->
      Filename.concat
        (Filename.dirname Sys.executable_name)
        "../bin/ppdc.exe"

let test_stdio_protocol () =
  let bin = find_binary () in
  if not (Sys.file_exists bin) then
    Alcotest.failf "ppdc binary not found at %s (set PPDC_BIN)" bin;
  let from_server, to_server =
    Unix.open_process_args bin
      [| bin; "serve"; "--stdio"; "--max-line"; "4096" |]
  in
  let rpc line =
    output_string to_server line;
    output_char to_server '\n';
    flush to_server;
    input_line from_server
  in
  (* Every method answers over the wire. *)
  ignore (expect_ok (rpc {|{"id":1,"method":"health"}|}));
  ignore
    (expect_ok
       (rpc
          {|{"id":2,"method":"load_topology","params":{"session":"s","k":4,"l":6,"n":3}}|}));
  let p1 = expect_ok (rpc {|{"id":3,"method":"place","params":{"session":"s"}}|}) in
  let p2 = expect_ok (rpc {|{"id":4,"method":"place","params":{"session":"s"}}|}) in
  Alcotest.(check bool) "cold place misses" false (bool_field p1 "cache_hit");
  Alcotest.(check bool) "warm place hits" true (bool_field p2 "cache_hit");
  ignore
    (expect_ok
       (rpc
          {|{"id":5,"method":"migrate","params":{"session":"s","algo":"mpareto","mu":100}}|}));
  ignore
    (expect_ok
       (rpc
          {|{"id":6,"method":"rates_update","params":{"session":"s","scale":1.5}}|}));
  ignore
    (expect_ok
       (rpc
          {|{"id":7,"method":"fail_links","params":{"session":"s","fraction":0.05}}|}));
  ignore (expect_ok (rpc {|{"id":8,"method":"stats"}|}));
  (* Malformed JSON: structured error, id null, server keeps serving. *)
  let bad = rpc "{this is not json" in
  Alcotest.(check string) "malformed line" "parse_error" (expect_error bad);
  Alcotest.(check bool) "malformed id null" true
    (Json.equal Json.Null (response_id bad));
  (* Unknown method and missing session echo their ids. *)
  let unk = rpc {|{"id":41,"method":"nope"}|} in
  Alcotest.(check string) "unknown method" "unknown_method" (expect_error unk);
  Alcotest.(check bool) "unknown method id" true
    (Json.equal (Json.Num 41.0) (response_id unk));
  let missing = rpc {|{"id":43,"method":"place","params":{"session":"nope"}}|} in
  Alcotest.(check string) "missing session" "unknown_session"
    (expect_error missing);
  Alcotest.(check bool) "missing session id" true
    (Json.equal (Json.Num 43.0) (response_id missing));
  (* Oversized line: drained up to its newline, answered line_too_long
     (the parser never saw the id, so it is null), stream resyncs. *)
  let oversized =
    Printf.sprintf {|{"id":44,"method":"health","params":{"pad":%S}}|}
      (String.make 5000 'x')
  in
  let too_long = rpc oversized in
  Alcotest.(check string) "oversized line" "line_too_long"
    (expect_error too_long);
  Alcotest.(check bool) "oversized id null" true
    (Json.equal Json.Null (response_id too_long));
  (* Still serving after every error above. *)
  ignore (expect_ok (rpc {|{"id":45,"method":"health"}|}));
  ignore (expect_ok (rpc {|{"id":46,"method":"shutdown"}|}));
  match Unix.close_process (from_server, to_server) with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> Alcotest.failf "server exited with %d" c
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      Alcotest.failf "server killed by signal %d" s

let () =
  Alcotest.run "ppdc_server"
    [
      ( "engine",
        [
          Alcotest.test_case "health" `Quick test_engine_health;
          Alcotest.test_case "errors echo the request id" `Quick
            test_engine_errors_echo_id;
          Alcotest.test_case "repeated place hits the matrix cache" `Quick
            test_engine_place_uses_cache;
          Alcotest.test_case "migrate lifecycle" `Quick test_engine_migrate_flow;
          Alcotest.test_case "simulate_events runs on copies" `Quick
            test_engine_simulate_events;
          Alcotest.test_case "fail_links rekeys the cache" `Quick
            test_engine_fail_links_changes_digest;
          Alcotest.test_case "fail_links repairs a warm cache" `Quick
            test_engine_fail_links_repairs_warm_cache;
          Alcotest.test_case "failure log is episode-ordered" `Quick
            test_engine_failure_log_ordering;
          Alcotest.test_case "invalid params are contained" `Quick
            test_engine_invalid_params;
          Alcotest.test_case "pair_limit < 1 is invalid_params by name" `Quick
            test_engine_pair_limit;
          Alcotest.test_case "shutdown" `Quick test_engine_shutdown;
          Alcotest.test_case "expired deadline is admission control" `Quick
            test_engine_deadline;
          Alcotest.test_case "canned overloaded response" `Quick
            test_engine_overloaded_response;
          Alcotest.test_case "probe_every past the tick cap" `Quick
            test_engine_probe_cap;
          Alcotest.test_case "overflowing scale leaves rates alone" `Quick
            test_engine_scale_overflow;
          Alcotest.test_case "bad mu is invalid_params" `Quick
            test_engine_bad_mu;
          Alcotest.test_case "unknown methods share one entry" `Quick
            test_engine_unknown_methods_bounded;
          Alcotest.test_case "latency meters agree with their counts" `Quick
            test_engine_latency_meters;
          Alcotest.test_case "simulate_events takes every policy name" `Quick
            test_engine_simulate_every_policy;
          Alcotest.test_case "load_topology refuses fabrics it cannot hold"
            `Quick test_engine_fabric_limits;
          Alcotest.test_case "stats carries GC counters" `Quick
            test_engine_stats_runtime;
          Alcotest.test_case "attachment memo misses on every change" `Quick
            test_engine_attach_memo;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_engine_fuzz;
          QCheck_alcotest.to_alcotest prop_serve_channel_fuzz;
          Alcotest.test_case "stopped flips only on real shutdown" `Quick
            test_serve_channel_shutdown_stops;
        ] );
      ( "stdio",
        [
          Alcotest.test_case "full protocol over --stdio" `Quick
            test_stdio_protocol;
        ] );
    ]
