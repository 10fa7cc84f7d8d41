module Pqueue = Ppdc_prelude.Pqueue
module Union_find = Ppdc_prelude.Union_find
module Rng = Ppdc_prelude.Rng
module Stats = Ppdc_prelude.Stats
module Table = Ppdc_prelude.Table
module Obs = Ppdc_prelude.Obs
module Json = Ppdc_prelude.Json
module Lru = Ppdc_prelude.Lru
module Clock = Ppdc_prelude.Clock
module Parallel = Ppdc_prelude.Parallel
module Mutexes = Ppdc_prelude.Mutexes
module Work_queue = Ppdc_prelude.Work_queue

(* --- int heap ----------------------------------------------------------- *)

module Int_heap = Pqueue.Int_heap

let drain_int_heap q =
  let rec go acc =
    if Int_heap.is_empty q then List.rev acc
    else
      let p = Int_heap.min_prio q in
      go ((p, Int_heap.pop q) :: acc)
  in
  go []

let test_pqueue_orders () =
  let q = Int_heap.create () in
  List.iter (fun p -> Int_heap.push q p (int_of_float p)) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  Alcotest.(check (list int)) "ascending" [ 1; 2; 3; 4; 5 ]
    (List.map snd (drain_int_heap q));
  Alcotest.(check bool) "empty after drain" true (Int_heap.is_empty q)

let test_pqueue_peek_and_clear () =
  let q = Int_heap.create () in
  Alcotest.(check bool) "peek empty raises" true
    (try
       ignore (Int_heap.min_prio q);
       false
     with Invalid_argument _ -> true);
  Int_heap.push q 2.0 2;
  Int_heap.push q 1.0 1;
  Alcotest.(check (float 0.0)) "peek priority" 1.0 (Int_heap.min_prio q);
  Alcotest.(check int) "length" 2 (Int_heap.length q);
  Int_heap.clear q;
  Alcotest.(check int) "cleared" 0 (Int_heap.length q)

let test_pqueue_grows () =
  let q = Int_heap.create ~capacity:1 () in
  for i = 1000 downto 1 do
    Int_heap.push q (float_of_int i) i
  done;
  Alcotest.(check int) "holds 1000" 1000 (Int_heap.length q);
  Alcotest.(check int) "min of 1000" 1 (Int_heap.pop q)

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue pops in sorted order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun priorities ->
      let q = Int_heap.create () in
      List.iteri (fun i p -> Int_heap.push q p i) priorities;
      List.map fst (drain_int_heap q) = List.sort compare priorities)

(* --- union-find ------------------------------------------------------- *)

let test_union_find_basic () =
  let uf = Union_find.create 6 in
  Alcotest.(check int) "six singletons" 6 (Union_find.count_sets uf);
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 2 3);
  Alcotest.(check bool) "0~1" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "0!~2" false (Union_find.same uf 0 2);
  ignore (Union_find.union uf 1 3);
  Alcotest.(check bool) "0~3 after chain" true (Union_find.same uf 0 3);
  Alcotest.(check int) "set size" 4 (Union_find.size uf 2);
  Alcotest.(check int) "three sets" 3 (Union_find.count_sets uf)

let test_union_find_self_union () =
  let uf = Union_find.create 3 in
  let r = Union_find.union uf 1 1 in
  Alcotest.(check int) "self union is no-op" (Union_find.find uf 1) r;
  Alcotest.(check int) "still 3 sets" 3 (Union_find.count_sets uf)

let prop_union_find_transitive =
  QCheck.Test.make ~name:"union-find equivalence is transitive" ~count:100
    QCheck.(list (pair (int_bound 19) (int_bound 19)))
    (fun unions ->
      let uf = Union_find.create 20 in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) unions;
      (* Check transitivity on all triples. *)
      let ok = ref true in
      for a = 0 to 19 do
        for b = 0 to 19 do
          for c = 0 to 19 do
            if
              Union_find.same uf a b && Union_find.same uf b c
              && not (Union_find.same uf a c)
            then ok := false
          done
        done
      done;
      !ok)

(* --- rng --------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independence () =
  let a = Rng.create 42 in
  let b = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Rng.int b 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    Alcotest.(check bool) "int in bound" true (x >= 0 && x < 10);
    let f = Rng.uniform rng ~lo:2.0 ~hi:5.0 in
    Alcotest.(check bool) "uniform in range" true (f >= 2.0 && f < 5.0)
  done

let test_rng_int_rejects_bad_bound () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_shuffle_is_permutation () =
  let rng = Rng.create 5 in
  let arr = Array.init 100 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check bool) "permutation" true (sorted = Array.init 100 (fun i -> i))

let test_rng_uniformity_rough () =
  (* chi-square-ish sanity: 10 buckets, 10k draws, each bucket within
     [800, 1200]. *)
  let rng = Rng.create 11 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d balanced" i)
        true
        (c > 800 && c < 1200))
    buckets

(* --- stats ------------------------------------------------------------- *)

let test_stats_known_values () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean xs);
  Alcotest.(check (float 1e-9)) "sample variance" (32.0 /. 7.0) (Stats.variance xs)

let test_stats_summary_ci () =
  let xs = Array.make 20 10.0 in
  let s = Stats.summary xs in
  Alcotest.(check (float 1e-9)) "mean of constants" 10.0 s.mean;
  Alcotest.(check (float 1e-9)) "zero ci" 0.0 s.ci95;
  Alcotest.(check int) "n" 20 s.n

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.percentile xs 0.5);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.percentile xs 1.0);
  Alcotest.(check (float 1e-9)) "interpolated" 1.5 (Stats.percentile xs 0.125)

let test_stats_empty_raises () =
  Alcotest.check_raises "summary of empty"
    (Invalid_argument "Stats.summary: empty data") (fun () ->
      ignore (Stats.summary [||]))

let test_stats_percentile_rejects_nan () =
  (* Regression: polymorphic [compare] placed NaN at an arbitrary rank
     and the interpolation silently produced garbage. *)
  Alcotest.check_raises "NaN rejected"
    (Invalid_argument "Stats.percentile: NaN in data") (fun () ->
      ignore (Stats.percentile [| 1.0; Float.nan; 3.0 |] 0.5));
  (* Float.compare must still order negative zero, infinities, etc. *)
  Alcotest.(check (float 0.0)) "infinities ordered" 1.0
    (Stats.percentile [| Float.infinity; 1.0; Float.neg_infinity |] 0.5)

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"mean lies within min and max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let arr = Array.of_list xs in
      let s = Stats.summary arr in
      s.min <= s.mean +. 1e-9 && s.mean <= s.max +. 1e-9)

(* --- observability ------------------------------------------------------ *)

(* Obs state is global; each test starts from a clean, enabled slate and
   leaves the layer disabled. *)
let with_obs f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled false)
    f

let test_obs_disabled_is_noop () =
  Obs.set_enabled false;
  Obs.reset ();
  Obs.incr "c";
  Obs.observe "h" 1.0;
  Obs.observe_span "s" 0.5;
  Obs.emit "e" [ ("k", Obs.Int 1) ];
  Alcotest.(check int) "no work recorded" 0
    (Obs.time "t" (fun () ->
         let snap = Obs.snapshot () in
         List.length snap.Obs.counters
         + List.length snap.Obs.spans
         + List.length snap.Obs.hists
         + List.length snap.Obs.events))

let test_obs_counters_and_hists () =
  with_obs @@ fun () ->
  Obs.incr "c";
  Obs.incr ~by:4 "c";
  Obs.observe "h" 1.0;
  Obs.observe "h" 3.0;
  Obs.observe "h" Float.nan (* dropped: summaries stay NaN-free *);
  let x = Obs.time "span" (fun () -> 42) in
  Alcotest.(check int) "time passes the result through" 42 x;
  let snap = Obs.snapshot () in
  Alcotest.(check (list (pair string int))) "counter summed" [ ("c", 5) ]
    snap.Obs.counters;
  (match snap.Obs.hists with
  | [ ("h", d) ] ->
      Alcotest.(check int) "two finite samples" 2 d.Obs.count;
      Alcotest.(check (float 1e-9)) "mean" 2.0 d.Obs.mean;
      Alcotest.(check (float 1e-9)) "p50" 2.0 d.Obs.p50;
      Alcotest.(check (float 1e-9)) "max" 3.0 d.Obs.max
  | _ -> Alcotest.fail "expected exactly one histogram");
  (match snap.Obs.spans with
  | [ ("span", d) ] ->
      Alcotest.(check int) "one timing" 1 d.Obs.count;
      Alcotest.(check bool) "non-negative duration" true (d.Obs.total >= 0.0)
  | _ -> Alcotest.fail "expected exactly one span")

let test_obs_events_ordered () =
  with_obs @@ fun () ->
  for i = 0 to 4 do
    Obs.emit "tick" [ ("i", Obs.Int i) ]
  done;
  let snap = Obs.snapshot () in
  Alcotest.(check (list int)) "sequence order" [ 0; 1; 2; 3; 4 ]
    (List.map (fun (e : Obs.event) -> e.Obs.seq) snap.Obs.events)

let test_obs_merges_domain_shards () =
  with_obs @@ fun () ->
  (* Each task bumps the same counter once; the merged snapshot must see
     every bump no matter how many domains the pool used. *)
  let tasks = 64 in
  Parallel.parallel_for tasks (fun i ->
      Obs.incr "work";
      Obs.observe "task_index" (float_of_int i));
  let snap = Obs.snapshot () in
  Alcotest.(check (list (pair string int))) "all bumps merged"
    [ ("work", tasks) ] snap.Obs.counters;
  match snap.Obs.hists with
  | [ ("task_index", d) ] ->
      Alcotest.(check int) "all samples merged" tasks d.Obs.count
  | _ -> Alcotest.fail "expected exactly one histogram"

let test_obs_ndjson_roundtrip () =
  with_obs @@ fun () ->
  Obs.incr ~by:7 "solver.runs";
  Obs.observe_span "solve" 0.25;
  Obs.emit "epoch"
    [
      ("policy", Obs.String "mPareto \"quoted\"\n");
      ("hour", Obs.Int 3);
      ("cost", Obs.Float 12.5);
      ("moved", Obs.Bool true);
    ];
  let text = Obs.to_ndjson (Obs.snapshot ()) in
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  let records = List.map Json.parse lines in
  let typed kind =
    List.filter
      (fun r -> Json.member "type" r = Some (Json.Str kind))
      records
  in
  Alcotest.(check int) "one meta line" 1 (List.length (typed "meta"));
  (match typed "event" with
  | [ e ] ->
      Alcotest.(check bool) "string field survives escaping" true
        (Json.member "policy" e = Some (Json.Str "mPareto \"quoted\"\n"));
      Alcotest.(check bool) "numeric field" true
        (Json.member "cost" e = Some (Json.Num 12.5))
  | _ -> Alcotest.fail "expected exactly one event");
  (match typed "counter" with
  | [ c ] ->
      Alcotest.(check bool) "counter value" true
        (Json.member "value" c = Some (Json.Num 7.0))
  | _ -> Alcotest.fail "expected exactly one counter");
  match typed "span" with
  | [ s ] ->
      Alcotest.(check bool) "span total" true
        (Json.member "total_s" s = Some (Json.Num 0.25))
  | _ -> Alcotest.fail "expected exactly one span"

let test_obs_json_parser_rejects_garbage () =
  List.iter
    (fun text ->
      Alcotest.(check bool) (Printf.sprintf "rejects %S" text) true
        (try
           ignore (Json.parse text);
           false
         with Failure _ -> true))
    [ ""; "{"; "{\"a\":}"; "[1,]"; "{\"a\":1} trailing"; "\"unterminated" ]

(* --- table ------------------------------------------------------------- *)

let test_table_renders () =
  let t = Table.create ~title:"demo" ~columns:[ "x"; "y" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "10"; "20" ];
  let s = Table.to_string t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 7 = "== demo");
  Alcotest.(check bool) "has row" true
    (String.length s > 0
    && String.split_on_char '\n' s |> List.exists (fun l -> l = "10  20"))

let test_table_rejects_bad_row () =
  let t = Table.create ~title:"demo" ~columns:[ "x"; "y" ] in
  Alcotest.(check bool) "raises on arity mismatch" true
    (try
       Table.add_row t [ "1" ];
       false
     with Invalid_argument _ -> true)

let test_table_csv_quotes () =
  let t = Table.create ~title:"q" ~columns:[ "a" ] in
  Table.add_row t [ "x,y" ];
  Table.add_row t [ "pla\"in" ];
  let csv = Table.to_csv t in
  Alcotest.(check bool) "comma cell quoted" true
    (String.split_on_char '\n' csv |> List.exists (fun l -> l = "\"x,y\""));
  Alcotest.(check bool) "quote escaped" true
    (String.split_on_char '\n' csv
    |> List.exists (fun l -> l = "\"pla\"\"in\""))

(* --- json ------------------------------------------------------------- *)

let test_json_print_known () =
  let v =
    Json.Obj
      [
        ("id", Json.Num 3.0);
        ("ok", Json.Bool true);
        ("msg", Json.Str "a\"b\nc");
        ("xs", Json.List [ Json.Null; Json.Num (-0.5) ]);
      ]
  in
  Alcotest.(check string) "compact one-line"
    {|{"id":3,"ok":true,"msg":"a\"b\nc","xs":[null,-0.5]}|}
    (Json.to_string v)

let test_json_nonfinite_prints_null () =
  Alcotest.(check string) "nan" "null" (Json.to_string (Json.Num Float.nan));
  Alcotest.(check string) "inf" "[null]"
    (Json.to_string (Json.List [ Json.Num Float.infinity ]))

(* The encoder [Json.float_repr] replaced, kept as the reference: [%.12g]
   when it round-trips, else [%.17g]. *)
let printf_float_repr x =
  if not (Float.is_finite x) then "null"
  else
    let s = Printf.sprintf "%.12g" x in
    if Float.equal (float_of_string s) x then s else Printf.sprintf "%.17g" x

let check_float_repr x =
  Alcotest.(check string)
    (Printf.sprintf "%h" x) (printf_float_repr x) (Json.float_repr x)

let test_json_float_repr_edges () =
  List.iter check_float_repr
    [
      0.0; -0.0; 1.0; -1.0; 0.5; -0.5; 0.1; 1e11; 1e12 -. 1.0;
      -.(1e12 -. 1.0); 1e12; -1e12; 1e12 +. 1.0; 1e12 -. 0.5;
      2.0 ** 53.0; -.(2.0 ** 53.0); 2.0 ** 62.0; 2.0 ** 63.0;
      Float.max_float; -.Float.max_float; Float.min_float; 5e-324;
      -5e-324; Float.epsilon; Float.nan; Float.infinity;
      Float.neg_infinity;
    ]

let test_json_member () =
  let v = Json.parse {| {"a": 1, "b": [true, null]} |} in
  (match Json.member "b" v with
  | Some (Json.List [ Json.Bool true; Json.Null ]) -> ()
  | _ -> Alcotest.fail "member b");
  Alcotest.(check bool) "absent key" true
    (Option.is_none (Json.member "z" v));
  Alcotest.(check bool) "member of non-object" true
    (Option.is_none (Json.member "a" Json.Null))

let json_gen =
  let open QCheck.Gen in
  let key = string_size ~gen:printable (0 -- 6) in
  let num =
    oneof
      [
        float_range (-1e9) 1e9;
        map float_of_int (int_range (-1000000) 1000000);
      ]
  in
  sized_size (0 -- 3)
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun x -> Json.Num x) num;
               map (fun s -> Json.Str s) (string_size ~gen:printable (0 -- 8));
             ]
         in
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map
                   (fun xs -> Json.List xs)
                   (list_size (0 -- 4) (self (n - 1))) );
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (0 -- 4) (pair key (self (n - 1)))) );
             ])

let prop_json_print_parse_roundtrip =
  QCheck.Test.make ~name:"print/parse round-trip" ~count:300
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v -> Json.equal v (Json.parse (Json.to_string v)))

(* Random 64-bit patterns cover every exponent, sign and NaN payload;
   integers around the 10^12 cut and uniform draws cover the numbers
   answers carry. *)
let prop_float_repr_matches_printf =
  let gen =
    QCheck.Gen.(
      oneof
        [
          map Int64.float_of_bits int64;
          map float_of_int (int_range (-1_000_000_000_001) 1_000_000_000_001);
          map float_of_int (int_range (-1000) 1000);
          float_range 0.0 1e7;
        ])
  in
  QCheck.Test.make ~name:"float_repr = Printf %.12g/%.17g" ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun x -> String.equal (Json.float_repr x) (printf_float_repr x))

(* --- lru -------------------------------------------------------------- *)

let test_lru_rejects_bad_capacity () =
  match Lru.create ~capacity:0 with
  | (_ : (int, int) Lru.t) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* Install [v] under [k] the only way a key enters the cache: its own
   claimed build. *)
let lru_add c k v = ignore (Lru.find_or_add c k (fun () -> v))
let no_build () = Alcotest.fail "a resident key was built again"

let test_lru_evicts_least_recent () =
  let c = Lru.create ~capacity:2 in
  lru_add c "a" 1;
  lru_add c "b" 2;
  (* Touch "a" so "b" becomes the eviction candidate. *)
  Alcotest.(check (pair bool int)) "a hit" (true, 1)
    (Lru.find_or_add c "a" no_build);
  lru_add c "c" 3;
  Alcotest.(check int) "bounded" 2 (Lru.stats c).entries;
  Alcotest.(check bool) "b evicted" false (Lru.mem c "b");
  Alcotest.(check bool) "a kept by recency refresh" true (Lru.mem c "a");
  Alcotest.(check bool) "c present" true (Lru.mem c "c")

let test_lru_find_or_add () =
  let c = Lru.create ~capacity:4 in
  let builds = ref 0 in
  let build () =
    incr builds;
    42
  in
  let hit1, v1 = Lru.find_or_add c "k" build in
  let hit2, v2 = Lru.find_or_add c "k" build in
  Alcotest.(check (pair bool int)) "miss builds" (false, 42) (hit1, v1);
  Alcotest.(check (pair bool int)) "hit reuses" (true, 42) (hit2, v2);
  Alcotest.(check int) "built exactly once" 1 !builds;
  let st = Lru.stats c in
  Alcotest.(check int) "one hit counted" 1 st.hits;
  Alcotest.(check int) "one miss counted" 1 st.misses;
  Alcotest.(check int) "one build counted" 1 st.builds

let prop_lru_keeps_most_recent =
  QCheck.Test.make
    ~name:"length bounded and most-recent keys resident" ~count:200
    QCheck.(pair (int_range 1 5) (small_list (int_bound 9)))
    (fun (cap, keys) ->
      let c = Lru.create ~capacity:cap in
      List.iter (fun k -> lru_add c k (k * 7)) keys;
      (* Most recent [cap] distinct keys (a repeated key is a hit and
         refreshes recency, so scan newest to oldest). *)
      let recent =
        List.fold_left
          (fun acc k -> if List.mem k acc then acc else acc @ [ k ])
          [] (List.rev keys)
        |> List.filteri (fun i _ -> i < cap)
      in
      (Lru.stats c).entries <= cap
      && List.for_all
           (fun k -> Lru.find_or_add c k (fun () -> -1) = (true, k * 7))
           recent)

let pp_derivation ppf d =
  Format.pp_print_string ppf
    (match d with
    | Lru.Cached -> "Cached"
    | Lru.Absent -> "Absent"
    | Lru.Derived -> "Derived")

let derivation = Alcotest.testable pp_derivation ( = )

let test_lru_derive_leaves_parent_alone () =
  (* derive reads its parent without touching recency or the hit/miss
     counters: the server repairs a degraded fabric's matrix from its
     parent's, and that must not skew the cache statistics its tests
     and operators rely on. *)
  let c = Lru.create ~capacity:2 in
  lru_add c "a" 1;
  lru_add c "b" 2;
  Alcotest.(check derivation) "missing parent" Lru.Absent
    (Lru.derive c "y" ~parent:"x" (fun _ -> Some 0));
  Alcotest.(check derivation) "f answers None" Lru.Absent
    (Lru.derive c "z" ~parent:"a" (fun _ -> None));
  Alcotest.(check bool) "nothing installed for None" false (Lru.mem c "z");
  Alcotest.(check derivation) "resident key" Lru.Cached
    (Lru.derive c "b" ~parent:"a" (fun _ -> Alcotest.fail "f ran"));
  (* "a" was read, not touched: still the eviction candidate, so
     installing its child evicts it. *)
  Alcotest.(check derivation) "derived from a" Lru.Derived
    (Lru.derive c "a'" ~parent:"a" (fun v -> Some (v + 10)));
  let st = Lru.stats c in
  Alcotest.(check int) "no hits counted" 0 st.hits;
  Alcotest.(check int) "only the two builds' misses" 2 st.misses;
  Alcotest.(check int) "one derived" 1 st.derived;
  Alcotest.(check bool) "derive did not refresh the parent" false
    (Lru.mem c "a");
  Alcotest.(check bool) "b survived" true (Lru.mem c "b");
  Alcotest.(check (pair bool int)) "child installed" (true, 11)
    (Lru.find_or_add c "a'" no_build)

(* --- lru across domains ------------------------------------------------ *)

(* Poll [ready] until it holds or [timeout_s] passes, and say whether it
   held: a call that blocks where it should not fails the test instead
   of hanging it. *)
let await ?(timeout_s = 5.0) ready =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    ready ()
    || Float.compare (Unix.gettimeofday ()) deadline < 0
       && begin
            Unix.sleepf 0.001;
            go ()
          end
  in
  go ()

(* Run [f] on a new domain; [result] waits for it, bounded like [await],
   and joins the domain only once it has finished. *)
let background f =
  let slot = Atomic.make None in
  ( slot,
    Domain.spawn (fun () ->
        Atomic.set slot (Some (try Ok (f ()) with e -> Error e))) )

let finished (slot, _) = Option.is_some (Atomic.get slot)

let result ((slot, d) as job) =
  if not (await (fun () -> finished job)) then
    Alcotest.fail "a cache call never returned";
  Domain.join d;
  Option.get (Atomic.get slot)

let value job =
  match result job with
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected %s" (Printexc.to_string e)

(* Hold the first build of [key] in flight, outside the lock, until
   [release] is set, then run [after]. The hold outlasts every [await]
   of the test, so a call that blocks behind the held build is seen
   blocked before the build lets go. Returns (entered, release). *)
let hold_first_build c key ?(after = ignore) () =
  let entered = Atomic.make false and release = Atomic.make false in
  Lru.set_build_test_hook c
    (Some
       (fun k ->
         if String.equal k key && Atomic.compare_and_set entered false true
         then begin
           ignore (await ~timeout_s:30.0 (fun () -> Atomic.get release));
           after ()
         end));
  (entered, release)

let waiters c n = await (fun () -> (Lru.stats c).waiting = n)

let check_idle c =
  let st = Lru.stats c in
  Alcotest.(check int) "no build in flight" 0 st.in_flight;
  Alcotest.(check int) "no caller waiting" 0 st.waiting

let test_lru_domains_build_once () =
  let c = Lru.create ~capacity:2 in
  let builds = Atomic.make 0 in
  let build () =
    Atomic.incr builds;
    42
  in
  let entered, release = hold_first_build c "k" () in
  let first = background (fun () -> Lru.find_or_add c "k" build) in
  let held = await (fun () -> Atomic.get entered) in
  let second = background (fun () -> Lru.find_or_add c "k" build) in
  let waited = held && waiters c 1 in
  Atomic.set release true;
  let a = value first and b = value second in
  Alcotest.(check bool) "the second miss waited for the build" true waited;
  Alcotest.(check (pair bool int)) "the builder missed" (false, 42) a;
  Alcotest.(check (pair bool int)) "the waiter hit" (true, 42) b;
  Alcotest.(check int) "built once" 1 (Atomic.get builds);
  Alcotest.(check int) "one build counted" 1 (Lru.stats c).builds;
  check_idle c

let test_lru_other_keys_proceed () =
  let c = Lru.create ~capacity:4 in
  lru_add c "warm" 1;
  let entered, release = hold_first_build c "a" () in
  let held = background (fun () -> Lru.find_or_add c "a" (fun () -> 2)) in
  let reached = await (fun () -> Atomic.get entered) in
  let other =
    background (fun () ->
        let warm = Lru.find_or_add c "warm" no_build in
        (warm, Lru.find_or_add c "cold" (fun () -> 3)))
  in
  let during = reached && await (fun () -> finished other) in
  Atomic.set release true;
  let a = value held and warm, cold = value other in
  Alcotest.(check bool) "a hit and a miss finished during the held build"
    true during;
  Alcotest.(check (pair bool int)) "warm key hits" (true, 1) warm;
  Alcotest.(check (pair bool int)) "cold key misses" (false, 3) cold;
  Alcotest.(check (pair bool int)) "the held build still answers" (false, 2) a;
  check_idle c

let test_lru_failed_build_wakes_waiter () =
  let c = Lru.create ~capacity:2 in
  let builds = Atomic.make 0 in
  let build () =
    Atomic.incr builds;
    42
  in
  let entered, release =
    hold_first_build c "k" ~after:(fun () -> failwith "injected") ()
  in
  let first = background (fun () -> Lru.find_or_add c "k" build) in
  let held = await (fun () -> Atomic.get entered) in
  let second = background (fun () -> Lru.find_or_add c "k" build) in
  let waited = held && waiters c 1 in
  Atomic.set release true;
  let failed = result first and retried = value second in
  Alcotest.(check bool) "the second miss waited for the build" true waited;
  Alcotest.(check bool) "the failed build raised" true
    (match failed with Error (Failure _) -> true | _ -> false);
  Alcotest.(check (pair bool int)) "the woken waiter built" (false, 42) retried;
  Alcotest.(check int) "only the waiter's build ran" 1 (Atomic.get builds);
  let st = Lru.stats c in
  Alcotest.(check int) "two misses" 2 st.misses;
  Alcotest.(check int) "one build installed" 1 st.builds;
  check_idle c

let test_lru_derive_races_find_or_add () =
  let c = Lru.create ~capacity:4 in
  lru_add c "parent" 1;
  let entered, release = hold_first_build c "child" () in
  let derived =
    background (fun () ->
        Lru.derive c "child" ~parent:"parent" (fun v -> Some (v + 1)))
  in
  let held = await (fun () -> Atomic.get entered) in
  let found = background (fun () -> Lru.find_or_add c "child" no_build) in
  let waited = held && waiters c 1 in
  Atomic.set release true;
  let d = value derived and f = value found in
  Alcotest.(check bool) "find_or_add waited for derive" true waited;
  Alcotest.(check derivation) "derive installed the child" Lru.Derived d;
  Alcotest.(check (pair bool int)) "find_or_add hit the derived value"
    (true, 2) f;
  let st = Lru.stats c in
  Alcotest.(check int) "one derived" 1 st.derived;
  Alcotest.(check int) "only the parent was built" 1 st.builds;
  check_idle c

(* --- clock ------------------------------------------------------------ *)

let test_clock_monotone () =
  (* The monotonic clock never runs backwards, even across a sleep —
     the property Unix.gettimeofday cannot promise (NTP steps). *)
  let prev = ref (Clock.now ()) in
  for i = 0 to 999 do
    if i = 500 then Unix.sleepf 0.001;
    let t = Clock.now () in
    if Float.compare t !prev < 0 then
      Alcotest.failf "clock went backwards: %.9f after %.9f" t !prev;
    prev := t
  done

let test_clock_elapsed () =
  let t0 = Clock.now () in
  Unix.sleepf 0.01;
  let dt = Clock.elapsed_s ~since:t0 in
  Alcotest.(check bool) "elapsed covers the sleep" true
    (Float.compare dt 0.01 >= 0);
  Alcotest.(check bool) "elapsed is sane (< 10 s)" true
    (Float.compare dt 10.0 < 0)

(* --- work queue -------------------------------------------------------- *)

(* Deterministic harness: every job records its dispatch order and then
   parks on a shared gate, so a test can fill the queue with the pool
   provably busy, observe which jobs did or did not start, then release
   the gate and drain. With one worker the recorded order IS the
   dequeue order. *)
let parking_pool ~workers =
  let gate = Atomic.make true in
  let order_mutex = Mutex.create () in
  let order = ref [] in
  let q =
    Work_queue.create ~workers ~max_pending:16
      (fun name ->
        Mutexes.with_lock order_mutex (fun () -> order := name :: !order);
        while Atomic.get gate do
          Unix.sleepf 0.001
        done)
  in
  let started () =
    Mutexes.with_lock order_mutex (fun () -> List.rev !order)
  in
  (q, gate, started)

let wait_for ?(timeout = 5.0) what pred =
  let deadline = Unix.gettimeofday () +. timeout in
  while
    (not (pred ())) && Float.compare (Unix.gettimeofday ()) deadline < 0
  do
    Unix.sleepf 0.001
  done;
  if not (pred ()) then Alcotest.failf "timed out waiting for %s" what

let check_push msg expected got =
  let name = function
    | Work_queue.Accepted -> "Accepted"
    | Work_queue.Overloaded -> "Overloaded"
    | Work_queue.Stopped -> "Stopped"
  in
  Alcotest.(check string) msg (name expected) (name got)

(* The pool is one global FIFO: dispatch order = push order. *)
let test_wq_untenanted_fifo () =
  let q, gate, started = parking_pool ~workers:1 in
  check_push "first job accepted" Work_queue.Accepted (Work_queue.push q "j0");
  wait_for "worker to pick up j0" (fun () -> Work_queue.active q = 1);
  List.iter
    (fun j -> check_push (j ^ " accepted") Work_queue.Accepted (Work_queue.push q j))
    [ "j1"; "j2"; "j3"; "j4" ];
  Alcotest.(check int) "four jobs pending" 4 (Work_queue.depth q);
  Atomic.set gate false;
  Work_queue.shutdown q;
  Alcotest.(check (list string))
    "FIFO dispatch order"
    [ "j0"; "j1"; "j2"; "j3"; "j4" ]
    (started ());
  Alcotest.(check int) "all completed" 5 (Work_queue.completed q);
  Alcotest.(check int) "none failed" 0 (Work_queue.failures q)

(* shutdown drains everything already accepted, then rejects. *)
let test_wq_shutdown_drains () =
  let q, gate, _started = parking_pool ~workers:2 in
  List.iter
    (fun j ->
      check_push (j ^ " accepted") Work_queue.Accepted (Work_queue.push q j))
    [ "t1"; "t2"; "t3"; "t4" ];
  Atomic.set gate false;
  Work_queue.shutdown q;
  Alcotest.(check int) "all four drained" 4 (Work_queue.completed q);
  Alcotest.(check int) "nothing left pending" 0 (Work_queue.depth q);
  check_push "push after shutdown" Work_queue.Stopped (Work_queue.push q "late")

let qsuite name tests = (name, List.map (fun t -> QCheck_alcotest.to_alcotest t) tests)

let () =
  Alcotest.run "ppdc_prelude"
    [
      ( "pqueue",
        [
          Alcotest.test_case "pops in priority order" `Quick test_pqueue_orders;
          Alcotest.test_case "peek and clear" `Quick test_pqueue_peek_and_clear;
          Alcotest.test_case "grows past initial capacity" `Quick
            test_pqueue_grows;
        ] );
      qsuite "pqueue-properties" [ prop_pqueue_sorts ];
      ( "union-find",
        [
          Alcotest.test_case "union and find" `Quick test_union_find_basic;
          Alcotest.test_case "self union" `Quick test_union_find_self_union;
        ] );
      qsuite "union-find-properties" [ prop_union_find_transitive ];
      ( "rng",
        [
          Alcotest.test_case "deterministic from seed" `Quick
            test_rng_deterministic;
          Alcotest.test_case "split gives a fresh stream" `Quick
            test_rng_split_independence;
          Alcotest.test_case "draws respect bounds" `Quick test_rng_bounds;
          Alcotest.test_case "rejects non-positive bound" `Quick
            test_rng_int_rejects_bad_bound;
          Alcotest.test_case "shuffle is a permutation" `Quick
            test_rng_shuffle_is_permutation;
          Alcotest.test_case "rough uniformity" `Quick test_rng_uniformity_rough;
        ] );
      ( "stats",
        [
          Alcotest.test_case "known mean and variance" `Quick
            test_stats_known_values;
          Alcotest.test_case "summary of constants" `Quick test_stats_summary_ci;
          Alcotest.test_case "percentiles" `Quick test_stats_percentile;
          Alcotest.test_case "empty input raises" `Quick test_stats_empty_raises;
          Alcotest.test_case "NaN rejected in percentile" `Quick
            test_stats_percentile_rejects_nan;
        ] );
      qsuite "stats-properties" [ prop_stats_mean_bounds ];
      ( "obs",
        [
          Alcotest.test_case "disabled layer is a no-op" `Quick
            test_obs_disabled_is_noop;
          Alcotest.test_case "counters, histograms, spans" `Quick
            test_obs_counters_and_hists;
          Alcotest.test_case "events keep sequence order" `Quick
            test_obs_events_ordered;
          Alcotest.test_case "domain shards merge" `Quick
            test_obs_merges_domain_shards;
          Alcotest.test_case "ndjson round-trip" `Quick
            test_obs_ndjson_roundtrip;
          Alcotest.test_case "json parser rejects garbage" `Quick
            test_obs_json_parser_rejects_garbage;
        ] );
      ( "table",
        [
          Alcotest.test_case "aligned rendering" `Quick test_table_renders;
          Alcotest.test_case "arity checking" `Quick test_table_rejects_bad_row;
          Alcotest.test_case "csv quoting" `Quick test_table_csv_quotes;
        ] );
      ( "json",
        [
          Alcotest.test_case "compact printing" `Quick test_json_print_known;
          Alcotest.test_case "non-finite numbers print as null" `Quick
            test_json_nonfinite_prints_null;
          Alcotest.test_case "member lookup" `Quick test_json_member;
          Alcotest.test_case "float_repr = Printf on edge cases" `Quick
            test_json_float_repr_edges;
        ] );
      qsuite "json-properties"
        [ prop_json_print_parse_roundtrip; prop_float_repr_matches_printf ];
      ( "lru",
        [
          Alcotest.test_case "rejects capacity < 1" `Quick
            test_lru_rejects_bad_capacity;
          Alcotest.test_case "evicts the least recent" `Quick
            test_lru_evicts_least_recent;
          Alcotest.test_case "find_or_add builds once" `Quick
            test_lru_find_or_add;
          Alcotest.test_case "derive leaves parent alone" `Quick
            test_lru_derive_leaves_parent_alone;
        ] );
      qsuite "lru-properties" [ prop_lru_keeps_most_recent ];
      ( "lru-domains",
        [
          Alcotest.test_case "two misses build once" `Quick
            test_lru_domains_build_once;
          Alcotest.test_case "other keys proceed" `Quick
            test_lru_other_keys_proceed;
          Alcotest.test_case "failed build wakes waiter" `Quick
            test_lru_failed_build_wakes_waiter;
          Alcotest.test_case "derive races find_or_add" `Quick
            test_lru_derive_races_find_or_add;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotone nondecreasing" `Quick
            test_clock_monotone;
          Alcotest.test_case "elapsed_s spans a sleep" `Quick
            test_clock_elapsed;
        ] );
      ( "work-queue",
        [
          Alcotest.test_case "untenanted pushes are a global FIFO" `Quick
            test_wq_untenanted_fifo;
          Alcotest.test_case "shutdown drains then rejects" `Quick
            test_wq_shutdown_drains;
        ] );
    ]
