(* Tests for the experiment infrastructure itself: mode parameters,
   runner statistics, and table scaling invariants. (End-to-end runs of
   every experiment live in test_integration.ml.) *)

module Mode = Ppdc_experiments.Mode
module Runner = Ppdc_experiments.Runner
module Stats = Ppdc_prelude.Stats
module Flow = Ppdc_traffic.Flow
open Ppdc_core

let test_mode_env () =
  Alcotest.(check string) "quick name" "quick" (Mode.name Mode.Quick);
  Alcotest.(check string) "full name" "full" (Mode.name Mode.Full)

let test_mode_scaling_invariants () =
  (* Full mode must dominate quick mode on every scale knob. *)
  Alcotest.(check bool) "trials grow" true
    (Mode.trials Mode.Full > Mode.trials Mode.Quick);
  Alcotest.(check bool) "placement fabric grows" true
    (Mode.k_placement Mode.Full > Mode.k_placement Mode.Quick);
  Alcotest.(check bool) "dynamic fabric grows" true
    (Mode.k_dynamic Mode.Full > Mode.k_dynamic Mode.Quick);
  Alcotest.(check bool) "l_dynamic reaches the paper's 1000" true
    (Mode.l_dynamic Mode.Full = 1000);
  Alcotest.(check bool) "n sweep reaches the paper's 13" true
    (List.mem 13 (Mode.n_sweep Mode.Full));
  Alcotest.(check bool) "paper's mu in full mode" true
    (Mode.mu_dynamic Mode.Full = (1e4, 1e5));
  (* Fat-tree arity must stay even or the builder rejects it. *)
  List.iter
    (fun mode ->
      Alcotest.(check int) "k_placement even" 0 (Mode.k_placement mode mod 2);
      Alcotest.(check int) "k_dynamic even" 0 (Mode.k_dynamic mode mod 2))
    [ Mode.Quick; Mode.Full ]

let test_runner_average_protocol () =
  (* average must call f with seeds 1..trials exactly once each. *)
  let seen = ref [] in
  let summary =
    Runner.average ~trials:7 (fun ~seed ->
        seen := seed :: !seen;
        float_of_int seed)
  in
  Alcotest.(check (list int)) "seeds 1..7" [ 1; 2; 3; 4; 5; 6; 7 ]
    (List.sort compare !seen);
  Alcotest.(check int) "n recorded" 7 summary.Stats.n;
  Alcotest.(check (float 1e-9)) "mean of 1..7" 4.0 summary.Stats.mean;
  (* runs keeps what f returns, in seed order, one call per seed; a
     statistic read off it is average's summary, bit for bit. *)
  let calls = Array.init 8 (fun _ -> Atomic.make 0) in
  let square ~seed = float_of_int (seed * seed) in
  let runs =
    Runner.runs ~trials:7 (fun ~seed ->
        Atomic.incr calls.(seed);
        square ~seed)
  in
  Alcotest.(check (array int)) "each seed once" [| 0; 1; 1; 1; 1; 1; 1; 1 |]
    (Array.map Atomic.get calls);
  Alcotest.(check (array (float 0.0))) "seed order"
    (Array.init 7 (fun i -> square ~seed:(i + 1)))
    runs;
  Alcotest.(check bool) "summary runs Fun.id = average" true
    (Runner.summary runs Fun.id = Runner.average ~trials:7 square)

let test_runner_instance_determinism () =
  let build () =
    let problem = Runner.fat_tree_problem ~k:4 ~l:12 ~n:3 ~seed:5 () in
    Flow.base_rates (Problem.flows problem)
  in
  Alcotest.(check bool) "same seed, same instance" true (build () = build ());
  let other =
    Flow.base_rates
      (Problem.flows (Runner.fat_tree_problem ~k:4 ~l:12 ~n:3 ~seed:6 ()))
  in
  Alcotest.(check bool) "different seed differs" true (build () <> other)

let test_runner_weighted_differs () =
  let unweighted = Runner.fat_tree_problem ~k:4 ~l:5 ~n:3 ~seed:1 () in
  let weighted =
    Runner.fat_tree_problem ~weighted:true ~k:4 ~l:5 ~n:3 ~seed:1 ()
  in
  (* Unit topology has integral costs; the delay-sampled one does not. *)
  Alcotest.(check bool) "unweighted costs integral" true
    (Float.is_integer (Problem.cost unweighted 0 1));
  Alcotest.(check bool) "weighted costs vary" true
    (not (Float.is_integer (Problem.cost weighted 0 1))
    || Problem.cost weighted 0 1 <> Problem.cost weighted 0 2)

let test_mean_cell_format () =
  let s = Stats.summary [| 10.0; 12.0; 14.0 |] in
  let cell = Runner.mean_cell s in
  Alcotest.(check bool) "mean±ci shape" true
    (String.contains cell '\xc2' || String.contains cell '+'
    || String.length cell > 3)

let test_cost_matrix_cache_bounded () =
  (* More distinct fabrics than the LRU can hold: live entries must
     stay capped while warm fabrics still hit. *)
  let ks = [ 2; 4; 6; 8; 10 ] in
  Alcotest.(check bool) "test exceeds capacity" true
    (List.length ks > Runner.cost_matrix_cache_capacity);
  List.iter (fun k -> ignore (Runner.unweighted_fat_tree k)) ks;
  let len, hits_before, _ = Runner.cost_matrix_cache_stats () in
  Alcotest.(check bool) "live entries capped" true
    (len <= Runner.cost_matrix_cache_capacity);
  (* The most recent fabric is resident: re-asking is a hit. *)
  ignore (Runner.unweighted_fat_tree 10);
  let _, hits_after, _ = Runner.cost_matrix_cache_stats () in
  Alcotest.(check bool) "warm fabric hits" true (hits_after > hits_before);
  (* k=2 was evicted (5 fabrics through a 4-entry cache): re-asking
     rebuilds, and the cache stays capped. *)
  let _, _, misses_before = Runner.cost_matrix_cache_stats () in
  ignore (Runner.unweighted_fat_tree 2);
  let len2, _, misses_after = Runner.cost_matrix_cache_stats () in
  Alcotest.(check bool) "evicted fabric misses" true
    (misses_after > misses_before);
  Alcotest.(check bool) "still capped after refill" true
    (len2 <= Runner.cost_matrix_cache_capacity)

let () =
  Alcotest.run "ppdc_experiments_infra"
    [
      ( "mode",
        [
          Alcotest.test_case "env names" `Quick test_mode_env;
          Alcotest.test_case "full dominates quick" `Quick
            test_mode_scaling_invariants;
        ] );
      ( "runner",
        [
          Alcotest.test_case "seed protocol" `Quick test_runner_average_protocol;
          Alcotest.test_case "instance determinism" `Quick
            test_runner_instance_determinism;
          Alcotest.test_case "weighted instances differ" `Quick
            test_runner_weighted_differs;
          Alcotest.test_case "cell formatting" `Quick test_mean_cell_format;
          Alcotest.test_case "cost-matrix cache stays bounded" `Quick
            test_cost_matrix_cache_bounded;
        ] );
    ]
