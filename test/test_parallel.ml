(* The Parallel module's combinator laws (qcheck) and the
   sequential-vs-parallel determinism contract: every solver and
   experiment output must be bit-identical under PPDC_DOMAINS=1 and
   PPDC_DOMAINS=4. *)

module Parallel = Ppdc_prelude.Parallel
module Stats = Ppdc_prelude.Stats
module Rng = Ppdc_prelude.Rng
module Table = Ppdc_prelude.Table
module Fat_tree = Ppdc_topology.Fat_tree
module Cost_matrix = Ppdc_topology.Cost_matrix
module Workload = Ppdc_traffic.Workload
module Flow = Ppdc_traffic.Flow
module Mode = Ppdc_experiments.Mode
module Registry = Ppdc_experiments.Registry
module Runner = Ppdc_experiments.Runner
open Ppdc_core

let with_domains d f =
  let prev = Parallel.domain_count () in
  Parallel.set_domains d;
  Fun.protect ~finally:(fun () -> Parallel.set_domains prev) f

(* --- combinator laws (qcheck) ------------------------------------------- *)

let prop_map_matches_array_map =
  QCheck.Test.make ~name:"parallel_map ≡ Array.map" ~count:50
    QCheck.(array small_int)
    (fun a ->
      let f x = (x * 37) - (x * x) in
      with_domains 4 (fun () -> Parallel.parallel_map f a) = Array.map f a)

let prop_init_matches_array_init =
  QCheck.Test.make ~name:"init ≡ Array.init" ~count:50
    QCheck.(int_bound 500)
    (fun n ->
      let f i = (i * 13) mod 7 in
      with_domains 4 (fun () -> Parallel.init n f) = Array.init n f)

let prop_reduce_is_index_ordered =
  (* The combine is order-sensitive, so this only holds if the reduction
     really runs in index order regardless of the schedule. *)
  QCheck.Test.make ~name:"map_reduce folds in index order" ~count:50
    QCheck.(array small_int)
    (fun a ->
      let n = Array.length a in
      let map i = a.(i) in
      let combine acc x = (acc * 31) + x in
      let sequential = Array.fold_left combine 17 (Array.init n map) in
      with_domains 4 (fun () ->
          Parallel.map_reduce ~n ~map ~init:17 ~combine)
      = sequential)

(* --- scheduling details -------------------------------------------------- *)

let test_parallel_for_covers_all_indices () =
  with_domains 4 (fun () ->
      let n = 1000 in
      let slots = Array.make n 0 in
      Parallel.parallel_for n (fun i -> slots.(i) <- (2 * i) + 1);
      Alcotest.(check int)
        "every index ran exactly once" (n * n)
        (Array.fold_left ( + ) 0 slots))

let test_lowest_index_exception_wins () =
  with_domains 4 (fun () ->
      let observed =
        try
          Parallel.parallel_for 64 (fun i ->
              if i = 3 || i = 7 || i = 60 then
                failwith (string_of_int i));
          "no exception"
        with Failure msg -> msg
      in
      Alcotest.(check string) "failure of index 3 is re-raised" "3" observed)

let test_nested_sections_degrade_gracefully () =
  with_domains 4 (fun () ->
      let outer =
        Parallel.parallel_map
          (fun x ->
            Parallel.map_reduce ~n:10
              ~map:(fun i -> x + i)
              ~init:0 ~combine:( + ))
          (Array.init 6 (fun i -> 100 * i))
      in
      let expected =
        Array.init 6 (fun i -> (10 * 100 * i) + 45)
      in
      Alcotest.(check (array int)) "nested results" expected outer)

let test_set_domains_validation () =
  Alcotest.(check bool) "zero domains rejected" true
    (try
       Parallel.set_domains 0;
       false
     with Invalid_argument _ -> true)

(* A section started off the main domain — on a domain the program
   spawned itself, as a socket daemon spawns its request workers — runs
   every index on that domain, and answers what the main domain
   answers. *)
let test_sections_off_main_run_in_place () =
  let n = 200 in
  let sections () =
    let ran_on = Array.make (3 * n) (-1) in
    let mark lane i = ran_on.((lane * n) + i) <- (Domain.self () :> int) in
    let squares = Array.make n 0 in
    Parallel.parallel_for n (fun i ->
        mark 0 i;
        squares.(i) <- i * i);
    let mixed =
      Parallel.init n (fun i ->
          mark 1 i;
          (i * 37) mod 11)
    in
    let folded =
      Parallel.map_reduce ~n
        ~map:(fun i ->
          mark 2 i;
          i + 1)
        ~init:17
        ~combine:(fun acc x -> (acc * 31) + x)
    in
    ((squares, mixed, folded), ran_on)
  in
  List.iter
    (fun d ->
      with_domains d (fun () ->
          let on_main, _ = sections () in
          let self, (off_main, ran_on) =
            Domain.join
              (Domain.spawn (fun () -> ((Domain.self () :> int), sections ())))
          in
          Alcotest.(check bool)
            (Printf.sprintf "domains=%d: every index ran on the spawned domain" d)
            true
            (Array.for_all (Int.equal self) ran_on);
          Alcotest.(check bool)
            (Printf.sprintf "domains=%d: results equal the main domain's" d)
            true (off_main = on_main)))
    [ 1; 4 ]

(* --- solver determinism --------------------------------------------------- *)

type bundle = {
  costs : float array array;
  dp : Placement_dp.outcome;
  dp_rescore : Placement_dp.outcome;
  dp_limited : Placement_dp.outcome;
  opt_placement : Placement.t;
  opt_cost : float;
  stroll : Stroll_dp.result;
}

let bundle_under domains =
  with_domains domains (fun () ->
      let ft = Fat_tree.build 4 in
      let cm = Cost_matrix.compute ft.graph in
      let rng = Rng.create 3 in
      let flows = Workload.generate_on_fat_tree ~rng ~l:12 ft in
      let problem = Problem.make ~cm ~flows ~n:4 () in
      let rates = Flow.base_rates flows in
      let nodes = Cost_matrix.num_nodes cm in
      let costs =
        Array.init nodes (fun u ->
            Array.init nodes (fun v -> Cost_matrix.cost cm u v))
      in
      let opt = Placement_opt.solve problem ~rates () in
      {
        costs;
        dp = Placement_dp.solve problem ~rates ();
        dp_rescore = Placement_dp.solve problem ~rates ~rescore:true ();
        dp_limited = Placement_dp.solve problem ~rates ~pair_limit:3 ();
        opt_placement = opt.placement;
        opt_cost = opt.cost;
        stroll =
          Stroll_dp.solve ~cm ~src:ft.hosts.(0)
            ~dst:ft.hosts.(Array.length ft.hosts - 1)
            ~n:5 ();
      })

let check_outcome name (a : Placement_dp.outcome) (b : Placement_dp.outcome) =
  Alcotest.(check (array int)) (name ^ " placement") a.placement b.placement;
  Alcotest.(check (float 0.0)) (name ^ " cost") a.cost b.cost;
  Alcotest.(check (float 0.0)) (name ^ " objective") a.objective b.objective

let test_solvers_bit_identical () =
  let seq = bundle_under 1 and par = bundle_under 4 in
  Array.iteri
    (fun u row ->
      Alcotest.(check (array (float 0.0)))
        (Printf.sprintf "all-pairs row %d" u)
        row par.costs.(u))
    seq.costs;
  check_outcome "dp" seq.dp par.dp;
  check_outcome "dp+rescore" seq.dp_rescore par.dp_rescore;
  check_outcome "dp+pair_limit" seq.dp_limited par.dp_limited;
  Alcotest.(check (array int))
    "optimal placement" seq.opt_placement par.opt_placement;
  Alcotest.(check (float 0.0)) "optimal cost" seq.opt_cost par.opt_cost;
  Alcotest.(check (array int)) "stroll walk" seq.stroll.walk par.stroll.walk;
  Alcotest.(check (float 0.0)) "stroll cost" seq.stroll.cost par.stroll.cost

let test_trial_loop_bit_identical () =
  let day domains =
    with_domains domains (fun () ->
        Runner.average ~trials:6 (fun ~seed ->
            let problem =
              Runner.fat_tree_problem ~k:4 ~l:8 ~n:3 ~seed ()
            in
            let rates = Flow.base_rates (Problem.flows problem) in
            (Placement_dp.solve problem ~rates ()).cost))
  in
  let a = day 1 and b = day 4 in
  Alcotest.(check (float 0.0)) "mean" a.Stats.mean b.Stats.mean;
  Alcotest.(check (float 0.0)) "ci95" a.Stats.ci95 b.Stats.ci95;
  Alcotest.(check (float 0.0)) "min" a.Stats.min b.Stats.min;
  Alcotest.(check (float 0.0)) "max" a.Stats.max b.Stats.max

let test_experiment_tables_bit_identical () =
  let render domains id =
    with_domains domains (fun () ->
        match Registry.find id with
        | Some e -> List.map Table.to_csv (e.run Mode.Quick)
        | None -> Alcotest.failf "experiment %s not registered" id)
  in
  (* With every experiment whose rows read several statistics off one
     Runner.runs array, and fig11's hourly series. *)
  List.iter
    (fun id ->
      Alcotest.(check (list string))
        (id ^ " tables") (render 1 id) (render 4 id))
    [
      "example1";
      "fig8";
      "eta_sweep";
      "fig7";
      "fig11";
      "abl_frontier";
      "abl_mu";
      "abl_lookahead";
      "ext_multi_sfc";
      "ext_failures";
      "ext_churn";
      "ext_utilization";
    ]

let () =
  let qtest = QCheck_alcotest.to_alcotest in
  Alcotest.run "ppdc_parallel"
    [
      ( "combinators",
        [
          qtest prop_map_matches_array_map;
          qtest prop_init_matches_array_init;
          qtest prop_reduce_is_index_ordered;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "parallel_for covers all indices" `Quick
            test_parallel_for_covers_all_indices;
          Alcotest.test_case "lowest-index exception wins" `Quick
            test_lowest_index_exception_wins;
          Alcotest.test_case "nested sections degrade gracefully" `Quick
            test_nested_sections_degrade_gracefully;
          Alcotest.test_case "set_domains validation" `Quick
            test_set_domains_validation;
          Alcotest.test_case "sections off the main domain run where they start"
            `Quick test_sections_off_main_run_in_place;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "solvers bit-identical (1 vs 4 domains)" `Quick
            test_solvers_bit_identical;
          Alcotest.test_case "trial loops bit-identical" `Quick
            test_trial_loop_bit_identical;
          Alcotest.test_case "experiment tables bit-identical" `Quick
            test_experiment_tables_bit_identical;
        ] );
    ]
