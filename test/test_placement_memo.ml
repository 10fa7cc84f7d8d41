(* The per-fabric pair table behind Placement_dp (DESIGN.md §4k): every
   solve, warm or cold, must give the answer of Algo. 3's per-egress
   loop bit for bit. The oracle below is that loop as it stood before
   the table existed — one Stroll_dp table per egress, every ingress
   queried, nearest-neighbour fallback, first strict minimum. *)

module Graph = Ppdc_topology.Graph
module Cost_matrix = Ppdc_topology.Cost_matrix
module Fat_tree = Ppdc_topology.Fat_tree
module Flow = Ppdc_traffic.Flow
module Workload = Ppdc_traffic.Workload
module Diurnal = Ppdc_traffic.Diurnal
module Rng = Ppdc_prelude.Rng
module Obs = Ppdc_prelude.Obs
module Parallel = Ppdc_prelude.Parallel
open Ppdc_core

let reference_solve problem ~rates ?(rescore = false) ?pair_limit () =
  let att = Cost.attach problem ~rates in
  let switches = Problem.switches problem in
  let n = Problem.n problem in
  let cm = Problem.cm problem in
  let top_k keys k =
    let sorted = Array.copy switches in
    Array.sort
      (fun a b ->
        match Float.compare keys.(a) keys.(b) with
        | 0 -> Int.compare a b
        | c -> c)
      sorted;
    if k >= Array.length sorted then sorted else Array.sub sorted 0 k
  in
  let ingresses, egresses =
    match pair_limit with
    | None -> (switches, switches)
    | Some k -> (top_k att.a_in k, top_k att.a_out k)
  in
  let best = ref None in
  Array.iter
    (fun egress ->
      let table =
        Stroll_dp.prepare ~cm ~dst:egress ~candidates:switches ~extras:[||]
      in
      let local = ref None in
      Array.iter
        (fun ingress ->
          if ingress <> egress then begin
            let (r : Stroll_dp.result) =
              match
                Stroll_dp.query table ~src:ingress ~n:(n - 2) ()
              with
              | Some r -> r
              | None ->
                  let eligible =
                    Array.of_list
                      (List.filter
                         (fun v -> v <> ingress && v <> egress)
                         (Array.to_list switches))
                  in
                  Stroll_dp.nearest_neighbour ~cm ~src:ingress ~dst:egress
                    ~n:(n - 2) ~eligible
            in
            let placement =
              Array.concat [ [| ingress |]; r.switches; [| egress |] ]
            in
            let objective =
              att.a_in.(ingress) +. (att.total_rate *. r.cost)
              +. att.a_out.(egress)
            in
            let actual = Cost.comm_cost_with_attach problem att placement in
            let key = if rescore then actual else objective in
            match !local with
            | Some (best_key, _, _, _) when key >= best_key -> ()
            | _ -> local := Some (key, actual, placement, objective)
          end)
        ingresses;
      match (!best, !local) with
      | _, None -> ()
      | Some (best_key, _, _, _), Some (key, _, _, _) when key >= best_key -> ()
      | _, l -> best := l)
    egresses;
  match !best with
  | Some (_, cost, placement, objective) ->
      { Placement_dp.placement; cost; objective }
  | None -> invalid_arg "reference: no feasible pair"

let bits = Int64.bits_of_float

let check_same msg (a : Placement_dp.outcome) (b : Placement_dp.outcome) =
  Alcotest.(check (array int)) (msg ^ ": placement") a.placement b.placement;
  Alcotest.(check int64) (msg ^ ": cost bits") (bits a.cost) (bits b.cost);
  Alcotest.(check int64)
    (msg ^ ": objective bits") (bits a.objective) (bits b.objective)

(* A new matrix identity over the same storage: repair onto the unchanged
   graph shares the rows and re-runs none. *)
let fresh cm =
  match Cost_matrix.repair_to cm (Cost_matrix.graph cm) with
  | Some (cm', 0) ->
      Alcotest.(check bool) "fresh identity" false (cm' == cm);
      Alcotest.(check bool)
        "fresh id" false
        (Cost_matrix.id cm' = Cost_matrix.id cm);
      Alcotest.(check bool)
        "shares storage" true
        ((Cost_matrix.rows cm').dist == (Cost_matrix.rows cm).dist);
      cm'
  | _ -> Alcotest.fail "repair_to on the unchanged graph"

(* Weighted fabrics draw link delays from [levels] multiples of 0.1:
   sums of such weights depend on their order in the last bit, and
   equal-length alternatives are common, so a scan that summed in
   another order than [Cost.chain_cost] would pick another winner. *)
let fabric ?(k = 4) ?(l = 10) ?(levels = 27) ~weighted ~seed () =
  let rng = Rng.create seed in
  let ft =
    if weighted then
      let w = Rng.split rng in
      Fat_tree.build
        ~weight:(fun _ _ -> float_of_int (1 + Rng.int w levels) /. 10.0)
        k
    else Fat_tree.build k
  in
  let flows = Workload.generate_on_fat_tree ~rng ~l ft in
  (ft, Cost_matrix.compute ft.graph, flows)

let rate_vectors ~seed flows count =
  let rng = Rng.create seed in
  List.init count (fun _ -> Workload.redraw_rates ~rng flows)

let with_domains d f =
  let saved = Parallel.domain_count () in
  Parallel.set_domains d;
  Fun.protect ~finally:(fun () -> Parallel.set_domains saved) f

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Obs.snapshot ()).Obs.counters)

let with_metrics f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled false)
    f

(* --- warm equals cold ----------------------------------------------------- *)

let test_warm_equals_cold domains () =
  with_domains domains @@ fun () ->
  List.iter
    (fun weighted ->
      let seed = if weighted then 7 else 3 in
      let ft, cm, flows = fabric ~weighted ~seed () in
      let restricted =
        Array.sub (Graph.switches ft.graph) 2
          (Array.length (Graph.switches ft.graph) - 5)
      in
      for n = 3 to 6 do
        List.iter
          (fun (rescore, candidates) ->
            let make cm =
              let p = Problem.make ~cm ~flows ~n () in
              match candidates with
              | None -> p
              | Some c -> Problem.with_switches p c
            in
            let warm = make cm in
            List.iteri
              (fun r rates ->
                let msg =
                  Printf.sprintf
                    "weighted=%b n=%d rescore=%b restricted=%b rates#%d"
                    weighted n rescore (candidates <> None) r
                in
                let solve p = Placement_dp.solve p ~rates ~rescore () in
                let w = solve warm in
                check_same (msg ^ " warm/cold") w (solve (make (fresh cm)));
                check_same (msg ^ " warm/reference") w
                  (reference_solve warm ~rates ~rescore ()))
              (rate_vectors ~seed:(n + 11) flows 6))
          [
            (false, None);
            (true, None);
            (false, Some restricted);
            (true, Some restricted);
          ]
      done)
    [ false; true ]

(* Rescored keys on many small decimal-weighted fabrics, where pairs
   whose chains sum to the same value in another order are common. *)
let test_rescore_sums_in_chain_order () =
  for seed = 1 to 40 do
    let _, cm, flows =
      fabric ~l:(4 + (seed mod 7)) ~levels:(3 + (seed mod 25)) ~weighted:true
        ~seed ()
    in
    for n = 3 to 6 do
      let problem = Problem.make ~cm ~flows ~n () in
      List.iteri
        (fun r rates ->
          check_same
            (Printf.sprintf "seed %d n=%d rates#%d" seed n r)
            (Placement_dp.solve problem ~rates ~rescore:true ())
            (reference_solve problem ~rates ~rescore:true ()))
        (rate_vectors ~seed flows 3)
    done
  done

(* --- the row bound -------------------------------------------------------- *)

(* k=8, n=5, 100 flows over the 12 diurnal hours and an all-zero
   vector: the row bound skips most egress rows here, so a bound that
   is not a lower bound on every key of a skipped row would lose the
   winner. With Λ = 0 every key is 0 and the first pair must win. A
   [pair_limit] of 1 can leave no pair (the same switch is best on both
   ends): then every solver must refuse. *)
let diurnal_day flows =
  Array.make (Array.length flows) 0.0
  :: List.init Diurnal.default.hours (fun h ->
         Diurnal.rates_at Diurnal.default ~flows ~hour:(h + 1))

let test_k8_diurnal () =
  let outcome f =
    match f () with o -> Some o | exception Invalid_argument _ -> None
  in
  let agree msg a b =
    match (a, b) with
    | Some a, Some b -> check_same msg a b
    | None, None -> ()
    | _ -> Alcotest.failf "%s: only one side found a pair" msg
  in
  List.iter
    (fun weighted ->
      let _, cm, flows = fabric ~k:8 ~l:100 ~weighted ~seed:8 () in
      let problem = Problem.make ~cm ~flows ~n:5 () in
      let switches = Problem.switches problem in
      List.iteri
        (fun r rates ->
          List.iter
            (fun rescore ->
              List.iter
                (fun pair_limit ->
                  let msg =
                    Printf.sprintf
                      "weighted=%b rates#%d rescore=%b pair_limit=%s" weighted
                      r rescore
                      (Option.fold ~none:"-" ~some:string_of_int pair_limit)
                  in
                  let solve p () =
                    Placement_dp.solve p ~rates ~rescore ?pair_limit ()
                  in
                  let warm = outcome (solve problem) in
                  agree (msg ^ " warm/cold") warm
                    (outcome (solve (Problem.with_cm problem (fresh cm))));
                  agree (msg ^ " warm/reference") warm
                    (outcome
                       (reference_solve problem ~rates ~rescore ?pair_limit));
                  if r = 0 && pair_limit = None then
                    match warm with
                    | Some o ->
                        Alcotest.(check (pair int int))
                          (msg ^ ": first pair wins")
                          (switches.(1), switches.(0))
                          (o.placement.(0), o.placement.(4))
                    | None -> Alcotest.failf "%s: no pair" msg)
                [ None; Some 1; Some 3; Some 80 ])
            [ false; true ])
        (diurnal_day flows))
    [ false; true ]

(* The bound is visible: it skips rows on a unit k=8 solve, none with
   [rescore], and the pair count stays that of the full scan. *)
let test_rows_pruned () =
  with_metrics @@ fun () ->
  let _, cm, flows = fabric ~k:8 ~l:100 ~weighted:false ~seed:8 () in
  let problem = Problem.make ~cm ~flows ~n:5 () in
  let rates = Flow.base_rates flows in
  ignore (Placement_dp.solve problem ~rates ());
  Obs.reset ();
  ignore (Placement_dp.solve problem ~rates ());
  Alcotest.(check bool)
    "rows pruned" true
    (counter "placement_dp.rows_pruned" > 0);
  Alcotest.(check int) "every pair counted" (80 * 79)
    (counter "placement_dp.pairs_tried");
  Obs.reset ();
  ignore (Placement_dp.solve problem ~rates ~rescore:true ());
  Alcotest.(check int) "none with rescore" 0
    (counter "placement_dp.rows_pruned");
  Alcotest.(check int) "every pair tried with rescore" (80 * 79)
    (counter "placement_dp.pairs_tried")

(* mPareto hands Algo. 3 the attachment sums it computed: its target is
   still the placement a standalone solve finds, every hour. *)
let test_mpareto_target () =
  let _, cm, flows = fabric ~k:8 ~l:100 ~weighted:true ~seed:9 () in
  let problem = Problem.make ~cm ~flows ~n:5 () in
  let day = List.tl (diurnal_day flows) in
  let current =
    (Placement_dp.solve problem ~rates:(List.hd day) ()).placement
  in
  List.iteri
    (fun h rates ->
      Alcotest.(check (array int))
        (Printf.sprintf "hour %d" (h + 1))
        (Placement_dp.solve problem ~rates ()).placement
        (Mpareto.migrate problem ~rates ~mu:100.0 ~current ()).target)
    day

(* --- partial then full ---------------------------------------------------- *)

let test_partial_then_full () =
  with_metrics @@ fun () ->
  let _, cm, flows = fabric ~weighted:true ~seed:5 () in
  let problem = Problem.make ~cm ~flows ~n:4 () in
  let rates = Flow.base_rates flows in
  let limited = Placement_dp.solve problem ~rates ~pair_limit:3 () in
  Alcotest.(check int) "one row per limited egress" 3
    (counter "stroll_dp.tables");
  let full = Placement_dp.solve problem ~rates () in
  Alcotest.(check int) "the full solve builds only the missing rows" 20
    (counter "stroll_dp.tables");
  check_same "pair_limit 3" limited
    (reference_solve problem ~rates ~pair_limit:3 ());
  check_same "full after partial = cold full" full
    (Placement_dp.solve (Problem.with_cm problem (fresh cm)) ~rates ());
  check_same "full after partial = reference" full
    (reference_solve problem ~rates ())

(* --- no cross-talk -------------------------------------------------------- *)

let test_no_cross_talk () =
  let ft, cm, flows = fabric ~weighted:false ~seed:9 () in
  let switches = Graph.switches ft.graph in
  let rev = Array.of_list (List.rev (Array.to_list switches)) in
  let base = Problem.make ~cm ~flows ~n:3 () in
  (* Six variants on one matrix — more than it keeps — solved in turns,
     so rows are evicted and rebuilt along the way. *)
  let variants =
    [
      base;
      Problem.with_n base 5;
      Problem.with_switches base (Array.sub switches 0 12);
      Problem.with_switches base (Array.sub switches 4 12);
      Problem.with_switches base rev;
      Problem.with_n (Problem.with_switches base (Array.sub switches 0 12)) 4;
    ]
  in
  let rates = rate_vectors ~seed:21 flows 3 in
  for round = 1 to 2 do
    List.iteri
      (fun v problem ->
        List.iter
          (fun rates ->
            check_same
              (Printf.sprintf "round %d variant %d" round v)
              (Placement_dp.solve problem ~rates ())
              (reference_solve problem ~rates ()))
          rates)
      variants
  done

(* --- the reuse is visible ------------------------------------------------- *)

let test_tables_built_once () =
  with_metrics @@ fun () ->
  let _, cm, flows = fabric ~weighted:false ~seed:1 () in
  let problem = Problem.make ~cm ~flows ~n:3 () in
  List.iter
    (fun rates -> ignore (Placement_dp.solve problem ~rates ()))
    (rate_vectors ~seed:2 flows 5);
  Alcotest.(check int) "one table per switch of k=4" 20
    (counter "stroll_dp.tables");
  Alcotest.(check int) "every pair still tried per solve" (5 * 20 * 19)
    (counter "placement_dp.pairs_tried")

(* Four variants per matrix, least recently used out: a fifth evicts the
   one solved longest ago, which then pays a fill again. *)
let test_four_variants_per_matrix () =
  with_metrics @@ fun () ->
  let ft, cm, flows = fabric ~weighted:false ~seed:6 () in
  let rates = Flow.base_rates flows in
  let solve p = ignore (Placement_dp.solve p ~rates ()) in
  let full = List.map (fun n -> Problem.make ~cm ~flows ~n ()) [ 3; 4; 5; 6 ] in
  List.iter solve full;
  List.iter solve full;
  Alcotest.(check int) "four variants fit" 80 (counter "stroll_dp.tables");
  let restricted =
    Problem.with_switches (List.hd full)
      (Array.sub (Graph.switches ft.graph) 0 12)
  in
  solve restricted;
  solve (List.nth full 2);
  Alcotest.(check int) "a fifth evicts none it just used" 92
    (counter "stroll_dp.tables");
  solve (List.hd full);
  Alcotest.(check int) "the oldest was evicted" 112
    (counter "stroll_dp.tables")

(* Two domains missing the same table at once: one fills it, the other
   waits and reuses it. *)
let test_concurrent_misses () =
  with_metrics @@ fun () ->
  let _, cm, flows = fabric ~weighted:true ~seed:4 () in
  let problem = Problem.make ~cm ~flows ~n:5 () in
  let rates = Flow.base_rates flows in
  let expected = reference_solve problem ~rates () in
  Obs.reset ();
  let solvers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () -> Placement_dp.solve problem ~rates ()))
  in
  List.iter (fun d -> check_same "concurrent" expected (Domain.join d)) solvers;
  Alcotest.(check int) "filled once" 20 (counter "stroll_dp.tables")

(* --- no leak -------------------------------------------------------------- *)

let[@inline never] solve_on_dropped_matrix weak i =
  let _, cm, flows = fabric ~weighted:(i mod 2 = 0) ~seed:i () in
  let problem = Problem.make ~cm ~flows ~n:4 () in
  ignore
    (Sys.opaque_identity
       (Placement_dp.solve problem ~rates:(Flow.base_rates flows) ()));
  Weak.set weak i (Some cm)

let test_no_leak () =
  let count = 20 in
  let weak = Weak.create count in
  for i = 0 to count - 1 do
    solve_on_dropped_matrix weak i
  done;
  Gc.full_major ();
  for i = 0 to count - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "matrix %d released" i)
      false (Weak.check weak i)
  done

(* --- pair_limit ----------------------------------------------------------- *)

let test_pair_limit_rejected () =
  let _, cm, flows = fabric ~weighted:false ~seed:1 () in
  let rates = Flow.base_rates flows in
  List.iter
    (fun n ->
      let problem = Problem.make ~cm ~flows ~n () in
      List.iter
        (fun k ->
          match Placement_dp.solve problem ~rates ~pair_limit:k () with
          | _ -> Alcotest.failf "pair_limit %d accepted at n=%d" k n
          | exception Invalid_argument msg ->
              Alcotest.(check string)
                "message names pair_limit"
                (Printf.sprintf
                   "Placement_dp.solve: pair_limit must be >= 1, got %d" k)
                msg)
        [ 0; -1 ])
    [ 1; 2; 3; 4 ]

let () =
  Alcotest.run "ppdc_placement_memo"
    [
      ( "memo",
        [
          Alcotest.test_case "warm equals cold (1 domain)" `Quick
            (test_warm_equals_cold 1);
          Alcotest.test_case "warm equals cold (4 domains)" `Quick
            (test_warm_equals_cold 4);
          Alcotest.test_case "rescore sums in chain order" `Quick
            test_rescore_sums_in_chain_order;
          Alcotest.test_case "row bound on k=8 diurnal days" `Quick
            test_k8_diurnal;
          Alcotest.test_case "rows pruned, pairs counted" `Quick
            test_rows_pruned;
          Alcotest.test_case "mPareto target = standalone solve" `Quick
            test_mpareto_target;
          Alcotest.test_case "partial then full" `Quick test_partial_then_full;
          Alcotest.test_case "no cross-talk between variants" `Quick
            test_no_cross_talk;
          Alcotest.test_case "tables built once per fabric" `Quick
            test_tables_built_once;
          Alcotest.test_case "four variants per matrix" `Quick
            test_four_variants_per_matrix;
          Alcotest.test_case "concurrent misses fill once" `Quick
            test_concurrent_misses;
          Alcotest.test_case "dropped matrices are released" `Quick
            test_no_leak;
        ] );
      ( "pair-limit",
        [
          Alcotest.test_case "pair_limit < 1 rejected by name" `Quick
            test_pair_limit_rejected;
        ] );
    ]
