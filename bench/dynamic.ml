(* Dynamic-repair bench: the committed trajectory of incremental
   cost-matrix repair (BENCH_dynamic.json).

   A single switch-switch link fails on a k=16 (and, in full mode,
   k=32) fat-tree; we measure deriving the degraded all-pairs matrix
   two ways: a cold [Cost_matrix.compute] of the degraded graph
   (rebuild) versus [Cost_matrix.repair_to] from the healthy parent's
   matrix (repair — copy the stored rows, re-run Dijkstra only for
   the rows whose shortest-path tree used the failed link). Both
   produce bit-identical matrices; the differential tests in
   test/test_dynamic.ml hold that line, this bench holds the speed.

   The restore direction (the failed link comes back — Link_repair in
   the event simulator) is measured on a *weighted* fat-tree: with
   unit weights a restored link is an equal-cost candidate for almost
   every source (the conservative [<=] in the Relax criterion re-runs
   them all, see test_dynamic.ml), while distinct weights make the
   endpoint-distance test discriminating and the repair local.

   Besides the usual normalized `--check` gate, the bench enforces an
   in-run floor: on k=32 repair must beat rebuild by at least 2.5× (a
   ratio within one run, so it needs no committed baseline and runs on
   every CI invocation in full mode). The floor dates from the dense
   9472² layout, where copying the 718 MB distance matrix dominated
   repair and the ratio read 2.4× to 3.6× on a shared 2-core VM. The
   leaf-factored k=32 matrix is 1792 stored rows of 1280 columns
   (≈ 23 MB for both blocks), so repair is now bound by its 49 re-run
   rows, and the ratio read about 16× on the same VM. *)

module Bench = Bench_common
module Rng = Ppdc_prelude.Rng
module Graph = Ppdc_topology.Graph
module Fat_tree = Ppdc_topology.Fat_tree
module Cost_matrix = Ppdc_topology.Cost_matrix
module Failures = Ppdc_extensions.Failures

let reference_entry = "rebuild_k16"
let speedup_floor = 2.5

(* Degrade a fat-tree by exactly one switch-switch link: a fraction
   that buys ⌊1.01⌋ = 1 link under fail_links' floor semantics. *)
let fail_one_link ~seed g =
  let switch_links =
    List.length
      (List.filter
         (fun (u, v, _) -> Graph.is_switch g u && Graph.is_switch g v)
         (Graph.edges g))
  in
  let fraction = 1.01 /. float_of_int switch_links in
  let degraded, failed = Failures.fail_links ~rng:(Rng.create seed) ~fraction g in
  if List.length failed <> 1 then
    failwith "dynamic bench: expected exactly one failed link";
  degraded

let repair_or_die parent degraded =
  match Cost_matrix.repair_to parent degraded with
  | Some r -> r
  | None -> failwith "dynamic bench: repair_to refused a pure deletion"

let scenario t ~k ~reps =
  let ft = Fat_tree.build k in
  let parent = Cost_matrix.compute ft.graph in
  let degraded = fail_one_link ~seed:7 ft.graph in
  let _, rows = repair_or_die parent degraded in
  Printf.eprintf "  k=%-2d: 1 link failed, %d of %d rows re-run\n%!" k rows
    (Cost_matrix.num_rows parent);
  Bench.record t (Printf.sprintf "rebuild_k%d" k) ~reps (fun () ->
      Cost_matrix.compute degraded);
  (* Repair is ~20x cheaper than the rebuild and noisier (its copy of
     the stored rows lands on fresh pages), so it gets more reps. *)
  Bench.record t (Printf.sprintf "repair_k%d" k) ~reps:(4 * reps) (fun () ->
      repair_or_die parent degraded)

(* Distinct, deterministic link weights so the restored link is not an
   equal-cost candidate everywhere (see the header comment). *)
let link_weight u v =
  1.0 +. (float_of_int (((31 * u) + (17 * v)) mod 13) /. 16.0)

let restore_scenario t ~k ~reps =
  let ft = Fat_tree.build ~weight:link_weight k in
  let healthy = Cost_matrix.compute ft.graph in
  let degraded = fail_one_link ~seed:7 ft.graph in
  let dm, _ = repair_or_die healthy degraded in
  (match Cost_matrix.repair_to dm ft.graph with
  | Some (_, rows) ->
      Printf.eprintf "  k=%-2d: link restored, %d of %d rows re-run\n%!" k rows
        (Cost_matrix.num_rows healthy)
  | None -> failwith "dynamic bench: repair_to refused a restore");
  Bench.record t (Printf.sprintf "restore_k%d" k) ~reps (fun () ->
      match Cost_matrix.repair_to dm ft.graph with
      | Some r -> r
      | None -> failwith "dynamic bench: repair_to refused a restore")

let run ~quick t =
  (* Everything gates normalized by rebuild_k16 (~10 ms), so its min
     must be stable: give the k=16 entries enough reps, about a second,
     that scheduler noise cannot move the reference by double digits. *)
  scenario t ~k:16 ~reps:100;
  restore_scenario t ~k:16 ~reps:100;
  if not quick then begin
    scenario t ~k:32 ~reps:10;
    restore_scenario t ~k:32 ~reps:10
  end

(* The acceptance floor: k=32 single-link repair ≥ 2.5× faster than the
   cold rebuild, measured in this very run. *)
let post ~quick entries =
  if not quick then
    match (Bench.find "rebuild_k32" entries, Bench.find "repair_k32" entries) with
    | Some rebuild, Some repair ->
        let speedup = rebuild.Bench.seconds /. repair.Bench.seconds in
        Printf.printf "repair_k32 speedup over rebuild: %.1fx (floor %.1fx)\n"
          speedup speedup_floor;
        if speedup < speedup_floor then begin
          Printf.printf
            "bench-check: single-link repair lost its %.1fx advantage\n"
            speedup_floor;
          exit 1
        end
    | _ -> failwith "dynamic bench: k=32 entries missing in full mode"

let () = Bench.main ~bench:"dynamic" ~reference:reference_entry ~post run
