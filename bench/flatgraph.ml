(* Flat-graph bench: the committed performance trajectory of the CSR +
   Bigarray cost-matrix stack (BENCH_flatgraph.json).

   Measures all-pairs shortest paths on unit-weight k=16/k=32/k=48
   fat-trees and on a k=16 fat-tree with uniform link delays (the
   float-weight fabric `load_topology ~weighted` serves), and Algo. 3
   placement solves: a cold solve, which builds the fabric's stroll
   table, and warm re-solves that reuse it. Timing, artifact format and
   the normalized `--check` regression gate live in {!Bench_common}.

   The k=48 build (full mode only) also gates memory: the process's
   peak resident size (VmHWM) must stay under [k48_ceiling_mb]. Its
   leaf-factored matrix is 2880 rows of switches plus 1152 class rows
   (one per edge switch) over 2880 switch columns at 10 bytes an entry
   (8-byte distance, 16-bit predecessor), ≈ 116 MB; a dense 30528²
   matrix would be ≈ 9.3 GB, one row per host ≈ 0.9 GB, and two k=48
   matrices alive at once ≈ 232 MB. It peaked at 158 MB on a 2-core VM,
   about 42 MB of it from before the build. The ceiling sits below the
   186 MB that the same matrix takes with 8-byte predecessors, which
   peaked at 209 MB, so widening the predecessor rows again fails the
   gate. *)

module Bench = Bench_common
module Rng = Ppdc_prelude.Rng
module Fat_tree = Ppdc_topology.Fat_tree
module Cost_matrix = Ppdc_topology.Cost_matrix
module Workload = Ppdc_traffic.Workload
module Flow = Ppdc_traffic.Flow
module Obs = Ppdc_prelude.Obs

let reference_entry = "all_pairs_k16_auto"
let k48_ceiling_mb = 185

let run ~quick t =
  (* Every entry gates normalized by the reference (~10 ms), so its
     min must be stable: enough reps, about a second, that scheduler
     noise cannot move it by double digits. *)
  let ft16 = Fat_tree.build 16 in
  Bench.record t reference_entry ~reps:100 (fun () ->
      Cost_matrix.compute ft16.graph);
  let weighted16 = Fat_tree.build_weighted ~rng:(Rng.create 1) 16 in
  Bench.record t "all_pairs_k16_weighted" ~reps:10 (fun () ->
      Cost_matrix.compute weighted16.graph);
  if not quick then begin
    let ft32 = Fat_tree.build 32 in
    Bench.record t "all_pairs_k32" ~reps:3 (fun () ->
        Cost_matrix.compute ft32.graph);
    let ft48 = Fat_tree.build 48 in
    Bench.record t "all_pairs_k48" ~reps:2 (fun () ->
        (* Free the previous rep's matrix first: the peak is one
           matrix's. *)
        Gc.full_major ();
        Cost_matrix.compute ft48.graph)
  end;
  let ft8 = Fat_tree.build 8 in
  let cm8 = Cost_matrix.compute ft8.graph in
  let rng = Rng.create 42 in
  let flows = Workload.generate_on_fat_tree ~rng ~l:64 ft8 in
  let problem = Ppdc_core.Problem.make ~cm:cm8 ~flows ~n:4 () in
  let rates = Flow.base_rates flows in
  (* Placement_dp keeps its stroll table per matrix identity, so each
     cold rep solves on a new identity over the same storage (a repair
     onto the unchanged graph). *)
  let reps = 15 in
  let cold =
    Array.init reps (fun _ ->
        match Cost_matrix.repair_to cm8 ft8.graph with
        | Some (cm, _) -> Ppdc_core.Problem.with_cm problem cm
        | None -> assert false)
  in
  let rep = ref 0 in
  Bench.record t "placement_dp_k8_n4" ~reps (fun () ->
      let p = cold.(!rep) in
      incr rep;
      Ppdc_core.Placement_dp.solve p ~rates ());
  (* Warm: the table is built once; each rep re-solves 100 rate
     vectors, the reuse a dynamic PPDC's reconfigurations get. *)
  let rate_vectors =
    Array.init 100 (fun _ -> Workload.redraw_rates ~rng flows)
  in
  ignore (Ppdc_core.Placement_dp.solve problem ~rates ());
  Bench.record t "placement_dp_k8_n4_warm" ~reps (fun () ->
      Array.iter
        (fun rates -> ignore (Ppdc_core.Placement_dp.solve problem ~rates ()))
        rate_vectors);
  (* The egress rows those solves scan, counted in one more, untimed
     pass: a deterministic count, gated bit for bit, so a change that
     loses Algo. 3's row bound (all 8,000 rows scanned) fails the gate
     whatever the timings do. *)
  let pruned () =
    Option.value ~default:0
      (List.assoc_opt "placement_dp.rows_pruned" (Obs.snapshot ()).counters)
  in
  let was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  let before = pruned () in
  Array.iter
    (fun rates -> ignore (Ppdc_core.Placement_dp.solve problem ~rates ()))
    rate_vectors;
  let skipped = pruned () - before in
  Obs.set_enabled was_enabled;
  let rows =
    Array.length rate_vectors
    * Array.length (Ppdc_core.Problem.switches problem)
  in
  Bench.record_value t "placement_dp_k8_n4_warm_rows"
    (float_of_int (rows - skipped))

(* Peak resident size in MB from /proc/self/status, where there is one. *)
let vm_hwm_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
            | kb -> Some (kb / 1024)
            | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
                scan ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let post ~quick _entries =
  if not quick then
    match vm_hwm_mb () with
    | None -> print_endline "all_pairs_k48 peak RSS: not measurable here"
    | Some mb ->
        Printf.printf "all_pairs_k48 peak RSS: %d MB (ceiling %d MB)\n" mb
          k48_ceiling_mb;
        if mb > k48_ceiling_mb then begin
          Printf.printf
            "bench-check: the k=48 build's peak RSS exceeds its ceiling\n";
          exit 1
        end

let () = Bench.main ~bench:"flatgraph" ~reference:reference_entry ~post run
