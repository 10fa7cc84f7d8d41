(* Flat-graph bench: the committed performance trajectory of the CSR +
   Bigarray cost-matrix stack (BENCH_flatgraph.json).

   Measures all-pairs shortest paths on unit-weight k=16/k=32
   fat-trees and on a k=16 fat-tree with uniform link delays (the
   float-weight fabric `load_topology ~weighted` serves), and Algo. 3
   placement solves: a cold solve, which builds the fabric's stroll
   table, and warm re-solves that reuse it. Timing, artifact format and
   the normalized `--check` regression gate live in {!Bench_common}. *)

module Bench = Bench_common
module Rng = Ppdc_prelude.Rng
module Fat_tree = Ppdc_topology.Fat_tree
module Cost_matrix = Ppdc_topology.Cost_matrix
module Workload = Ppdc_traffic.Workload
module Flow = Ppdc_traffic.Flow

let reference_entry = "all_pairs_k16_auto"

(* Link delays uniform with mean 1.5 and variance 0.5, drawn the way
   the server's weighted [load_topology] draws them. *)
let uniform_delay_fat_tree k =
  let weight_rng = Rng.split (Rng.create 1) in
  let half_width = sqrt 1.5 in
  Fat_tree.build
    ~weight:(fun _ _ ->
      Rng.uniform weight_rng ~lo:(1.5 -. half_width) ~hi:(1.5 +. half_width))
    k

let run ~quick t =
  let ft16 = Fat_tree.build 16 in
  Bench.record t reference_entry ~reps:5 (fun () ->
      Cost_matrix.compute ft16.graph);
  let weighted16 = uniform_delay_fat_tree 16 in
  Bench.record t "all_pairs_k16_weighted" ~reps:5 (fun () ->
      Cost_matrix.compute weighted16.graph);
  if not quick then begin
    let ft32 = Fat_tree.build 32 in
    Bench.record t "all_pairs_k32" ~reps:3 (fun () ->
        Cost_matrix.compute ft32.graph)
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
  let reps = 5 in
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
        rate_vectors)

let () = Bench.main ~bench:"flatgraph" ~reference:reference_entry run
