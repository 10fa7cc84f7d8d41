module Fat_tree = Ppdc_topology.Fat_tree
module Cost_matrix = Ppdc_topology.Cost_matrix
module Workload = Ppdc_traffic.Workload
module Rng = Ppdc_prelude.Rng
module Stats = Ppdc_prelude.Stats
open Ppdc_core

(* The unweighted fat-tree and its all-pairs matrix depend only on k;
   cache them across trials (the k=16 matrix holds 448 stored rows ×
   320 columns, about 1.4 MB, and Fig. 11 uses it hundreds of times).
   The cache is an LRU bounded at [cost_matrix_cache_capacity] entries
   — an experiment sweeping many fabric sizes no longer accumulates one
   matrix per k forever (k=32 is about 23 MB); any single experiment
   touches at most two or three ks, so trials still hit. Trials may run
   on several domains: concurrent misses for one k wait for its one
   build, and lookups of every other k proceed meanwhile. *)
let cost_matrix_cache_capacity = 4

let unweighted_cache : (int, Fat_tree.t * Cost_matrix.t) Ppdc_prelude.Lru.t =
  Ppdc_prelude.Lru.create ~capacity:cost_matrix_cache_capacity

let unweighted_fat_tree k =
  let hit, pair =
    Ppdc_prelude.Lru.find_or_add unweighted_cache k (fun () ->
        let ft = Fat_tree.build k in
        (ft, Cost_matrix.compute ft.graph))
  in
  Ppdc_prelude.Obs.incr
    (if hit then "runner.cost_matrix_cache_hits"
     else "runner.cost_matrix_cache_misses");
  pair

let cost_matrix_cache_stats () =
  let s = Ppdc_prelude.Lru.stats unweighted_cache in
  (s.entries, s.hits, s.misses)

let fat_tree_problem ?(weighted = false) ~k ~l ~n ~seed () =
  let rng = Rng.create seed in
  let ft, cm =
    if weighted then
      let ft = Fat_tree.build_weighted ~rng k in
      (ft, Cost_matrix.compute ft.graph)
    else unweighted_fat_tree k
  in
  let flows = Workload.generate_on_fat_tree ~rng ~l ft in
  Problem.make ~cm ~flows ~n ()

(* Seeded trials are independent; spread them over the domain pool.
   Results land in seed order, so every summary read off them is
   bit-identical to the sequential protocol for any PPDC_DOMAINS. *)
let runs ~trials f =
  Ppdc_prelude.Parallel.init trials (fun i ->
      Ppdc_prelude.Obs.time "runner.trial" (fun () -> f ~seed:(i + 1)))

let summary runs stat = Stats.summary (Array.map stat runs)
let average ~trials f = summary (runs ~trials f) Fun.id

let mean_cell (s : Stats.summary) = Printf.sprintf "%.1f±%.1f" s.mean s.ci95
