module Table = Ppdc_prelude.Table
module Rng = Ppdc_prelude.Rng
module Fat_tree = Ppdc_topology.Fat_tree
open Ppdc_core

let run mode =
  let k = Mode.k_placement mode in
  let trials = Mode.trials mode in
  let ft, cm = Runner.unweighted_fat_tree k in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "Fig. 7: TOP-1 stroll costs (k=%d, l=1, %d trials)" k
           trials)
      ~columns:[ "n"; "Optimal"; "DP-Stroll"; "PrimalDual"; "2xOptimal" ]
  in
  List.iter
    (fun n ->
      let endpoints seed =
        let rng = Rng.create (1000 + seed) in
        let src = Rng.pick rng ft.Fat_tree.hosts in
        let dst = Rng.pick rng ft.Fat_tree.hosts in
        (src, dst)
      in
      let budget = Mode.opt_budget mode in
      (* The exact search starts from the DP stroll as its incumbent. *)
      let strolls =
        Runner.runs ~trials (fun ~seed ->
            let src, dst = endpoints seed in
            let dp = Stroll_dp.solve ~cm ~src ~dst ~n () in
            let exact =
              Stroll_exact.solve ~cm ~src ~dst ~n ~budget
                ~incumbent:(dp.cost, dp.switches) ()
            in
            (exact.cost, dp.cost))
      in
      let optimal = Runner.summary strolls fst in
      let dp = Runner.summary strolls snd in
      let pd =
        Runner.average ~trials (fun ~seed ->
            let src, dst = endpoints seed in
            (Stroll_primal_dual.solve ~cm ~src ~dst ~n ()).cost)
      in
      Table.add_row table
        [
          string_of_int n;
          Runner.mean_cell optimal;
          Runner.mean_cell dp;
          Runner.mean_cell pd;
          Printf.sprintf "%.1f" (2.0 *. optimal.mean);
        ])
    (Mode.n_stroll_sweep mode);
  [ table ]
