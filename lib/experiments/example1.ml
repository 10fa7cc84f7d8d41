module Table = Ppdc_prelude.Table
module Linear = Ppdc_topology.Linear
module Cost_matrix = Ppdc_topology.Cost_matrix
module Flow = Ppdc_traffic.Flow
open Ppdc_core

let run _mode =
  let lin = Linear.build ~num_switches:5 in
  let cm = Cost_matrix.compute lin.graph in
  let h1 = lin.hosts.(0) and h2 = lin.hosts.(1) in
  let flows =
    [|
      Flow.make ~id:0 ~src_host:h1 ~dst_host:h1 ~base_rate:100.0 ~coast:East;
      Flow.make ~id:1 ~src_host:h2 ~dst_host:h2 ~base_rate:1.0 ~coast:West;
    |]
  in
  let problem = Problem.make ~cm ~flows ~n:2 () in
  let table =
    Table.create ~title:"Example 1 / Fig. 3: worked migration example (mu=1)"
      ~columns:[ "step"; "value"; "paper" ]
  in
  let initial = Placement_opt.solve problem ~rates:[| 100.0; 1.0 |] () in
  Table.add_row table
    [
      "optimal C_a under lambda=<100,1>";
      Printf.sprintf "%.0f" initial.cost;
      "410";
    ];
  let p = [| 0; 1 |] in
  let stale = Cost.comm_cost problem ~rates:[| 1.0; 100.0 |] p in
  Table.add_row table
    [ "stale C_a after swap to <1,100>"; Printf.sprintf "%.0f" stale; "1004" ];
  let migrated =
    Mpareto.migrate problem ~rates:[| 1.0; 100.0 |] ~mu:1.0 ~current:p ()
  in
  Table.add_row table
    [
      "mPareto migration cost C_b";
      Printf.sprintf "%.0f" migrated.migration_cost;
      "6";
    ];
  Table.add_row table
    [
      "post-migration C_a";
      Printf.sprintf "%.0f" migrated.comm_cost;
      "410";
    ];
  Table.add_row table
    [
      "total-cost reduction";
      Printf.sprintf "%.1f%%" (100.0 *. (1.0 -. (migrated.total_cost /. stale)));
      "58.6%";
    ];
  [ table ]
