module Graph = Ppdc_topology.Graph
module Cost_matrix = Ppdc_topology.Cost_matrix
module Union_find = Ppdc_prelude.Union_find
module Rng = Ppdc_prelude.Rng
open Ppdc_core

let connected_without g ~removed =
  let n = Graph.num_nodes g in
  let uf = Union_find.create n in
  List.iter
    (fun (u, v, _) ->
      if not (Hashtbl.mem removed (min u v, max u v)) then
        ignore (Union_find.union uf u v))
    (Graph.edges g);
  Union_find.count_sets uf = 1

let fail_links ~rng ~fraction g =
  if (not (Float.is_finite fraction)) || fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Failures.fail_links: fraction outside [0,1]";
  let switch_links =
    List.filter
      (fun (u, v, _) -> Graph.is_switch g u && Graph.is_switch g v)
      (Graph.edges g)
    |> Array.of_list
  in
  (* "Up to ⌊fraction · links⌋": truncation, not rounding — a fraction
     that buys less than one whole link fails nothing. *)
  let target =
    int_of_float (fraction *. float_of_int (Array.length switch_links))
  in
  if target = 0 then (g, [])
    (* Nothing to fail (fraction too small, or a fabric with no
       switch-switch links at all): return the graph unchanged — same
       value, same digest, no rebuild. *)
  else begin
    Rng.shuffle rng switch_links;
    let removed = Hashtbl.create target in
    let failed = ref [] in
    let failed_count = ref 0 in
    Array.iter
      (fun (u, v, _) ->
        if !failed_count < target then begin
          let k = (min u v, max u v) in
          Hashtbl.add removed k ();
          if connected_without g ~removed then begin
            failed := k :: !failed;
            incr failed_count
          end
          else Hashtbl.remove removed k
        end)
      switch_links;
    let kinds = Array.init (Graph.num_nodes g) (Graph.kind g) in
    let surviving =
      List.filter
        (fun (u, v, _) -> not (Hashtbl.mem removed (min u v, max u v)))
        (Graph.edges g)
    in
    (Graph.make ~kinds ~edges:surviving, List.rev !failed)
  end

type impact = {
  failed : (int * int) list;
  cost_before : float;
  cost_after : float;
  cost_migrated : float;
  moved : int;
}

let impact ~rng ~fraction ~mu problem ~rates ~placement =
  let cost_before = Cost.comm_cost problem ~rates placement in
  let degraded_graph, failed = fail_links ~rng ~fraction (Problem.graph problem) in
  (* The degraded fabric is the healthy one minus a few links — the
     shape Cost_matrix.repair_to localizes. Only the rows whose
     shortest-path trees used a failed link are re-run; the result is
     bit-identical to the cold compute this used to do. *)
  (* Same nodes and kinds: [repair_to] never refuses. *)
  let degraded_cm, _rows =
    Option.get (Cost_matrix.repair_to (Problem.cm problem) degraded_graph)
  in
  let degraded_problem =
    Problem.make ~cm:degraded_cm ~flows:(Problem.flows problem)
      ~n:(Problem.n problem) ()
  in
  let cost_after = Cost.comm_cost degraded_problem ~rates placement in
  let response =
    Mpareto.migrate degraded_problem ~rates ~mu ~current:placement ()
  in
  {
    failed;
    cost_before;
    cost_after;
    cost_migrated = response.total_cost;
    moved = response.moved;
  }
