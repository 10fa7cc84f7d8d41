module Cost_matrix = Ppdc_topology.Cost_matrix
module Obs = Ppdc_prelude.Obs
module Graph = Ppdc_topology.Graph

(* The DP state is a bundle of growable flat buffers so that one table
   can be re-prepared for a new destination without allocating: Algo. 3
   prepares one table per candidate egress, and rebuilding the metric
   completion in place turns that fan-out's inner loops zero-alloc.
   Valid data always lives in the prefix dictated by [nn] (or [levels]);
   capacities only grow. *)
type table = {
  mutable nn : int;  (* number of local nodes; dst is local 0 *)
  mutable nodes : int array;  (* capacity >= nn: local index -> graph node *)
  mutable local : int array;
      (* capacity >= |V| of the graph: graph node -> local index, -1 when
         the node is not in the table *)
  mutable counting : Bytes.t;
      (* capacity >= nn: local index counts towards "n distinct" *)
  mutable dist : float array;
      (* capacity >= nn²: metric completion, row stride nn *)
  mutable dst : int;  (* graph node *)
  (* Growable level store: slot [e - 1] holds level [e] once computed.
     Row arrays are kept across re-prepares (only the valid prefix [nn]
     is ever read), and capacity doubles on demand so [level] is O(1)
     and the edge-budget escalation in [query] is linear in the number
     of levels. *)
  mutable best : float array array;
  mutable succ : int array array;
  mutable levels : int;  (* number of levels computed *)
}

type workspace = table

let workspace () =
  {
    nn = 0;
    nodes = [||];
    local = [||];
    counting = Bytes.empty;
    dist = [||];
    dst = -1;
    best = [||];
    succ = [||];
    levels = 0;
  }

(* [level t e] fetches level [e] (1-based); [e <= t.levels] required.
   Returned arrays may be longer than [t.nn] — only the prefix is
   meaningful. *)
let level t e = (t.best.(e - 1), t.succ.(e - 1))

let grow_levels t =
  let capacity = Array.length t.best in
  if t.levels = capacity then begin
    let capacity' = max 8 (2 * capacity) in
    let best = Array.make capacity' [||] and succ = Array.make capacity' [||] in
    Array.blit t.best 0 best 0 capacity;
    Array.blit t.succ 0 succ 0 capacity;
    t.best <- best;
    t.succ <- succ
  end

(* Fetch (allocating only on first use or growth) the row for the next
   level to be written. *)
let level_row t store =
  if Array.length store.(t.levels) < t.nn then
    store.(t.levels) <- Array.make t.nn 0.0;
  store.(t.levels)

let level_row_int t store =
  if Array.length store.(t.levels) < t.nn then
    store.(t.levels) <- Array.make t.nn 0;
  store.(t.levels)

let prepare_in t ~cm ~dst ~candidates ~extras =
  if Array.length candidates = 0 then
    invalid_arg "Stroll_dp.prepare: no candidates";
  let num_nodes = Cost_matrix.num_nodes cm in
  (* Reset the node->local map: clear the previous table's entries (the
     prefix of [nodes] tells us exactly which slots are dirty), then
     grow if this graph is larger than any seen before. *)
  for i = 0 to t.nn - 1 do
    t.local.(t.nodes.(i)) <- -1
  done;
  if Array.length t.local < num_nodes then t.local <- Array.make num_nodes (-1);
  let max_nn = 1 + Array.length candidates + Array.length extras in
  if Array.length t.nodes < max_nn then t.nodes <- Array.make max_nn (-1);
  t.nn <- 0;
  let add_node v =
    if t.local.(v) = -1 then begin
      t.local.(v) <- t.nn;
      t.nodes.(t.nn) <- v;
      t.nn <- t.nn + 1
    end
  in
  (* dst first so it gets local index 0. *)
  add_node dst;
  let before_candidates = t.nn in
  Array.iter add_node candidates;
  let added = t.nn - before_candidates in
  (* Duplicate detection without an auxiliary set: folding [candidates]
     adds every distinct candidate except [dst] (already present), so
     with no duplicates [added = length - occurrences-of-dst] and [dst]
     occurs at most once. *)
  let occ_dst =
    Array.fold_left (fun n c -> if c = dst then n + 1 else n) 0 candidates
  in
  if occ_dst > 1 || added <> Array.length candidates - occ_dst then
    invalid_arg "Stroll_dp.prepare: duplicate candidates";
  Array.iter add_node extras;
  let nn = t.nn in
  if Bytes.length t.counting < nn then t.counting <- Bytes.create nn;
  Bytes.fill t.counting 0 nn '\000';
  Array.iter (fun c -> Bytes.set t.counting t.local.(c) '\001') candidates;
  Bytes.set t.counting 0 '\000';
  (* dst never counts *)
  if Array.length t.dist < nn * nn then t.dist <- Array.make (nn * nn) 0.0;
  for i = 0 to nn - 1 do
    let row = i * nn in
    let u = t.nodes.(i) in
    for j = 0 to nn - 1 do
      t.dist.(row + j) <- Cost_matrix.cost cm u t.nodes.(j)
    done
  done;
  t.dst <- dst;
  (* Level 1: direct hop to dst. A self "hop" (possible only when two
     local indices map to the same graph node, which prepare prevents)
     and the dst->dst hop are forbidden. *)
  t.levels <- 0;
  grow_levels t;
  let best1 = level_row t t.best and succ1 = level_row_int t t.succ in
  best1.(0) <- infinity;
  succ1.(0) <- -1;
  for i = 1 to nn - 1 do
    best1.(i) <- t.dist.(i * nn);
    succ1.(i) <- 0
  done;
  t.levels <- 1;
  Obs.incr "stroll_dp.tables";
  Obs.observe "stroll_dp.table_nodes" (float_of_int nn);
  t

let prepare ~cm ~dst ~candidates ~extras =
  prepare_in (workspace ()) ~cm ~dst ~candidates ~extras

let extend_one_level t =
  let nn = t.nn in
  let prev_best, prev_succ = level t t.levels in
  grow_levels t;
  let best = level_row t t.best and succ = level_row_int t t.succ in
  for i = 0 to nn - 1 do
    best.(i) <- infinity;
    succ.(i) <- -1;
    let row = i * nn in
    (* Intermediate u: not i itself, not dst (local 0), and no immediate
       backtrack (the previous level's stroll from u must not return
       straight to i). The ban is exempt at i = 0: a walk from local 0
       only exists when src = dst, and there u "returning" to 0 is the
       walk's final hop into dst — the optimal closed stroll
       dst -> u -> dst — not a mid-walk bounce. best.(0) is never read
       as a predecessor level (u ranges over 1..nn-1), so the exemption
       cannot feed a bounce into any longer walk. *)
    for u = 1 to nn - 1 do
      if
        u <> i
        && (i = 0 || prev_succ.(u) <> i)
        && prev_best.(u) < infinity
      then begin
        let candidate = t.dist.(row + u) +. prev_best.(u) in
        if candidate < best.(i) then begin
          best.(i) <- candidate;
          succ.(i) <- u
        end
      end
    done
  done;
  t.levels <- t.levels + 1;
  Obs.incr "stroll_dp.levels_extended"

let ensure_levels t e = while t.levels < e do extend_one_level t done

type result = {
  cost : float;
  switches : int array;
  walk : int array;
  edges : int;
}

let extract_walk t ~src_local ~edges =
  let walk = Array.make (edges + 1) (-1) in
  walk.(0) <- t.nodes.(src_local);
  let current = ref src_local in
  for step = 1 to edges do
    let _, succ = level t (edges - step + 1) in
    current := succ.(!current);
    walk.(step) <- t.nodes.(!current)
  done;
  walk

let distinct_counting t ~walk ~src =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  Array.iter
    (fun v ->
      if
        v <> src && v <> t.dst
        && (not (Hashtbl.mem seen v))
        &&
        let idx = t.local.(v) in
        idx >= 0 && Bytes.get t.counting idx <> '\000'
      then begin
        Hashtbl.add seen v ();
        acc := v :: !acc
      end)
    walk;
  Array.of_list (List.rev !acc)

let query t ~src ~n ?max_edges () =
  let src_local =
    if src < 0 || src >= Array.length t.local || t.local.(src) = -1 then
      invalid_arg "Stroll_dp.query: source not in table"
    else t.local.(src)
  in
  if n < 0 then invalid_arg "Stroll_dp.query: negative n";
  if n = 0 then begin
    let max_edges = Option.value max_edges ~default:1 in
    if max_edges < 0 then None
    else if src = t.dst then
      Some { cost = 0.0; switches = [||]; walk = [| src |]; edges = 0 }
    else if max_edges < 1 then None
    else begin
      ensure_levels t 1;
      let best, _ = level t 1 in
      Some
        {
          cost = best.(src_local);
          switches = [||];
          walk = [| src; t.dst |];
          edges = 1;
        }
    end
  end
  else begin
    let max_edges = Option.value max_edges ~default:((2 * n) + 8) in
    let first_attempt = n + 1 in
    let rec attempt edges =
      if edges > max_edges then None
      else begin
        (* Every retry past the minimum edge count is a budget
           escalation: the level-[edges] stroll existed but did not
           collect enough distinct counting switches. *)
        if edges > first_attempt then Obs.incr "stroll_dp.edge_escalations";
        ensure_levels t edges;
        let best, _ = level t edges in
        if Float.equal best.(src_local) infinity then attempt (edges + 1)
        else begin
          let walk = extract_walk t ~src_local ~edges in
          let distinct = distinct_counting t ~walk ~src in
          if Array.length distinct >= n then
            Some
              {
                cost = best.(src_local);
                switches = Array.sub distinct 0 n;
                walk;
                edges;
              }
          else attempt (edges + 1)
        end
      end
    in
    attempt (n + 1)
  end

(* Nearest-neighbour fallback: hop to the closest unused counting switch
   until n are collected, then to dst. Guarantees a valid stroll whenever
   enough counting switches exist. *)
let nearest_neighbour ~cm ~src ~dst ~n ~eligible =
  Obs.incr "stroll_dp.nn_fallbacks";
  let remaining = Hashtbl.create 16 in
  Array.iter (fun v -> Hashtbl.replace remaining v ()) eligible;
  if Hashtbl.length remaining < n then
    invalid_arg
      (Printf.sprintf
         "Stroll_dp.nearest_neighbour: need %d eligible switches, have %d" n
         (Hashtbl.length remaining));
  let order = ref [] in
  let current = ref src in
  let total = ref 0.0 in
  for _ = 1 to n do
    let chosen = ref (-1) and best = ref infinity in
    Hashtbl.iter
      (fun v () ->
        let d = Cost_matrix.cost cm !current v in
        if d < !best || (Float.equal d !best && (!chosen = -1 || v < !chosen))
        then begin
          best := d;
          chosen := v
        end)
      remaining;
    assert (!chosen >= 0);
    Hashtbl.remove remaining !chosen;
    order := !chosen :: !order;
    total := !total +. !best;
    current := !chosen
  done;
  total := !total +. Cost_matrix.cost cm !current dst;
  let switches = Array.of_list (List.rev !order) in
  let walk = Array.concat [ [| src |]; switches; [| dst |] ] in
  { cost = !total; switches; walk; edges = n + 1 }

let solve ~cm ~src ~dst ~n ?max_edges () =
  let candidates = Graph.switches (Cost_matrix.graph cm) in
  let eligible =
    Array.of_list
      (List.filter
         (fun v -> v <> src && v <> dst)
         (Array.to_list candidates))
  in
  if Array.length eligible < n then
    invalid_arg "Stroll_dp.solve: not enough candidate switches";
  let extras =
    List.filter
      (fun v -> not (Array.exists (( = ) v) candidates))
      [ src; dst ]
  in
  let table = prepare ~cm ~dst ~candidates ~extras:(Array.of_list extras) in
  match query table ~src ~n ?max_edges () with
  | Some r -> r
  | None -> nearest_neighbour ~cm ~src ~dst ~n ~eligible
