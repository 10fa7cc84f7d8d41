(* The whole all-pairs result lives in two flat Bigarrays with row
   stride [n]: [dist.{src * n + dst}] and [pred.{src * n + dst}]. Flat
   rows keep the per-source Dijkstra writes and the solvers' row scans
   on contiguous memory, and Bigarray storage keeps the matrices out of
   the GC-scanned heap — a |V|² [int array] of predecessors is a tag-0
   block the major collector would otherwise walk in full (~700 MB per
   mark cycle at k=32). This is the layout the flat-graph benches
   (BENCH_flatgraph.json) hold the line on. *)
type t = {
  id : int;  (* unique per value, for identity-keyed caches ([id]) *)
  graph : Graph.t;
  n : int;  (* row stride *)
  dist : Shortest_paths.dist_row;  (* length n * n *)
  pred : Shortest_paths.pred_row;
      (* length n * n; row src is the tree rooted at src *)
}

module Obs = Ppdc_prelude.Obs

let next_id = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add next_id 1

(* One Dijkstra per source, distributed over the domain pool: each task
   writes only its own row segment [src*n .. src*n + n - 1] of the
   shared flat arrays, so the result is identical to the sequential
   loop's for any PPDC_DOMAINS. *)
let compute graph =
  Obs.time "cost_matrix.compute" @@ fun () ->
  let n = Graph.num_nodes graph in
  let dist = Shortest_paths.alloc_dist_rows (max (n * n) 1) in
  let pred = Shortest_paths.alloc_pred_rows (max (n * n) 1) in
  Ppdc_prelude.Parallel.parallel_for n (fun src ->
      let base = src * n in
      Shortest_paths.dijkstra_into graph ~src ~dist ~pred ~base;
      for v = base to base + n - 1 do
        if not (Float.is_finite dist.{v}) then
          invalid_arg "Cost_matrix.compute: graph is not connected"
      done);
  Obs.incr ~by:n "cost_matrix.dijkstra_runs";
  { id = fresh_id (); graph; n; dist; pred }

(* --- dynamic repair ------------------------------------------------------ *)

(* A structural delta that repair can localize. [Delete]/[Increase]
   can only lengthen paths, so they affect exactly the sources whose
   shortest-path trees used the edge. [Relax (u, v, w)] — a weight
   decrease or a restored/inserted edge of new weight [w] — can only
   shorten paths *through* the edge, so it affects exactly the sources
   for which the edge is now competitive at either endpoint (the
   distance test in [row_affected]). Only a node-count or node-kind
   change remains non-localizable and forces a cold [compute]. *)
type change =
  | Delete of int * int
  | Increase of int * int
  | Relax of int * int * float  (* new (decreased or inserted) weight *)

(* Diff two canonically sorted edge arrays (u < v, sorted — the
   [Graph.edges] contract). [None] only when the node sets/kinds
   differ; every edge-level delta maps to a [change]. O(|E|). *)
let diff_changes g g' =
  let kinds_equal =
    Graph.num_nodes g = Graph.num_nodes g'
    && (let ok = ref true in
        for v = 0 to Graph.num_nodes g - 1 do
          if Graph.kind g v <> Graph.kind g' v then ok := false
        done;
        !ok)
  in
  if not kinds_equal then None
  else begin
    let old_edges = Array.of_list (Graph.edges g) in
    let new_edges = Array.of_list (Graph.edges g') in
    let changes = ref [] in
    let i = ref 0 and j = ref 0 in
    let no = Array.length old_edges and nn = Array.length new_edges in
    while !i < no || !j < nn do
      if !j >= nn then begin
        let u, v, _ = old_edges.(!i) in
        changes := Delete (u, v) :: !changes;
        incr i
      end
      else if !i >= no then begin
        let u', v', w' = new_edges.(!j) in
        changes := Relax (u', v', w') :: !changes;
        incr j
      end
      else begin
        let u, v, w = old_edges.(!i) in
        let u', v', w' = new_edges.(!j) in
        match Int.compare u u' with
        | 0 -> (
            match Int.compare v v' with
            | 0 ->
                (match Float.compare w' w with
                | 0 -> ()
                | c when c > 0 -> changes := Increase (u, v) :: !changes
                | _ -> changes := Relax (u, v, w') :: !changes);
                incr i;
                incr j
            | c when c < 0 ->
                changes := Delete (u, v) :: !changes;
                incr i
            | _ ->
                changes := Relax (u', v', w') :: !changes;
                incr j)
        | c when c < 0 ->
            changes := Delete (u, v) :: !changes;
            incr i
        | _ ->
            changes := Relax (u', v', w') :: !changes;
            incr j
      end
    done;
    Some !changes
  end

(* A source [src] is affected by a [Delete]/[Increase] of edge (u, v)
   exactly when its shortest-path tree uses that edge. Every tree edge
   appears as exactly one parent link, so the membership test is O(1)
   per (source, edge): the tree uses (u, v) iff [pred.(v) = u] or
   [pred.(u) = v] in [src]'s row — no scan of the row is needed.

   A [Relax (u, v, w)] (decrease or restored edge) cannot be tested by
   tree membership — a brand-new edge is in nobody's tree — but it can
   only shorten paths that cross it, so [src] is affected exactly when
   the edge is competitive at one endpoint against the *old* distances:
   [dist(src, u) + w <= dist(src, v)] or symmetrically. Strictly-less
   would miss the equality case, where distances stay put but the new
   edge becomes an equal-cost parent candidate and can displace the
   canonical (lowest-numbered-predecessor) tree's choice at [u] or
   [v] — hence [<=], which re-runs exactly those rows too.

   Why unaffected rows survive byte-identical, even under a mixed
   change set: if a row fails every test above, its old tree avoids
   every deleted/increased edge, so all its paths survive in [g'] at
   unchanged cost; and any allegedly shorter new path must cross some
   relaxed edge (u, v, w) — say first at (u → v) — which costs at least
   [dist(u) + w > dist(v)] by the failed test (old distances are lower
   bounds for prefixes of any path, by induction on the number of
   changed-edge traversals), so it shortens nothing. Distances
   unchanged, and since the kernel freezes the tree as the
   lowest-numbered-predecessor tree — a pure function of [dist] and
   the adjacency (see Shortest_paths) — [pred.(x)] is the least
   neighbour [y] with [dist.(y) + w(y, x) = dist.(x)]: a deleted edge
   with [pred.(v) <> u] was not the ranking candidate, an increase
   only pushes a non-candidate further from candidacy (Dijkstra's
   invariant gives [dist.(u) + w >= dist.(v)] beforehand), and a
   relaxed edge that failed the [<=] test is strictly
   non-competitive.

   A direct recursion rather than [List.exists], so testing a row
   allocates no closure. *)
let rec row_affected t ~base = function
  | [] -> false
  | (Delete (u, v) | Increase (u, v)) :: rest ->
      t.pred.{base + v} = u
      || t.pred.{base + u} = v
      || row_affected t ~base rest
  | Relax (u, v, w) :: rest ->
      t.dist.{base + u} +. w <= t.dist.{base + v}
      || t.dist.{base + v} +. w <= t.dist.{base + u}
      || row_affected t ~base rest

let repair_rows t g' changes =
  Obs.time "cost_matrix.repair" @@ fun () ->
  let n = t.n in
  let dist = Shortest_paths.alloc_dist_rows (max (n * n) 1) in
  let pred = Shortest_paths.alloc_pred_rows (max (n * n) 1) in
  (* Copy-on-write at matrix granularity: the parent's rows are blitted
     once (a flat memcpy, no GC traffic) and only affected rows are
     overwritten, so the parent matrix — possibly still cached under
     its own digest — is never mutated, and unaffected rows are
     byte-identical to the parent's by construction. *)
  Bigarray.Array1.blit t.dist dist;
  Bigarray.Array1.blit t.pred pred;
  let affected =
    Array.init n (fun src -> row_affected t ~base:(src * n) changes)
  in
  let repaired = ref 0 in
  Array.iter (fun a -> if a then incr repaired) affected;
  Ppdc_prelude.Parallel.parallel_for n (fun src ->
      if affected.(src) then begin
        let base = src * n in
        Shortest_paths.dijkstra_into g' ~src ~dist ~pred ~base;
        for v = base to base + n - 1 do
          if not (Float.is_finite dist.{v}) then
            invalid_arg "Cost_matrix.repair: graph is not connected"
        done
      end);
  Obs.incr ~by:!repaired "cost_matrix.repair.rows";
  Obs.incr "cost_matrix.repair.calls";
  ({ id = fresh_id (); graph = g'; n; dist; pred }, !repaired)

let repair_to t g' =
  match diff_changes t.graph g' with
  | None -> None
  | Some [] ->
      (* Structurally identical fabric: the matrices can be shared as
         they are; only the graph handle moves. *)
      Some ({ t with id = fresh_id (); graph = g' }, 0)
  | Some changes -> Some (repair_rows t g' changes)

let graph_without_edge g ~u ~v =
  let found = ref false in
  let edges =
    List.filter
      (fun (a, b, _) ->
        let hit = (a = u && b = v) || (a = v && b = u) in
        if hit then found := true;
        not hit)
      (Graph.edges g)
  in
  if not !found then None
  else
    Some
      (Graph.make
         ~kinds:(Array.init (Graph.num_nodes g) (Graph.kind g))
         ~edges)

let delete_edge t ~u ~v =
  match graph_without_edge t.graph ~u ~v with
  | None -> invalid_arg "Cost_matrix.delete_edge: no such edge"
  | Some g' -> fst (repair_rows t g' [ Delete (u, v) ])

let increase_weight t ~u ~v ~weight =
  match Graph.edge_weight t.graph u v with
  | None -> invalid_arg "Cost_matrix.increase_weight: no such edge"
  | Some w when Float.compare weight w < 0 ->
      invalid_arg
        "Cost_matrix.increase_weight: new weight is smaller (use \
         decrease_weight)"
  | Some w ->
      let g' =
        Graph.map_weights t.graph (fun a b wab ->
            if (a = u && b = v) || (a = v && b = u) then weight else wab)
      in
      if Float.compare weight w = 0 then { t with id = fresh_id (); graph = g' }
      else fst (repair_rows t g' [ Increase (min u v, max u v) ])

let decrease_weight t ~u ~v ~weight =
  if not (Float.is_finite weight) || weight <= 0.0 then
    invalid_arg "Cost_matrix.decrease_weight: weight must be finite positive";
  match Graph.edge_weight t.graph u v with
  | None -> invalid_arg "Cost_matrix.decrease_weight: no such edge"
  | Some w when Float.compare weight w > 0 ->
      invalid_arg
        "Cost_matrix.decrease_weight: new weight is larger (use \
         increase_weight)"
  | Some w ->
      let g' =
        Graph.map_weights t.graph (fun a b wab ->
            if (a = u && b = v) || (a = v && b = u) then weight else wab)
      in
      if Float.compare weight w = 0 then { t with id = fresh_id (); graph = g' }
      else fst (repair_rows t g' [ Relax (min u v, max u v, weight) ])

let restore_edge t ~u ~v ~weight =
  if not (Float.is_finite weight) || weight <= 0.0 then
    invalid_arg "Cost_matrix.restore_edge: weight must be finite positive";
  (match Graph.edge_weight t.graph u v with
  | Some _ -> invalid_arg "Cost_matrix.restore_edge: edge already present"
  | None -> ());
  let g' =
    (* [Graph.make] re-validates (self-loop, range, host-host). *)
    Graph.make
      ~kinds:(Array.init (Graph.num_nodes t.graph) (Graph.kind t.graph))
      ~edges:((min u v, max u v, weight) :: Graph.edges t.graph)
  in
  fst (repair_rows t g' [ Relax (min u v, max u v, weight) ])

let id t = t.id
let graph t = t.graph

let cost t u v = t.dist.{(u * t.n) + v}

let stride t = t.n
let costs t = t.dist

let path t ~src ~dst =
  let base = src * t.n in
  if t.pred.{base + dst} = -1 then
    (* [compute] rejects disconnected graphs, so every pair has a path;
       an unreachable row entry here means memory corruption. *)
    invalid_arg "Cost_matrix.path: unreachable destination"
  else begin
    let rec walk v acc =
      if v = src then v :: acc else walk t.pred.{base + v} (v :: acc)
    in
    walk dst []
  end

let switch_path t ~src ~dst =
  List.filter (Graph.is_switch t.graph) (path t ~src ~dst)

(* [path] never returns [] (it is [[src]] when [src = dst]), so the hop
   count is unambiguous: 0 exactly when [src = dst]. The former
   [max 0 (len - 1)] collapsed "unreachable" and "same node" to 0. *)
let hop_count t ~src ~dst = List.length (path t ~src ~dst) - 1

let diameter t =
  let acc = ref 0.0 in
  for i = 0 to (t.n * t.n) - 1 do
    acc := Float.max !acc t.dist.{i}
  done;
  !acc

let num_nodes t = t.n
