(* Leaf-factored all-pairs storage.

   A leaf is a degree-1 node, found through [row_ptr] as the kernel
   finds them: every fat-tree host, and any pendant switch. No cheapest
   path passes through a leaf, so every c(u, v) follows from Dijkstra
   over the core, the graph minus its leaves:

   - the columns are the core nodes, in increasing id order;
   - row r < m (m core nodes) is Dijkstra from core node [core.(r)];
   - row m + c is leaf class c's row: Dijkstra from the class's
     attachment node, started at the class's leaf weight. A class is
     one distinct (attachment, leaf-weight bits) pair, so the hosts of
     one edge switch share a row on a unit-weight fabric.

   For u <> v, c(u, v) = dist.{base.(u) + col.(v)} +. leaf.(v): [base]
   is the offset of u's own row (core u) or of its class row (leaf u),
   [col] is v's own column (core v) or its attachment's (leaf v), and
   [leaf] is v's leaf weight, 0 for a core node (x +. 0 = x for every
   x >= 0). Each entry is bit-identical to the dense row a Dijkstra
   from u computes. A leaf v is reached only from its attachment, last,
   so its entry is the attachment's plus w_v. A leaf source relaxes
   only its own link, so its row is the attachment's Dijkstra started
   at w_u, and other leaves relax nothing. Nothing is derived from the
   reverse direction: on float weights c(u, v) and c(v, u) can differ
   in the last bit.

   Both blocks are Bigarrays: off-heap, never scanned by the major GC,
   not initialized at allocation. [pred] is parallel to [dist] and holds
   column ids in 16 bits ({!Shortest_paths.pred_row}); each row's source
   column is its own predecessor. *)
type rows = {
  dist : Shortest_paths.dist_row;
  base : int array;
  col : int array;
  leaf : float array;
}

(* What the graph's structure and leaf weights alone determine: the
   core, the leaf classes and the per-node indexing that {!rows}
   shares. *)
type layout = {
  l_core : int array;  (* column -> node id *)
  l_base : int array;
  l_col : int array;
  l_leaf : float array;
  l_class_col : int array;  (* class -> attachment column *)
  l_class_w : float array;  (* class -> leaf weight, the row's start *)
}

type t = {
  id : int;  (* unique per value, for identity-keyed caches ([id]) *)
  graph : Graph.t;
  layout : layout;
  core_graph : Shortest_paths.csr;  (* [core_csr graph layout] *)
  rows : rows;
  pred : Shortest_paths.pred_row;
}

module Obs = Ppdc_prelude.Obs

let next_id = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add next_id 1

(* A degree-1 node is a leaf unless its neighbour is one too (in a
   connected graph, only the two-node graph, which stays all core), so
   every leaf hangs off a core node. *)
let is_leaf row_ptr targets v =
  row_ptr.(v + 1) - row_ptr.(v) = 1
  &&
  let a = targets.(row_ptr.(v)) in
  row_ptr.(a + 1) - row_ptr.(a) > 1

(* Classes are numbered in the order their first leaf appears. Each
   column chains its classes through [head]/[next], so finding a
   leaf's class scans only the classes at its own attachment. *)
let layout g =
  let n = Graph.num_nodes g in
  let row_ptr = Graph.csr_row_ptr g and targets = Graph.csr_targets g in
  let weights = Graph.csr_weights g in
  let col = Array.make n (-1) and m = ref 0 in
  for v = 0 to n - 1 do
    if not (is_leaf row_ptr targets v) then begin
      col.(v) <- !m;
      incr m
    end
  done;
  let m = !m in
  let core = Array.make m 0 and base = Array.make n 0 in
  let leaf = Array.make n 0.0 in
  let head = Array.make m (-1) and next = Array.make (n - m) (-1) in
  let class_col = Array.make (n - m) 0 and class_w = Array.make (n - m) 0.0 in
  let classes = ref 0 in
  for v = 0 to n - 1 do
    let c = col.(v) in
    if c >= 0 then begin
      core.(c) <- v;
      base.(v) <- c * m
    end
    else begin
      let a = col.(targets.(row_ptr.(v))) and w = weights.(row_ptr.(v)) in
      let k = ref head.(a) in
      while !k >= 0 && not (Float.equal class_w.(!k) w) do
        k := next.(!k)
      done;
      if !k < 0 then begin
        k := !classes;
        class_col.(!k) <- a;
        class_w.(!k) <- w;
        next.(!k) <- head.(a);
        head.(a) <- !k;
        incr classes
      end;
      col.(v) <- a;
      leaf.(v) <- w;
      base.(v) <- (m + !k) * m
    end
  done;
  {
    l_core = core;
    l_base = base;
    l_col = col;
    l_leaf = leaf;
    l_class_col = Array.sub class_col 0 !classes;
    l_class_w = Array.sub class_w 0 !classes;
  }

(* A leaf's column is its attachment's, which holds another node. *)
let in_core l v = l.l_core.(l.l_col.(v)) = v

(* The core's adjacency in column ids: [g]'s CSR without the leaves'
   rows and without the edges at leaves. Columns keep the order of node
   ids, so lowest-numbered-predecessor ties break as they do in [g]. *)
let core_csr g l =
  let row_ptr = Graph.csr_row_ptr g and targets = Graph.csr_targets g in
  let weights = Graph.csr_weights g in
  let core = l.l_core and col = l.l_col in
  let m = Array.length core in
  let ptr = Array.make (m + 1) 0 in
  for c = 0 to m - 1 do
    let u = core.(c) and d = ref 0 in
    for i = row_ptr.(u) to row_ptr.(u + 1) - 1 do
      if in_core l targets.(i) then incr d
    done;
    ptr.(c + 1) <- ptr.(c) + !d
  done;
  let core_targets = Array.make ptr.(m) 0 in
  let core_weights = Array.make ptr.(m) 0.0 in
  for c = 0 to m - 1 do
    let u = core.(c) and slot = ref ptr.(c) in
    for i = row_ptr.(u) to row_ptr.(u + 1) - 1 do
      let v = targets.(i) in
      if in_core l v then begin
        core_targets.(!slot) <- col.(v);
        core_weights.(!slot) <- weights.(i);
        incr slot
      end
    done
  done;
  {
    Shortest_paths.row_ptr = ptr;
    targets = core_targets;
    weights = core_weights;
  }

let num_rows t =
  Array.length t.layout.l_core + Array.length t.layout.l_class_col

(* Row [r] of [t], over the core graph: core row [r] starts at its own
   column at 0, class row [m + c] at the class's attachment at its leaf
   weight. Every stored entry is finite exactly when the graph is
   connected, since every leaf hangs off a core node. *)
let fill_row t r =
  let m = Array.length t.layout.l_core in
  let dist = t.rows.dist and pred = t.pred in
  let base = r * m in
  (if r < m then
     Shortest_paths.dijkstra_into t.core_graph ~src:r ~start:0.0 ~dist ~pred
       ~base
   else
     let c = r - m in
     Shortest_paths.dijkstra_into t.core_graph ~src:t.layout.l_class_col.(c)
       ~start:t.layout.l_class_w.(c) ~dist ~pred ~base);
  for i = base to base + m - 1 do
    if not (Float.is_finite dist.{i}) then
      invalid_arg "Cost_matrix: graph is not connected"
  done

(* A matrix of [graph] over [layout] and its core adjacency whose rows
   are not yet written. Every build and repair allocates here, so this
   is where a core too large for 16-bit predecessors is refused, before
   its rows exist. *)
let alloc graph layout core_graph =
  let m = Array.length layout.l_core in
  if m > Shortest_paths.max_nodes then
    invalid_arg
      (Printf.sprintf
         "Cost_matrix: a core of %d nodes, but a predecessor row holds at \
          most %d"
         m Shortest_paths.max_nodes);
  let len = max 1 (m * (m + Array.length layout.l_class_col)) in
  let dist = Shortest_paths.alloc_dist_rows len in
  {
    id = fresh_id ();
    graph;
    layout;
    core_graph;
    rows =
      { dist; base = layout.l_base; col = layout.l_col; leaf = layout.l_leaf };
    pred = Shortest_paths.alloc_pred_rows len;
  }

(* One Dijkstra per stored row, distributed over the domain pool: each
   task writes only its own row, so the result is identical to the
   sequential loop's for any PPDC_DOMAINS. *)
let compute graph =
  Obs.time "cost_matrix.compute" @@ fun () ->
  let layout = layout graph in
  let t = alloc graph layout (core_csr graph layout) in
  let rows = num_rows t in
  Ppdc_prelude.Parallel.parallel_for rows (fill_row t);
  Obs.incr ~by:rows "cost_matrix.dijkstra_runs";
  t

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

(* Diff two canonically sorted edge lists (u < v, sorted — the
   [Graph.edges] contract), read in place through [Graph.edge]. [None]
   only when the node sets/kinds differ; every edge-level delta maps to
   a [change]. O(|E|). *)
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
    let changes = ref [] in
    let i = ref 0 and j = ref 0 in
    let no = Graph.num_edges g and nn = Graph.num_edges g' in
    while !i < no || !j < nn do
      if !j >= nn then begin
        let u, v, _ = Graph.edge g !i in
        changes := Delete (u, v) :: !changes;
        incr i
      end
      else if !i >= no then begin
        let u', v', w' = Graph.edge g' !j in
        changes := Relax (u', v', w') :: !changes;
        incr j
      end
      else begin
        let u, v, w = Graph.edge g !i in
        let u', v', w' = Graph.edge g' !j in
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

(* A stored row is affected by a [Delete]/[Increase] of core edge
   (u, v) exactly when its shortest-path tree uses that edge. Every tree
   edge appears as exactly one parent link, so the membership test is
   O(1) per (row, edge): the tree uses (u, v) iff [pred.(v) = u] or
   [pred.(u) = v] in the row — no scan of the row is needed. Here u and
   v are columns, and the test is the same for core and class rows: a
   class row is a Dijkstra over the core graph that merely starts at a
   non-zero distance.

   A [Relax (u, v, w)] (decrease or restored edge) cannot be tested by
   tree membership — a brand-new edge is in nobody's tree — but it can
   only shorten paths that cross it, so the row is affected exactly
   when the edge is competitive at one endpoint against the *old*
   distances: [dist(u) + w <= dist(v)] or symmetrically. Strictly-less
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
      t.rows.dist.{base + u} +. w <= t.rows.dist.{base + v}
      || t.rows.dist.{base + v} +. w <= t.rows.dist.{base + u}
      || row_affected t ~base rest

let ends = function Delete (u, v) | Increase (u, v) | Relax (u, v, _) -> (u, v)

(* [source.(r)]: the row of [t] that row [r] of [t'] (same core) carries
   over, or -1. Core rows map to themselves. A class row carries over
   the row of any of its leaves whose attachment and weight did not
   change; when none kept both, the row is new. *)
let carried_rows t t' =
  let m = Array.length t.layout.l_core in
  let source = Array.make (num_rows t') (-1) in
  for r = 0 to m - 1 do
    source.(r) <- r
  done;
  let l = t.layout and l' = t'.layout in
  Array.iteri
    (fun v b ->
      if
        (not (in_core l' v))
        && source.(b / m) < 0
        && l.l_col.(v) = l'.l_col.(v)
        && Float.equal l.l_leaf.(v) l'.l_leaf.(v)
      then source.(b / m) <- l.l_base.(v) / m)
    l'.l_base;
  source

(* Derive the matrix of [g'] from [t], given the edge [changes] between
   them (node ids). When every change joins two core nodes that keep
   degree >= 2, the layout is [t]'s and rows map one to one. Otherwise
   the layout is derived again: a different core is rebuilt cold, and
   with the same core the rows map through [carried_rows]. Carried rows
   then take the core-edge tests above; the others are run. *)
let repair t g' changes =
  Obs.time "cost_matrix.repair" @@ fun () ->
  let l = t.layout in
  let same_layout =
    List.for_all
      (fun ch ->
        let u, v = ends ch in
        in_core l u && in_core l v
        && Graph.degree g' u >= 2
        && Graph.degree g' v >= 2)
      changes
  in
  let l' = if same_layout then l else layout g' in
  let m = Array.length l.l_core in
  let t', repaired =
    if
      Array.length l'.l_core <> m
      || not (Array.for_all2 Int.equal l'.l_core l.l_core)
    then begin
      let t' = compute g' in
      (t', num_rows t')
    end
    else begin
      let core_changes =
        List.filter_map
          (fun ch ->
            let u, v = ends ch in
            if not (in_core l u && in_core l v) then None
            else
              let u = l.l_col.(u) and v = l.l_col.(v) in
              match ch with
              | Delete _ -> Some (Delete (u, v))
              | Increase _ -> Some (Increase (u, v))
              | Relax (_, _, w) -> Some (Relax (u, v, w)))
          changes
      in
      let core_graph =
        match core_changes with [] -> t.core_graph | _ -> core_csr g' l'
      in
      let t' = alloc g' l' core_graph in
      let source =
        if same_layout then Array.init (num_rows t) Fun.id
        else carried_rows t t'
      in
      let affected =
        Array.map
          (fun s -> s < 0 || row_affected t ~base:(s * m) core_changes)
          source
      in
      (* Copy-on-write: [t] — possibly still cached under its own
         digest — is never mutated, and carried rows are byte-identical
         to [t]'s. One flat copy when rows map one to one. *)
      let dist = t'.rows.dist and pred = t'.pred in
      if same_layout then begin
        Bigarray.Array1.blit t.rows.dist dist;
        Bigarray.Array1.blit t.pred pred
      end
      else
        Array.iteri
          (fun r s ->
            if not affected.(r) then
              for i = 0 to m - 1 do
                dist.{(r * m) + i} <- t.rows.dist.{(s * m) + i};
                pred.{(r * m) + i} <- t.pred.{(s * m) + i}
              done)
          source;
      Ppdc_prelude.Parallel.parallel_for (Array.length affected) (fun r ->
          if affected.(r) then fill_row t' r);
      (t', Array.fold_left (fun n a -> if a then n + 1 else n) 0 affected)
    end
  in
  Obs.incr ~by:repaired "cost_matrix.repair.rows";
  Obs.incr "cost_matrix.repair.calls";
  (t', repaired)

let repair_to t g' =
  match diff_changes t.graph g' with
  | None -> None
  | Some [] ->
      (* Structurally identical fabric: the rows can be shared as they
         are; only the graph handle moves. *)
      Some ({ t with id = fresh_id (); graph = g' }, 0)
  | Some changes -> Some (repair t g' changes)

let id t = t.id
let graph t = t.graph
let rows t = t.rows

let[@inline] cost t u v =
  if u = v then 0.0
  else
    let r = t.rows in
    r.dist.{r.base.(u) + r.col.(v)} +. r.leaf.(v)

(* The stored row runs from [src]'s own column (core) or its
   attachment's (leaf) to [dst]'s column; a leaf end adds itself. *)
let path t ~src ~dst =
  if src = dst then [ src ]
  else begin
    let base = t.rows.base.(src) and core = t.layout.l_core in
    let rec walk c acc =
      let p = t.pred.{base + c} in
      if p < 0 then
        (* [compute] rejects disconnected graphs, so every pair has a
           path; an unreachable entry here means memory corruption. *)
        invalid_arg "Cost_matrix.path: unreachable destination"
      else if p = c then core.(c) :: acc
      else walk p (core.(c) :: acc)
    in
    let tail = if in_core t.layout dst then [] else [ dst ] in
    let core_path = walk t.rows.col.(dst) tail in
    if in_core t.layout src then core_path else src :: core_path
  end

let switch_path t ~src ~dst =
  List.filter (Graph.is_switch t.graph) (path t ~src ~dst)

(* [path] never returns [] (it is [[src]] when [src = dst]), so the hop
   count is unambiguous: 0 exactly when [src = dst]. *)
let hop_count t ~src ~dst = List.length (path t ~src ~dst) - 1

(* The greatest [cost u v] over u <> v, read off the stored rows. The
   best destination in column c is the heaviest leaf hanging there, or
   the core node itself when none does ([w1], 0 for none: fl(d + w) is
   monotone in w). A class row skips its own attachment column, where
   each member leaf must not pair with itself: that column is read per
   leaf, against the heaviest other leaf there ([w2] when the leaf is
   the heaviest, [h1]). *)
let diameter t =
  let r = t.rows and l = t.layout in
  let m = Array.length l.l_core and n = Array.length r.col in
  let w1 = Array.make m 0.0 and w2 = Array.make m 0.0 in
  let h1 = Array.make m (-1) in
  for v = 0 to n - 1 do
    let c = r.col.(v) and w = r.leaf.(v) in
    if not (in_core l v) then
      if w > w1.(c) then begin
        w2.(c) <- w1.(c);
        w1.(c) <- w;
        h1.(c) <- v
      end
      else if w > w2.(c) then w2.(c) <- w
  done;
  let acc = ref 0.0 in
  for row = 0 to num_rows t - 1 do
    let own = if row < m then -1 else l.l_class_col.(row - m) in
    for c = 0 to m - 1 do
      if c <> own then acc := Float.max !acc (r.dist.{(row * m) + c} +. w1.(c))
    done
  done;
  for v = 0 to n - 1 do
    let c = r.col.(v) in
    if not (in_core l v) then
      acc :=
        Float.max !acc
          (r.dist.{r.base.(v) + c} +. if h1.(c) = v then w2.(c) else w1.(c))
  done;
  !acc

let num_nodes t = Graph.num_nodes t.graph
