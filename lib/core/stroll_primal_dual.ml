module Cost_matrix = Ppdc_topology.Cost_matrix
module Graph = Ppdc_topology.Graph
module Union_find = Ppdc_prelude.Union_find

(* --- Goemans-Williamson moat growing on the metric completion ------- *)

type component = {
  mutable active : bool;
  mutable potential : float;  (* prize money left to spend on growth *)
  members : int list;
}

(* [grow ~dist ~prize ~root ~terminal nn] runs rooted PCST moat growth on
   the complete graph with [nn] nodes and returns the forest edges chosen.
   [prize.(v)] is v's prize; the root component is never active; the
   terminal has infinite prize so it keeps growing until it reaches the
   root. *)
let grow ~dist ~prize ~root nn =
  let uf = Union_find.create nn in
  let comps = Hashtbl.create nn in
  for v = 0 to nn - 1 do
    Hashtbl.replace comps v
      { active = v <> root; potential = prize.(v); members = [ v ] }
  done;
  let moat = Array.make nn 0.0 in
  (* y(v): accumulated growth of components containing v *)
  let forest = ref [] in
  let comp_of v = Hashtbl.find comps (Union_find.find uf v) in
  let finished = ref false in
  while not !finished do
    (* Find the next event across all edges and all active components. *)
    let best_delta = ref infinity in
    let best_event = ref `None in
    for u = 0 to nn - 1 do
      for v = u + 1 to nn - 1 do
        if not (Union_find.same uf u v) then begin
          let cu = comp_of u and cv = comp_of v in
          let speed =
            (if cu.active then 1.0 else 0.0) +. if cv.active then 1.0 else 0.0
          in
          if speed > 0.0 then begin
            let slack = dist.(u).(v) -. moat.(u) -. moat.(v) in
            let delta = Float.max 0.0 (slack /. speed) in
            if delta < !best_delta then begin
              best_delta := delta;
              best_event := `Edge (u, v)
            end
          end
        end
      done
    done;
    Hashtbl.iter
      (fun r c ->
        if Union_find.find uf r = r && c.active && c.potential < !best_delta
        then begin
          best_delta := c.potential;
          best_event := `Deactivate r
        end)
      comps;
    match !best_event with
    | `None -> finished := true
    | event ->
        let delta = !best_delta in
        (* Advance time: charge every active component and its members. *)
        Hashtbl.iter
          (fun r c ->
            if Union_find.find uf r = r && c.active then begin
              c.potential <- c.potential -. delta;
              List.iter (fun v -> moat.(v) <- moat.(v) +. delta) c.members
            end)
          comps;
        (match event with
        | `Edge (u, v) ->
            forest := (u, v) :: !forest;
            let ru = Union_find.find uf u and rv = Union_find.find uf v in
            let cu = Hashtbl.find comps ru and cv = Hashtbl.find comps rv in
            let merged = Union_find.union uf ru rv in
            let c = {
              active = not (Union_find.same uf merged root);
              potential = cu.potential +. cv.potential;
              members = List.rev_append cu.members cv.members;
            }
            in
            Hashtbl.remove comps ru;
            Hashtbl.remove comps rv;
            Hashtbl.replace comps merged c
        | `Deactivate r -> (Hashtbl.find comps r).active <- false
        | `None -> ());
        (* Stop when nothing is active anymore. *)
        let any_active = ref false in
        Hashtbl.iter
          (fun r c ->
            if Union_find.find uf r = r && c.active then any_active := true)
          comps;
        if not !any_active then finished := true
  done;
  !forest

(* --- tree utilities -------------------------------------------------- *)

let tree_adjacency nn edges =
  let adj = Array.make nn [] in
  List.iter
    (fun (u, v) ->
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    edges;
  adj

(* Connected component of [root] in the forest. *)
let reachable nn edges root =
  let adj = tree_adjacency nn edges in
  let seen = Array.make nn false in
  let rec visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter visit adj.(v)
    end
  in
  visit root;
  seen

(* Lagrangian prune: repeatedly drop a leaf (other than the protected
   nodes) whose connecting edge costs more than its prize. *)
let prune ~dist ~prize ~keep nn edges =
  let edges = ref edges in
  let changed = ref true in
  while !changed do
    changed := false;
    let degree = Array.make nn 0 in
    List.iter
      (fun (u, v) ->
        degree.(u) <- degree.(u) + 1;
        degree.(v) <- degree.(v) + 1)
      !edges;
    let survives (u, v) =
      let leaf_drop leaf other =
        degree.(leaf) = 1 && (not keep.(leaf)) && dist.(leaf).(other) > prize.(leaf)
      in
      if leaf_drop u v || leaf_drop v u then begin
        changed := true;
        false
      end
      else true
    in
    edges := List.filter survives !edges
  done;
  !edges

(* Euler-style preorder of the tree from [src], visiting the child whose
   subtree contains [dst] last so the stroll naturally ends near dst. *)
let preorder ~adj ~src ~dst nn =
  let contains_dst = Array.make nn false in
  let visited = Array.make nn false in
  let rec mark v =
    visited.(v) <- true;
    let found = ref (v = dst) in
    List.iter
      (fun u ->
        if not visited.(u) then begin
          mark u;
          if contains_dst.(u) then found := true
        end)
      adj.(v);
    contains_dst.(v) <- !found
  in
  mark src;
  Array.fill visited 0 nn false;
  let order = ref [] in
  let rec walk v =
    visited.(v) <- true;
    order := v :: !order;
    let children = List.filter (fun u -> not visited.(u)) adj.(v) in
    (* Mark children visited up-front so the dst-last partition is
       stable, then recurse. *)
    let dst_side, rest = List.partition (fun u -> contains_dst.(u)) children in
    List.iter walk rest;
    List.iter (fun u -> if not visited.(u) then walk u) dst_side
  in
  walk src;
  List.rev !order

(* --- public entry ----------------------------------------------------- *)

type outcome = {
  cost : float;
  switches : int array;
  tree_cost : float;
  prize : float;
  iterations : int;
}

let solve ~cm ~src ~dst ~n ?candidates () =
  let candidates =
    match candidates with
    | Some c -> Array.of_list (List.filter (fun v -> v <> src && v <> dst) (Array.to_list c))
    | None ->
        Array.of_list
          (List.filter
             (fun v -> v <> src && v <> dst)
             (Array.to_list (Graph.switches (Cost_matrix.graph cm))))
  in
  if Array.length candidates < n then
    invalid_arg "Stroll_primal_dual.solve: not enough candidates";
  if n = 0 then
    {
      cost = Cost_matrix.cost cm src dst;
      switches = [||];
      tree_cost = Cost_matrix.cost cm src dst;
      prize = 0.0;
      iterations = 0;
    }
  else begin
    (* Local node table: 0 = src, 1 = dst, 2.. = candidates. *)
    let nodes = Array.concat [ [| src; dst |]; candidates ] in
    let nn = Array.length nodes in
    let dist =
      Array.init nn (fun i ->
          Array.init nn (fun j -> Cost_matrix.cost cm nodes.(i) nodes.(j)))
    in
    let keep = Array.make nn false in
    keep.(0) <- true;
    keep.(1) <- true;
    let max_dist =
      Array.fold_left
        (fun acc row -> Array.fold_left Float.max acc row)
        0.0 dist
    in
    let counting_switches edges =
      let seen = reachable nn edges 0 in
      let count = ref 0 in
      for v = 2 to nn - 1 do
        if seen.(v) then incr count
      done;
      !count
    in
    let run prize_value =
      let prize = Array.make nn prize_value in
      prize.(0) <- 0.0;
      prize.(1) <- infinity;
      let forest = grow ~dist ~prize ~root:0 nn in
      let seen = reachable nn forest 0 in
      let tree = List.filter (fun (u, v) -> seen.(u) && seen.(v)) forest in
      prune ~dist ~prize ~keep nn tree
    in
    (* Binary search for the smallest prize spanning >= n switches. *)
    let lo = ref 0.0 and hi = ref (Float.max max_dist 1.0) in
    while counting_switches (run !hi) < n do
      hi := !hi *. 2.0
    done;
    let best_tree = ref (run !hi) in
    let best_prize = ref !hi in
    let iters = ref 0 in
    for _ = 1 to 40 do
      incr iters;
      let mid = 0.5 *. (!lo +. !hi) in
      let tree = run mid in
      if counting_switches tree >= n then begin
        hi := mid;
        best_tree := tree;
        best_prize := mid
      end
      else lo := mid
    done;
    let tree = !best_tree in
    let tree_cost =
      List.fold_left (fun acc (u, v) -> acc +. dist.(u).(v)) 0.0 tree
    in
    (* Walk: shortcut the doubled tree in preorder, dst-side last; stop
       after n distinct switches; end at dst. *)
    let adj = tree_adjacency nn tree in
    let order = preorder ~adj ~src:0 ~dst:1 nn in
    let chosen = ref [] in
    let count = ref 0 in
    List.iter
      (fun v -> if v >= 2 && !count < n then begin
          chosen := v :: !chosen;
          incr count
        end)
      order;
    let sequence = List.rev !chosen in
    let cost = ref 0.0 in
    let last = ref 0 in
    List.iter
      (fun v ->
        cost := !cost +. dist.(!last).(v);
        last := v)
      sequence;
    cost := !cost +. dist.(!last).(1);
    {
      cost = !cost;
      switches = Array.of_list (List.map (fun v -> nodes.(v)) sequence);
      tree_cost;
      prize = !best_prize;
      iterations = !iters;
    }
  end

(* --- whole-chain placement --------------------------------------------- *)

let place problem ~rates =
  let att = Cost.attach problem ~rates in
  let sw = Problem.switches problem in
  let argmin ?(exclude = -1) score =
    let best = ref (-1) in
    let best_v = ref infinity in
    Array.iter
      (fun s ->
        if s <> exclude then begin
          let v = score s in
          if Float.compare v !best_v < 0 then begin
            best := s;
            best_v := v
          end
        end)
      sw;
    !best
  in
  let n = Problem.n problem in
  if n = 1 then ([| argmin (fun s -> att.a_in.(s) +. att.a_out.(s)) |], None)
  else begin
    let p1 = argmin (fun s -> att.a_in.(s)) in
    let pn = argmin ~exclude:p1 (fun s -> att.a_out.(s)) in
    if n = 2 then ([| p1; pn |], None)
    else
      let o =
        solve ~cm:(Problem.cm problem) ~src:p1 ~dst:pn ~n:(n - 2)
          ~candidates:sw ()
      in
      (Array.concat [ [| p1 |]; o.switches; [| pn |] ], Some o)
  end
