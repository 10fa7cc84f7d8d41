(* Differential oracle for the flat (CSR + Bigarray) graph stack.

   The adjacency representation, the all-pairs storage layout, and the
   shortest-path kernel each have an independent reference here:

   - [Legacy]: the old nested [(int * float) array array] adjacency and
     a scan-minimum Dijkstra with the same tie-break discipline. The
     CSR kernel must reproduce its rows bit-for-bit, on unit, integral
     and float weights, and on graphs whose leaves (degree-1 nodes) are
     not the hosts.
   - digest: the graph digest serializes the abstract structure only,
     so it must not move when the adjacency representation does — the
     RPC server's cost-matrix cache keys depend on that.
   - solvers: Placement_dp / Placement_opt / Mpareto must be
     bit-identical at 1 and at 4 domains.
   - allocation: the kernel's loop allocates nothing per source. *)

module Graph = Ppdc_topology.Graph
module Shortest_paths = Ppdc_topology.Shortest_paths
module Cost_matrix = Ppdc_topology.Cost_matrix
module Fat_tree = Ppdc_topology.Fat_tree
module Random_topology = Ppdc_topology.Random_topology
module Rng = Ppdc_prelude.Rng
module Parallel = Ppdc_prelude.Parallel
module Workload = Ppdc_traffic.Workload
module Flow = Ppdc_traffic.Flow
open Ppdc_core

let with_domains d f =
  let prev = Parallel.domain_count () in
  Parallel.set_domains d;
  Fun.protect ~finally:(fun () -> Parallel.set_domains prev) f

(* --- the legacy oracle ---------------------------------------------------- *)

module Legacy = struct
  (* Nested adjacency, reconstructed from the abstract edge list the
     same way the pre-CSR [Graph.make] built it. *)
  type t = { n : int; adj : (int * float) list array }

  let of_graph g =
    let n = Graph.num_nodes g in
    let adj = Array.make n [] in
    List.iter
      (fun (u, v, w) ->
        adj.(u) <- (v, w) :: adj.(u);
        adj.(v) <- (u, w) :: adj.(v))
      (Graph.edges g);
    { n; adj }

  (* Scan-minimum Dijkstra — O(n²), no queue at all, so its settle
     order is transparently "smallest distance, then smallest index".
     Same relaxation discipline as the production engines: strict
     improvement rewrites dist/pred; an equal-cost candidate only pulls
     pred towards the lower-numbered predecessor while the target is
     unsettled. Identical float arithmetic (one [+.] per relaxation)
     means the rows must agree bit-for-bit, not just within epsilon. *)
  let dijkstra t ~src =
    let dist = Array.make t.n infinity in
    let pred = Array.make t.n (-1) in
    let settled = Array.make t.n false in
    dist.(src) <- 0.0;
    pred.(src) <- src;
    let continue = ref true in
    while !continue do
      let u = ref (-1) in
      for v = 0 to t.n - 1 do
        if
          (not settled.(v))
          && Float.is_finite dist.(v)
          && (!u = -1 || dist.(v) < dist.(!u))
        then u := v
      done;
      if !u = -1 then continue := false
      else begin
        let u = !u in
        settled.(u) <- true;
        List.iter
          (fun (v, w) ->
            let candidate = dist.(u) +. w in
            if candidate < dist.(v) then begin
              dist.(v) <- candidate;
              pred.(v) <- u
            end
            else if
              Float.equal candidate dist.(v)
              && (not settled.(v))
              && u < pred.(v)
            then pred.(v) <- u)
          t.adj.(u)
      end
    done;
    (dist, pred)
end

(* --- graph structure parity ----------------------------------------------- *)

let sorted_neighbors l =
  List.sort compare (List.map (fun (v, w) -> (v, Int64.bits_of_float w)) l)

(* Unit, small-integral or float link weights, a third each. *)
let random_graph seed =
  let rng = Rng.create seed in
  let rt =
    Random_topology.build
      ?weight:
        (match Rng.int rng 3 with
        | 0 -> None
        | 1 -> Some (fun () -> float_of_int (1 + Rng.int rng 7))
        | _ -> Some (fun () -> Rng.uniform rng ~lo:0.25 ~hi:4.0))
      ~rng
      ~num_switches:(3 + Rng.int rng 10)
      ~extra_edges:(Rng.int rng 12)
      ~hosts_per_switch:(1 + Rng.int rng 3)
      ()
  in
  rt.graph

let prop_csr_matches_nested_adjacency =
  QCheck.Test.make ~name:"CSR adjacency = nested-list adjacency" ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let g = random_graph seed in
      let legacy = Legacy.of_graph g in
      let ok = ref true in
      for u = 0 to Graph.num_nodes g - 1 do
        let csr = ref [] in
        Graph.iter_neighbors g u (fun v w -> csr := (v, w) :: !csr);
        if sorted_neighbors !csr <> sorted_neighbors legacy.adj.(u) then
          ok := false;
        if Graph.degree g u <> List.length legacy.adj.(u) then ok := false
      done;
      !ok)

let test_digest_known_value () =
  (* Captured before the CSR refactor; the digest is a function of the
     abstract structure and must never move with the representation
     (the RPC server's LRU is keyed by it). *)
  let ft = Fat_tree.build 4 in
  Alcotest.(check string) "k=4 fat-tree digest frozen"
    "6dfc41f3ad6d4a864b9fb1c23a372841"
    (Graph.digest ft.graph)

let prop_digest_matches_reference_serialization =
  (* Recompute the documented serialization from the abstract accessors
     only — independent of any internal layout. *)
  QCheck.Test.make ~name:"digest = hash of canonical serialization" ~count:50
    QCheck.(int_bound 100_000)
    (fun seed ->
      let g = random_graph seed in
      let b = Buffer.create 256 in
      Buffer.add_string b "ppdc.graph/1|";
      Buffer.add_string b (string_of_int (Graph.num_nodes g));
      Buffer.add_char b '|';
      for v = 0 to Graph.num_nodes g - 1 do
        Buffer.add_char b (if Graph.is_host g v then 'h' else 's')
      done;
      List.iter
        (fun (u, v, w) ->
          Buffer.add_string b
            (Printf.sprintf "|%d,%d,%Ld" u v (Int64.bits_of_float w)))
        (List.sort compare
           (List.map
              (fun (u, v, w) -> (min u v, max u v, w))
              (Graph.edges g)));
      Digest.to_hex (Digest.string (Buffer.contents b)) = Graph.digest g)

(* --- shortest-path parity -------------------------------------------------- *)

let rows_equal ~n (dist_a, pred_a) (dist_b, pred_b) =
  let ok = ref true in
  for v = 0 to n - 1 do
    if Int64.bits_of_float dist_a.(v) <> Int64.bits_of_float dist_b.(v) then
      ok := false;
    if pred_a.(v) <> pred_b.(v) then ok := false
  done;
  !ok

let prop_dijkstra_matches_legacy =
  QCheck.Test.make ~name:"CSR dijkstra rows = legacy oracle rows (bit-exact)"
    ~count:75
    QCheck.(int_bound 100_000)
    (fun seed ->
      let g = random_graph seed in
      let legacy = Legacy.of_graph g in
      let n = Graph.num_nodes g in
      let ok = ref true in
      for src = 0 to n - 1 do
        let reference = Legacy.dijkstra legacy ~src in
        if not (rows_equal ~n (Shortest_paths.dijkstra g ~src) reference) then
          ok := false
      done;
      !ok)

let matrices_bit_equal a b =
  let n = Cost_matrix.num_nodes a in
  let ok = ref (Cost_matrix.num_nodes b = n) in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      (* [path] walks pred, and every node's parent lies on its own
         path, so equal paths mean equal predecessor rows. *)
      if
        Int64.bits_of_float (Cost_matrix.cost a src dst)
        <> Int64.bits_of_float (Cost_matrix.cost b src dst)
        || Cost_matrix.path a ~src ~dst <> Cost_matrix.path b ~src ~dst
      then ok := false
    done
  done;
  !ok

(* Graphs built directly with [Graph.make] whose degree-1 nodes are not
   the hosts: hosts homed on 1–3 switches (a multi-homed host is no
   leaf), pendant switches (a switch can be one), and now and then the
   two-node graph. Node ids are shuffled so the lowest-numbered-
   predecessor ties fall every way. The kernel settles leaves at their
   first relaxation, so a leaf test by node kind instead of degree
   settles multi-homed hosts too early and breaks these rows. *)
let leafy_graph ?levels seed =
  let rng = Rng.create seed in
  let unit_weights = Rng.int rng 2 = 0 in
  let weight () =
    match levels with
    | Some levels -> levels.(Rng.int rng (Array.length levels))
    | None -> if unit_weights then 1.0 else Rng.uniform rng ~lo:0.25 ~hi:4.0
  in
  if Rng.int rng 8 = 0 then
    let other = if Rng.int rng 2 = 0 then Graph.Host else Graph.Switch in
    Graph.make ~kinds:[| Graph.Switch; other |] ~edges:[ (0, 1, weight ()) ]
  else begin
    let core = 2 + Rng.int rng 6 in
    let pendants = Rng.int rng 3 in
    let hosts = 1 + Rng.int rng 6 in
    let n = core + pendants + hosts in
    let id = Array.init n Fun.id in
    Rng.shuffle rng id;
    let edges = Hashtbl.create 32 in
    let add a b =
      let key = (min id.(a) id.(b), max id.(a) id.(b)) in
      if not (Hashtbl.mem edges key) then Hashtbl.add edges key (weight ())
    in
    for c = 1 to core - 1 do
      add c (Rng.int rng c)
    done;
    for _ = 1 to Rng.int rng (core + 1) do
      let a = Rng.int rng core and b = Rng.int rng core in
      if a <> b then add a b
    done;
    for p = core to core + pendants - 1 do
      add p (Rng.int rng core)
    done;
    for h = core + pendants to n - 1 do
      for _ = 1 to 1 + Rng.int rng 3 do
        add h (Rng.int rng core)
      done
    done;
    let kinds = Array.make n Graph.Switch in
    for h = core + pendants to n - 1 do
      kinds.(id.(h)) <- Graph.Host
    done;
    Graph.make ~kinds
      ~edges:
        (List.sort compare
           (Hashtbl.fold (fun (a, b) w acc -> (a, b, w) :: acc) edges []))
  end

let connected n edges =
  let uf = Ppdc_prelude.Union_find.create n in
  List.iter
    (fun (a, b, _) -> ignore (Ppdc_prelude.Union_find.union uf a b))
    edges;
  Ppdc_prelude.Union_find.count_sets uf = 1

let prop_leaf_rule =
  QCheck.Test.make
    ~name:
      "leaf rule: rows = legacy, repair = cold compute (multi-homed hosts, \
       pendant switches)"
    ~count:300
    QCheck.(int_bound 100_000)
    (fun seed ->
      let g = leafy_graph seed in
      let n = Graph.num_nodes g in
      let legacy = Legacy.of_graph g in
      for src = 0 to n - 1 do
        if
          not
            (rows_equal ~n (Shortest_paths.dijkstra g ~src)
               (Legacy.dijkstra legacy ~src))
        then QCheck.Test.fail_reportf "row %d differs from the oracle" src
      done;
      (* Delete a few edges (keeping the graph connected), then restore
         some of them at fresh weights; each step is repaired from the
         previous matrix and must equal a cold compute. *)
      let rng = Rng.create (seed + 1) in
      let kinds = Array.init n (Graph.kind g) in
      let deleted = ref [] in
      let edges =
        List.fold_left
          (fun edges e ->
            let rest = List.filter (fun e' -> e' <> e) edges in
            if
              List.length !deleted < 3 && Rng.int rng 3 = 0 && connected n rest
            then begin
              deleted := e :: !deleted;
              rest
            end
            else edges)
          (Graph.edges g) (Graph.edges g)
      in
      let restored =
        List.filter_map
          (fun (a, b, w) ->
            if Rng.int rng 2 = 0 then None
            else Some (a, b, if Rng.int rng 2 = 0 then w else w *. 0.75))
          !deleted
      in
      let step cm g' =
        match Cost_matrix.repair_to cm g' with
        | None -> QCheck.Test.fail_report "repair_to refused an edge delta"
        | Some (cm', _) ->
            if not (matrices_bit_equal cm' (Cost_matrix.compute g')) then
              QCheck.Test.fail_report "repair differs from a cold compute";
            cm'
      in
      let cm = Cost_matrix.compute g in
      let g1 = Graph.make ~kinds ~edges in
      let g2 = Graph.make ~kinds ~edges:(restored @ edges) in
      ignore (step (step cm g1) g2);
      true)

(* --- the leaf-factored matrix against dense rows ------------------------- *)

(* Graphs whose leaves share classes and whose do not: leafy graphs
   (pendant switches, multi-homed hosts, the two-node graph) with free
   or three-level weights, and k=4 fat-trees with three-level weights,
   where hosts under one edge switch share a class row or sit in
   different ones. *)
let factored_graph seed =
  let levels = [| 0.5; 1.25; 2.0 |] in
  match seed mod 3 with
  | 0 -> leafy_graph seed
  | 1 -> leafy_graph ~levels seed
  | _ ->
      let rng = Rng.create seed in
      (Fat_tree.build ~weight:(fun _ _ -> levels.(Rng.int rng 3)) 4).graph

let prop_factored_matches_oracle =
  QCheck.Test.make
    ~name:"factored cost/path/switch_path/hop_count = oracle's dense rows"
    ~count:150
    QCheck.(int_bound 100_000)
    (fun seed ->
      let g = factored_graph seed in
      let n = Graph.num_nodes g in
      let legacy = Legacy.of_graph g in
      let cm = Cost_matrix.compute g in
      for src = 0 to n - 1 do
        let dist, pred = Legacy.dijkstra legacy ~src in
        for dst = 0 to n - 1 do
          let path =
            Option.get (Shortest_paths.path_from_pred ~pred ~src ~dst ())
          in
          if
            Int64.bits_of_float (Cost_matrix.cost cm src dst)
            <> Int64.bits_of_float dist.(dst)
          then QCheck.Test.fail_reportf "cost %d %d differs" src dst;
          if Cost_matrix.path cm ~src ~dst <> path then
            QCheck.Test.fail_reportf "path %d %d differs" src dst;
          if
            Cost_matrix.switch_path cm ~src ~dst
            <> List.filter (Graph.is_switch g) path
          then QCheck.Test.fail_reportf "switch_path %d %d differs" src dst;
          if Cost_matrix.hop_count cm ~src ~dst <> List.length path - 1 then
            QCheck.Test.fail_reportf "hop_count %d %d differs" src dst
        done
      done;
      true)

(* [diameter] reads the stored rows once; it must equal the brute-force
   maximum over [cost], which a leaf paired with itself would exceed. *)
let prop_diameter_brute_force =
  QCheck.Test.make ~name:"diameter = max over all pairs of cost" ~count:150
    QCheck.(int_bound 100_000)
    (fun seed ->
      let g = factored_graph seed in
      let cm = Cost_matrix.compute g in
      let n = Graph.num_nodes g in
      let brute = ref 0.0 in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          brute := Float.max !brute (Cost_matrix.cost cm u v)
        done
      done;
      Int64.equal
        (Int64.bits_of_float (Cost_matrix.diameter cm))
        (Int64.bits_of_float !brute))

(* The kernel's loop allocates nothing: a weighted k=8 build and two
   repairs stay under 16 minor words per node (a heap that boxes its
   float priorities costs about 1,000 per row). [Gc.minor_words]
   counts the calling domain only, hence one domain. *)
let test_kernel_allocates_nothing () =
  with_domains 1 (fun () ->
      let ft = Fat_tree.build_weighted ~rng:(Rng.create 1) 8 in
      let g = ft.graph in
      let n = Graph.num_nodes g in
      let per_source f =
        let before = Gc.minor_words () in
        let r = f () in
        ((Gc.minor_words () -. before) /. float_of_int n, r)
      in
      let cm = Cost_matrix.compute g (* sizes this domain's scratch *) in
      (* 80 switch rows and one class row per host: no two host links
         share a weight. *)
      Alcotest.(check int) "stored rows" (80 + 128) (Cost_matrix.num_rows cm);
      let words, _ = per_source (fun () -> Cost_matrix.compute g) in
      if words >= 16.0 then
        Alcotest.failf "compute: %.1f minor words per source" words;
      let repair name g' check_rows =
        let words, repaired =
          per_source (fun () -> Cost_matrix.repair_to cm g')
        in
        (match repaired with
        | Some (_, rows) -> check_rows rows
        | None -> Alcotest.failf "repair_to refused %s" name);
        if words >= 16.0 then
          Alcotest.failf "repair_to (%s): %.1f minor words per source" name
            words
      in
      (* A cheaper host link moves the host to a class of its own: only
         that class row runs. *)
      let h = ft.hosts.(0) in
      repair "a host link"
        (Graph.map_weights g (fun a b w ->
             if a = h || b = h then w /. 2.0 else w))
        (Alcotest.(check int) "one class row re-ran" 1);
      (* Cheaper uplinks at one pod's aggregation switches shorten paths
         between that pod and every other one. *)
      let pod = Array.sub ft.aggregation 0 4 in
      repair "core links"
        (Graph.map_weights g (fun a b w ->
             if Array.mem a pod || Array.mem b pod then w /. 2.0 else w))
        (fun rows ->
          if 2 * rows < Cost_matrix.num_rows cm then
            Alcotest.failf "core links: %d of %d rows re-ran" rows
              (Cost_matrix.num_rows cm)))

(* [Cost.comm_cost] reads the stored rows in index loops: no float is
   boxed per flow (one boxed cost per flow costs over 800 words per
   call here). *)
let test_comm_cost_allocates_nothing () =
  with_domains 1 (fun () ->
      let ft = Fat_tree.build_weighted ~rng:(Rng.create 1) 8 in
      let cm = Cost_matrix.compute ft.graph in
      let rng = Rng.create 3 in
      let flows = Workload.generate_on_fat_tree ~rng ~l:100 ft in
      let problem = Problem.make ~cm ~flows ~n:5 () in
      let rates = Flow.base_rates flows in
      let p =
        [|
          ft.core.(0); ft.core.(1); ft.aggregation.(0); ft.edge.(0); ft.edge.(3);
        |]
      in
      ignore (Cost.comm_cost problem ~rates p);
      let calls = 100 in
      let before = Gc.minor_words () in
      for _ = 1 to calls do
        ignore (Sys.opaque_identity (Cost.comm_cost problem ~rates p))
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int calls in
      if words >= 8.0 then
        Alcotest.failf "comm_cost: %.1f minor words per call" words)

(* --- solver parity across domain counts ----------------------------------- *)

type solver_bundle = {
  dp : Placement_dp.outcome;
  opt : Placement_opt.outcome;
  mp : Mpareto.outcome;
}

let solve_bundle ~domains =
  with_domains domains (fun () ->
      let ft = Fat_tree.build 4 in
      let cm = Cost_matrix.compute ft.graph in
      let rng = Rng.create 11 in
      let flows = Workload.generate_on_fat_tree ~rng ~l:10 ft in
      let problem = Problem.make ~cm ~flows ~n:3 () in
      let rates = Flow.base_rates flows in
      let dp = Placement_dp.solve problem ~rates () in
      let opt = Placement_opt.solve problem ~rates () in
      let mp =
        Mpareto.migrate problem ~rates ~mu:50.0 ~current:dp.placement ()
      in
      { dp; opt; mp })

let check_bundles name a b =
  Alcotest.(check (array int)) (name ^ " dp placement") a.dp.placement
    b.dp.placement;
  Alcotest.(check (float 0.0)) (name ^ " dp cost") a.dp.cost b.dp.cost;
  Alcotest.(check (float 0.0))
    (name ^ " dp objective") a.dp.objective b.dp.objective;
  Alcotest.(check (array int)) (name ^ " opt placement") a.opt.placement
    b.opt.placement;
  Alcotest.(check (float 0.0)) (name ^ " opt cost") a.opt.cost b.opt.cost;
  Alcotest.(check (array int)) (name ^ " mpareto migration") a.mp.migration
    b.mp.migration;
  Alcotest.(check (float 0.0))
    (name ^ " mpareto total") a.mp.total_cost b.mp.total_cost;
  Alcotest.(check (float 0.0))
    (name ^ " mpareto migration cost") a.mp.migration_cost b.mp.migration_cost;
  Alcotest.(check (float 0.0))
    (name ^ " mpareto comm cost") a.mp.comm_cost b.mp.comm_cost;
  Alcotest.(check int) (name ^ " mpareto moved") a.mp.moved b.mp.moved

let test_solvers_engine_parity () =
  check_bundles "1-vs-4-domains" (solve_bundle ~domains:1)
    (solve_bundle ~domains:4)

let qsuite name tests =
  (name, List.map (fun t -> QCheck_alcotest.to_alcotest t) tests)

let () =
  Alcotest.run "ppdc_flatgraph"
    [
      qsuite "adjacency" [ prop_csr_matches_nested_adjacency ];
      ( "digest",
        [
          Alcotest.test_case "frozen k=4 value" `Quick test_digest_known_value;
        ] );
      qsuite "digest-properties" [ prop_digest_matches_reference_serialization ];
      ( "engines",
        [
          Alcotest.test_case "solver outcomes independent of engine/domains"
            `Quick test_solvers_engine_parity;
          Alcotest.test_case "kernel allocates nothing per source" `Quick
            test_kernel_allocates_nothing;
          Alcotest.test_case "comm_cost allocates nothing per flow" `Quick
            test_comm_cost_allocates_nothing;
        ] );
      qsuite "engine-properties"
        [ prop_dijkstra_matches_legacy; prop_leaf_rule ];
      qsuite "factored"
        [ prop_factored_matches_oracle; prop_diameter_brute_force ];
    ]
