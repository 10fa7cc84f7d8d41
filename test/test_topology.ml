module Graph = Ppdc_topology.Graph
module Fat_tree = Ppdc_topology.Fat_tree
module Linear = Ppdc_topology.Linear
module Random_topology = Ppdc_topology.Random_topology
module Shortest_paths = Ppdc_topology.Shortest_paths
module Cost_matrix = Ppdc_topology.Cost_matrix
module Rng = Ppdc_prelude.Rng

(* --- graph ------------------------------------------------------------- *)

let tiny_graph () =
  (* switches 0,1,2 in a triangle with uneven weights, host 3 at switch 0,
     host 4 at switch 2. *)
  Graph.make
    ~kinds:[| Switch; Switch; Switch; Host; Host |]
    ~edges:[ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 5.0); (0, 3, 1.0); (2, 4, 1.0) ]

let tiny_edges = [ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 5.0); (0, 3, 1.0); (2, 4, 1.0) ]
let tiny_kinds () =
  [| Graph.Switch; Graph.Switch; Graph.Switch; Graph.Host; Graph.Host |]

let test_digest_edge_order_independent () =
  let g1 = Graph.make ~kinds:(tiny_kinds ()) ~edges:tiny_edges in
  let g2 = Graph.make ~kinds:(tiny_kinds ()) ~edges:(List.rev tiny_edges) in
  let g3 =
    Graph.make ~kinds:(tiny_kinds ())
      ~edges:(List.map (fun (u, v, w) -> (v, u, w)) tiny_edges)
  in
  Alcotest.(check string) "reversed edge list" (Graph.digest g1)
    (Graph.digest g2);
  Alcotest.(check string) "flipped endpoints" (Graph.digest g1)
    (Graph.digest g3);
  Alcotest.(check string) "deterministic across builds" (Graph.digest g1)
    (Graph.digest (Graph.make ~kinds:(tiny_kinds ()) ~edges:tiny_edges))

let test_digest_sensitive_to_structure () =
  let digest_with edges =
    Graph.digest (Graph.make ~kinds:(tiny_kinds ()) ~edges)
  in
  let base = digest_with tiny_edges in
  let heavier =
    digest_with
      (List.map
         (fun (u, v, w) -> if u = 0 && v = 2 then (u, v, w +. 0.5) else (u, v, w))
         tiny_edges)
  in
  let sparser =
    digest_with (List.filter (fun (u, v, _) -> not (u = 0 && v = 2)) tiny_edges)
  in
  Alcotest.(check bool) "single weight edit changes digest" false
    (String.equal base heavier);
  Alcotest.(check bool) "edge removal changes digest" false
    (String.equal base sparser);
  Alcotest.(check bool) "weight edit and removal differ" false
    (String.equal heavier sparser)

let test_graph_counts () =
  let g = tiny_graph () in
  Alcotest.(check int) "nodes" 5 (Graph.num_nodes g);
  Alcotest.(check int) "edges" 5 (Graph.num_edges g);
  Alcotest.(check int) "hosts" 2 (Graph.num_hosts g);
  Alcotest.(check int) "switches" 3 (Graph.num_switches g);
  Alcotest.(check int) "degree of 0" 3 (Graph.degree g 0)

let test_graph_edge_weight () =
  let g = tiny_graph () in
  Alcotest.(check (option (float 0.0))) "existing" (Some 5.0)
    (Graph.edge_weight g 0 2);
  Alcotest.(check (option (float 0.0))) "symmetric" (Some 5.0)
    (Graph.edge_weight g 2 0);
  Alcotest.(check (option (float 0.0))) "missing" None (Graph.edge_weight g 1 3)

let test_graph_rejections () =
  let kinds = [| Graph.Switch; Graph.Host; Graph.Host |] in
  let reject name edges =
    Alcotest.(check bool) name true
      (try
         ignore (Graph.make ~kinds ~edges);
         false
       with Invalid_argument _ -> true)
  in
  reject "self loop" [ (0, 0, 1.0) ];
  reject "host-host edge" [ (1, 2, 1.0) ];
  reject "zero weight" [ (0, 1, 0.0) ];
  reject "duplicate edge" [ (0, 1, 1.0); (1, 0, 2.0) ];
  reject "out of range" [ (0, 7, 1.0) ]

let test_graph_map_weights () =
  let g = tiny_graph () in
  let doubled = Graph.map_weights g (fun _ _ w -> 2.0 *. w) in
  Alcotest.(check (option (float 0.0))) "doubled" (Some 10.0)
    (Graph.edge_weight doubled 0 2)

(* --- fat tree ---------------------------------------------------------- *)

let test_fat_tree_sizes () =
  List.iter
    (fun k ->
      let ft = Fat_tree.build k in
      Alcotest.(check int)
        (Printf.sprintf "k=%d hosts" k)
        (k * k * k / 4)
        (Graph.num_hosts ft.graph);
      Alcotest.(check int)
        (Printf.sprintf "k=%d switches" k)
        (5 * k * k / 4)
        (Graph.num_switches ft.graph);
      (* Edge count: (k/2)^2 * k core links + (k/2)^2 * k agg-edge links +
         k^3/4 host links. *)
      Alcotest.(check int)
        (Printf.sprintf "k=%d edges" k)
        ((k * k * k / 4) + (k * k * k / 4) + (k * k * k / 4))
        (Graph.num_edges ft.graph))
    [ 2; 4; 8 ]

let test_fat_tree_k2_is_fig1_linear () =
  (* The paper notes its k=2 fat-tree is the Fig. 1 linear PPDC: 5 switches
     in a path, hosts at both ends. *)
  let ft = Fat_tree.build 2 in
  let cm = Cost_matrix.compute ft.graph in
  let h1 = ft.hosts.(0) and h2 = ft.hosts.(1) in
  Alcotest.(check (float 0.0)) "host-host distance 6" 6.0
    (Cost_matrix.cost cm h1 h2)

let test_fat_tree_host_structure () =
  let ft = Fat_tree.build 4 in
  Alcotest.(check int) "16 hosts" 16 (Array.length ft.hosts);
  Alcotest.(check int) "8 racks" 8 (Fat_tree.num_racks ft);
  Array.iter
    (fun h ->
      let rack = Fat_tree.rack_of_host ft h in
      let esw = Fat_tree.edge_switch_of_host ft h in
      Alcotest.(check bool) "host adjacent to its edge switch" true
        (Graph.edge_weight ft.graph h esw <> None);
      Alcotest.(check bool) "host listed in its rack" true
        (Array.exists (( = ) h) (Fat_tree.hosts_of_rack ft rack)))
    ft.hosts

let test_fat_tree_pods () =
  let ft = Fat_tree.build 4 in
  (* Hosts 0,1 share rack 0 in pod 0; the last host lives in pod 3. *)
  Alcotest.(check int) "pod of first host" 0 (Fat_tree.pod_of_host ft ft.hosts.(0));
  Alcotest.(check int) "pod of last host" 3
    (Fat_tree.pod_of_host ft ft.hosts.(15))

let test_fat_tree_distances () =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let same_rack = Cost_matrix.cost cm ft.hosts.(0) ft.hosts.(1) in
  let same_pod = Cost_matrix.cost cm ft.hosts.(0) ft.hosts.(2) in
  let cross_pod = Cost_matrix.cost cm ft.hosts.(0) ft.hosts.(15) in
  Alcotest.(check (float 0.0)) "same rack = 2 hops" 2.0 same_rack;
  Alcotest.(check (float 0.0)) "same pod = 4 hops" 4.0 same_pod;
  Alcotest.(check (float 0.0)) "cross pod = 6 hops" 6.0 cross_pod

let test_fat_tree_rejects_odd_k () =
  Alcotest.(check bool) "odd k" true
    (try
       ignore (Fat_tree.build 3);
       false
     with Invalid_argument _ -> true)

(* The weighted recipe draws from one split of the caller's stream, so
   the caller's later draws (the flows) match a plain split, and every
   delay lies in the uniform draw's range. *)
let test_fat_tree_weighted () =
  let rng = Rng.create 7 and twin = Rng.create 7 in
  let ft = Fat_tree.build_weighted ~rng 8 in
  ignore (Rng.split twin);
  Alcotest.(check int64) "advanced by exactly one split" (Rng.bits64 twin)
    (Rng.bits64 rng);
  let lo = 1.5 -. sqrt 1.5 and hi = 1.5 +. sqrt 1.5 in
  let weights = List.map (fun (_, _, w) -> w) (Graph.edges ft.graph) in
  Alcotest.(check int) "one delay per link" (Graph.num_edges ft.graph)
    (List.length weights);
  List.iter
    (fun w ->
      if Float.compare w lo < 0 || Float.compare w hi > 0 then
        Alcotest.failf "delay %g outside [%g, %g]" w lo hi)
    weights;
  Alcotest.(check bool) "delays vary" true
    (List.exists (fun w -> not (Float.equal w (List.hd weights))) weights)

(* --- linear ------------------------------------------------------------ *)

let test_linear_structure () =
  let lin = Linear.build ~num_switches:5 in
  Alcotest.(check int) "5 switches" 5 (Graph.num_switches lin.graph);
  Alcotest.(check int) "2 hosts" 2 (Graph.num_hosts lin.graph);
  let cm = Cost_matrix.compute lin.graph in
  Alcotest.(check (float 0.0)) "end-to-end = 6" 6.0
    (Cost_matrix.cost cm lin.hosts.(0) lin.hosts.(1))

(* --- leaf-spine --------------------------------------------------------- *)

let test_leaf_spine_structure () =
  let ls =
    Ppdc_topology.Leaf_spine.build ~spines:4 ~leaves:6 ~hosts_per_leaf:3 ()
  in
  Alcotest.(check int) "switches" 10 (Graph.num_switches ls.graph);
  Alcotest.(check int) "hosts" 18 (Graph.num_hosts ls.graph);
  Alcotest.(check int) "links" ((4 * 6) + 18) (Graph.num_edges ls.graph);
  let cm = Cost_matrix.compute ls.graph in
  (* Same-rack hosts are 2 apart, cross-rack exactly 4. *)
  Alcotest.(check (float 0.0)) "same rack" 2.0
    (Cost_matrix.cost cm ls.hosts.(0) ls.hosts.(1));
  Alcotest.(check (float 0.0)) "cross rack" 4.0
    (Cost_matrix.cost cm ls.hosts.(0) ls.hosts.(17));
  (* Spines are 2 hops from every host. *)
  Array.iter
    (fun h ->
      Alcotest.(check (float 0.0)) "spine equidistance" 2.0
        (Cost_matrix.cost cm ls.spines.(0) h))
    ls.hosts

let test_leaf_spine_host_mapping () =
  let ls =
    Ppdc_topology.Leaf_spine.build ~spines:2 ~leaves:3 ~hosts_per_leaf:2 ()
  in
  Array.iteri
    (fun i h ->
      let leaf = Ppdc_topology.Leaf_spine.leaf_of_host ls h in
      Alcotest.(check int) "leaf by index" ls.leaves.(i / 2) leaf;
      Alcotest.(check bool) "host adjacent to its leaf" true
        (Graph.edge_weight ls.graph h leaf <> None))
    ls.hosts;
  Alcotest.(check bool) "rejects counts < 1" true
    (try
       ignore (Ppdc_topology.Leaf_spine.build ~spines:0 ~leaves:1 ~hosts_per_leaf:1 ());
       false
     with Invalid_argument _ -> true)

(* --- random topology ---------------------------------------------------- *)

let test_random_topology_connected () =
  for seed = 1 to 5 do
    let rng = Rng.create seed in
    let rt =
      Random_topology.build ~rng ~num_switches:30 ~extra_edges:20
        ~hosts_per_switch:2 ()
    in
    Alcotest.(check int) "hosts" 60 (Graph.num_hosts rt.graph);
    (* compute raises if disconnected *)
    ignore (Cost_matrix.compute rt.graph)
  done

let test_random_topology_deterministic () =
  let build seed =
    let rng = Rng.create seed in
    (Random_topology.build ~rng ~num_switches:10 ~extra_edges:5
       ~hosts_per_switch:1 ())
      .graph |> Graph.edges
  in
  Alcotest.(check bool) "same seed, same graph" true (build 3 = build 3);
  Alcotest.(check bool) "different seed differs" true (build 3 <> build 4)

(* --- shortest paths ------------------------------------------------------ *)

let test_dijkstra_simple () =
  let g = tiny_graph () in
  let dist, pred = Shortest_paths.dijkstra g ~src:0 in
  Alcotest.(check (float 0.0)) "to self" 0.0 dist.(0);
  Alcotest.(check (float 0.0)) "around the heavy edge" 2.0 dist.(2);
  Alcotest.(check (option (list int))) "path avoids the weight-5 edge"
    (Some [ 0; 1; 2 ])
    (Shortest_paths.path_from_pred ~pred ~src:0 ~dst:2 ())

(* Regression: an edge weight small enough to vanish in float addition
   ([d +. w = d]) makes a node settle at the same priority as its own
   ancestor. Without the settled guard on the equal-cost tie-break, the
   late settler rewrites the already-settled ancestor's predecessor —
   here pred(1) became 0 while pred(0) = 1, a cycle that sent path
   extraction into an infinite loop. *)
let test_dijkstra_settled_guard () =
  let g =
    Graph.make
      ~kinds:[| Host; Switch; Switch; Host |]
      ~edges:[ (1, 3, 1.0); (0, 1, 1e-300) ]
  in
  let dist, pred = Shortest_paths.dijkstra g ~src:3 in
  Alcotest.(check (float 0.0)) "src" 0.0 dist.(3);
  Alcotest.(check (float 0.0)) "one hop" 1.0 dist.(1);
  Alcotest.(check (float 0.0)) "tiny edge vanishes in the sum" 1.0 dist.(0);
  Alcotest.(check bool) "isolated node unreachable" true
    (Float.equal dist.(2) infinity);
  (* Every pred chain must reach the source within n steps; checked
     BEFORE any path extraction so a reintroduced cycle fails the test
     instead of hanging it. *)
  let n = Graph.num_nodes g in
  for v = 0 to n - 1 do
    if pred.(v) <> -1 then begin
      let current = ref v and steps = ref 0 in
      while !current <> 3 && !steps <= n do
        current := pred.(!current);
        incr steps
      done;
      Alcotest.(check bool) "pred chain reaches the source" true (!steps <= n)
    end
  done;
  Alcotest.(check int) "pred of 1 frozen at settlement" 3 pred.(1);
  Alcotest.(check (option (list int))) "path through the tiny edge"
    (Some [ 3; 1; 0 ])
    (Shortest_paths.path_from_pred ~pred ~src:3 ~dst:0 ());
  Alcotest.(check (option (list int))) "unreachable destination is None" None
    (Shortest_paths.path_from_pred ~pred ~src:3 ~dst:2 ())

let test_cost_matrix_metric_properties () =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let n = Cost_matrix.num_nodes cm in
  for u = 0 to n - 1 do
    Alcotest.(check (float 0.0)) "identity" 0.0 (Cost_matrix.cost cm u u)
  done;
  let rng = Rng.create 9 in
  for _ = 1 to 200 do
    let u = Rng.int rng n and v = Rng.int rng n and w = Rng.int rng n in
    let d a b = Cost_matrix.cost cm a b in
    Alcotest.(check (float 1e-9)) "symmetry" (d u v) (d v u);
    Alcotest.(check bool) "triangle inequality" true
      (d u w <= d u v +. d v w +. 1e-9)
  done

let test_cost_matrix_paths_consistent () =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let rng = Rng.create 13 in
  let n = Cost_matrix.num_nodes cm in
  for _ = 1 to 100 do
    let u = Rng.int rng n and v = Rng.int rng n in
    let p = Cost_matrix.path cm ~src:u ~dst:v in
    (* Path endpoints and length match the cost (unit weights). *)
    (match p with
    | [] -> Alcotest.fail "connected graph must give a path"
    | first :: _ ->
        Alcotest.(check int) "starts at src" u first;
        Alcotest.(check int) "ends at dst" v (List.nth p (List.length p - 1)));
    Alcotest.(check (float 1e-9)) "hop count = cost on unit weights"
      (Cost_matrix.cost cm u v)
      (float_of_int (List.length p - 1))
  done

let test_cost_matrix_switch_path () =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let sp =
    Cost_matrix.switch_path cm ~src:ft.hosts.(0) ~dst:ft.hosts.(15)
  in
  Alcotest.(check int) "cross-pod switch path has 5 switches" 5
    (List.length sp);
  List.iter
    (fun v ->
      Alcotest.(check bool) "all switches" true (Graph.is_switch ft.graph v))
    sp

let test_diameter () =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  Alcotest.(check (float 0.0)) "k=4 fat-tree diameter (host to host)" 6.0
    (Cost_matrix.diameter cm)

let test_disconnected_rejected () =
  let g =
    Graph.make
      ~kinds:[| Switch; Switch; Host |]
      ~edges:[ (0, 2, 1.0) ]
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Cost_matrix.compute g);
       false
     with Invalid_argument _ -> true)

(* Predecessor rows hold 16-bit ids, so the kernel and the matrix refuse
   a graph one node past [max_nodes] before allocating a row: every node
   of a ring is core, and the rows of a 32,768-node ring would be 8.6 GB
   of distances alone, so this test finishing in milliseconds shows the
   refusal comes first. A star of pendant switches has a one-node core
   and builds at once; chaining its leaves makes all 32,768 core, which
   [repair_to] must refuse the same way. Just inside the bound, the
   largest ids round-trip through a 16-bit row. *)
let test_node_bound () =
  let limit = Shortest_paths.max_nodes in
  Alcotest.(check int) "the bound" 32_767 limit;
  let graph n edges = Graph.make ~kinds:(Array.make n Graph.Switch) ~edges in
  let ring n = graph n (List.init n (fun i -> (i, (i + 1) mod n, 1.0))) in
  let star = List.init limit (fun i -> (0, i + 1, 1.0)) in
  (* [by]: the module that must refuse, so a refusal the kernel makes
     only after [Cost_matrix] has allocated its rows fails the test. *)
  let refused what ~by f =
    match f () with
    | () -> Alcotest.failf "%s accepted %d nodes" what (limit + 1)
    | exception Invalid_argument msg ->
        let has needle =
          let n = String.length needle in
          let rec go i =
            i + n <= String.length msg
            && (String.equal (String.sub msg i n) needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s names the limit in %S" what by msg)
          true
          (String.starts_with ~prefix:by msg && has "32767")
  in
  let big = ring (limit + 1) in
  refused "dijkstra" ~by:"Shortest_paths" (fun () ->
      ignore (Shortest_paths.dijkstra big ~src:0));
  refused "compute" ~by:"Cost_matrix" (fun () ->
      ignore (Cost_matrix.compute big));
  let cm = Cost_matrix.compute (graph (limit + 1) star) in
  Alcotest.(check int) "a star's rows: its hub and one leaf class" 2
    (Cost_matrix.num_rows cm);
  let chained =
    graph (limit + 1)
      (star @ List.init (limit - 1) (fun i -> (i + 1, i + 2, 1.0)))
  in
  refused "repair_to" ~by:"Cost_matrix" (fun () ->
      ignore (Cost_matrix.repair_to cm chained));
  let dist, pred = Shortest_paths.dijkstra (ring limit) ~src:0 in
  Alcotest.(check int) "the last node hangs off the source" 0 pred.(limit - 1);
  Alcotest.(check int) "the largest id is a predecessor" (limit - 1)
    pred.(limit - 2);
  Alcotest.(check (float 0.0)) "halfway round" 16383.0 dist.(limit / 2)

let prop_dijkstra_tree_consistent =
  QCheck.Test.make ~name:"dijkstra distances obey edge relaxations" ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let rt =
        Random_topology.build
          ~weight:(fun () -> Rng.uniform rng ~lo:0.5 ~hi:3.0)
          ~rng ~num_switches:15 ~extra_edges:10 ~hosts_per_switch:1 ()
      in
      let dist, _ = Shortest_paths.dijkstra rt.graph ~src:0 in
      let ok = ref true in
      List.iter
        (fun (u, v, w) ->
          if dist.(v) > dist.(u) +. w +. 1e-9 then ok := false;
          if dist.(u) > dist.(v) +. w +. 1e-9 then ok := false)
        (Graph.edges rt.graph);
      !ok)

let prop_path_cost_matches_dist =
  QCheck.Test.make ~name:"extracted path cost equals dijkstra distance"
    ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let rt =
        Random_topology.build
          ~weight:(fun () -> Rng.uniform rng ~lo:0.5 ~hi:3.0)
          ~rng ~num_switches:12 ~extra_edges:8 ~hosts_per_switch:2 ()
      in
      let g = rt.graph in
      let n = Graph.num_nodes g in
      let src = Rng.int rng n in
      let dist, pred = Shortest_paths.dijkstra g ~src in
      let ok = ref true in
      for dst = 0 to n - 1 do
        match Shortest_paths.path_from_pred ~pred ~src ~dst () with
        | None -> ok := false (* the builder always yields connected graphs *)
        | Some p ->
            let rec walk_cost = function
              | a :: (b :: _ as rest) -> (
                  match Graph.edge_weight g a b with
                  | Some w -> w +. walk_cost rest
                  | None -> infinity (* consecutive nodes must share an edge *))
              | _ -> 0.0
            in
            if Float.abs (walk_cost p -. dist.(dst)) > 1e-9 then ok := false
      done;
      !ok)

(* --- dot export ----------------------------------------------------------- *)

let test_dot_export () =
  let g = tiny_graph () in
  let dot = Ppdc_topology.Dot.of_graph g in
  Alcotest.(check bool) "document shape" true
    (String.length dot > 0
    && String.sub dot 0 11 = "graph ppdc "
    && dot.[String.length dot - 2] = '}');
  let contains needle =
    let nl = String.length needle and dl = String.length dot in
    let rec go i = i + nl <= dl && (String.sub dot i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "switch labelled s0" true (contains "label=\"s0\"");
  Alcotest.(check bool) "host labelled h0" true (contains "label=\"h0\"");
  Alcotest.(check bool) "weighted edge labelled" true (contains "[label=\"5\"]");
  Alcotest.(check bool) "five edges" true
    (List.length (String.split_on_char '-' dot) > 5)

let qsuite name tests = (name, List.map (fun t -> QCheck_alcotest.to_alcotest t) tests)

let () =
  Alcotest.run "ppdc_topology"
    [
      ( "graph",
        [
          Alcotest.test_case "counts" `Quick test_graph_counts;
          Alcotest.test_case "edge weights" `Quick test_graph_edge_weight;
          Alcotest.test_case "invalid inputs rejected" `Quick
            test_graph_rejections;
          Alcotest.test_case "map_weights" `Quick test_graph_map_weights;
        ] );
      ( "digest",
        [
          Alcotest.test_case "insertion-order independent" `Quick
            test_digest_edge_order_independent;
          Alcotest.test_case "structure-sensitive" `Quick
            test_digest_sensitive_to_structure;
        ] );
      ( "fat-tree",
        [
          Alcotest.test_case "node and edge counts" `Quick test_fat_tree_sizes;
          Alcotest.test_case "k=2 equals Fig. 1's linear PPDC" `Quick
            test_fat_tree_k2_is_fig1_linear;
          Alcotest.test_case "host/rack structure" `Quick
            test_fat_tree_host_structure;
          Alcotest.test_case "pod indexing" `Quick test_fat_tree_pods;
          Alcotest.test_case "hop distances" `Quick test_fat_tree_distances;
          Alcotest.test_case "odd k rejected" `Quick test_fat_tree_rejects_odd_k;
          Alcotest.test_case "weighted recipe" `Quick
            test_fat_tree_weighted;
        ] );
      ( "linear",
        [
          Alcotest.test_case "Fig. 1 chain" `Quick test_linear_structure;
        ] );
      ( "leaf-spine",
        [
          Alcotest.test_case "structure and distances" `Quick
            test_leaf_spine_structure;
          Alcotest.test_case "host/leaf mapping" `Quick
            test_leaf_spine_host_mapping;
        ] );
      ( "random-topology",
        [
          Alcotest.test_case "always connected" `Quick
            test_random_topology_connected;
          Alcotest.test_case "seed-deterministic" `Quick
            test_random_topology_deterministic;
        ] );
      ( "shortest-paths",
        [
          Alcotest.test_case "dijkstra picks the cheap detour" `Quick
            test_dijkstra_simple;
          Alcotest.test_case "tie-break frozen at settlement (pred cycle)"
            `Quick test_dijkstra_settled_guard;
          Alcotest.test_case "metric: identity/symmetry/triangle" `Quick
            test_cost_matrix_metric_properties;
          Alcotest.test_case "extracted paths match costs" `Quick
            test_cost_matrix_paths_consistent;
          Alcotest.test_case "switch-only paths" `Quick
            test_cost_matrix_switch_path;
          Alcotest.test_case "diameter" `Quick test_diameter;
          Alcotest.test_case "disconnected graphs rejected" `Quick
            test_disconnected_rejected;
          Alcotest.test_case "16-bit predecessor bound" `Quick
            test_node_bound;
        ] );
      ( "dot",
        [ Alcotest.test_case "graphviz export" `Quick test_dot_export ] );
      qsuite "shortest-paths-properties"
        [ prop_dijkstra_tree_consistent; prop_path_cost_matches_dist ];
    ]
