(* Differential suite for dynamic APSP repair (Cost_matrix.repair_to,
   the one way to derive a matrix from a changed fabric).

   The oracle is the full recompute: after any sequence of edge
   deletions, weight increases, decreases, and edge restores, the
   repaired matrix must be bit-identical — dist by IEEE bit pattern,
   pred exactly — to a cold [Cost_matrix.compute] on the current
   graph. The repair's whole claim is that
   unaffected rows need no work — trees that avoided a
   deleted/increased edge, sources for which a relaxed edge is not
   competitive; these tests are what keeps that claim honest. *)

module Graph = Ppdc_topology.Graph
module Cost_matrix = Ppdc_topology.Cost_matrix
module Fat_tree = Ppdc_topology.Fat_tree
module Random_topology = Ppdc_topology.Random_topology
module Failures = Ppdc_extensions.Failures
module Rng = Ppdc_prelude.Rng
module Parallel = Ppdc_prelude.Parallel

let with_domains d f =
  let prev = Parallel.domain_count () in
  Parallel.set_domains d;
  Fun.protect ~finally:(fun () -> Parallel.set_domains prev) f

(* --- helpers ----------------------------------------------------------- *)

let matrices_bit_equal a b =
  let n = Cost_matrix.num_nodes a in
  if Cost_matrix.num_nodes b <> n then false
  else begin
    let ok = ref true in
    (* pred is not exported raw; extracted paths are a faithful witness
       of the whole predecessor tree (every node's parent appears on
       some path), and [path] walks pred directly. *)
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        if
          Int64.bits_of_float (Cost_matrix.cost a src dst)
          <> Int64.bits_of_float (Cost_matrix.cost b src dst)
          || Cost_matrix.path a ~src ~dst <> Cost_matrix.path b ~src ~dst
        then ok := false
      done
    done;
    !ok
  end

let kinds_of g = Array.init (Graph.num_nodes g) (Graph.kind g)

let connected_without_edge g (u, v) =
  let uf = Ppdc_prelude.Union_find.create (Graph.num_nodes g) in
  List.iter
    (fun (a, b, _) ->
      if not ((a = u && b = v) || (a = v && b = u)) then
        ignore (Ppdc_prelude.Union_find.union uf a b))
    (Graph.edges g);
  Ppdc_prelude.Union_find.count_sets uf = 1

let random_graph seed =
  let rng = Rng.create seed in
  let weighted = Rng.int rng 2 = 0 in
  let rt =
    Random_topology.build
      ?weight:
        (if weighted then Some (fun () -> Rng.uniform rng ~lo:0.25 ~hi:4.0)
         else None)
      ~rng
      ~num_switches:(3 + Rng.int rng 8)
      ~extra_edges:(Rng.int rng 10)
      ~hosts_per_switch:(1 + Rng.int rng 3)
      ()
  in
  rt.graph

(* Single-edge graph edits, on canonical ([u < v]) endpoints. *)
let without g (u, v) =
  Graph.make ~kinds:(kinds_of g)
    ~edges:(List.filter (fun (a, b, _) -> not (a = u && b = v)) (Graph.edges g))

let with_edge g (u, v, w) =
  Graph.make ~kinds:(kinds_of g) ~edges:((u, v, w) :: Graph.edges g)

let reweight g (u, v) weight =
  Graph.map_weights g (fun a b w -> if a = u && b = v then weight else w)

let repair cm g' =
  match Cost_matrix.repair_to cm g' with
  | Some (cm', _) -> cm'
  | None -> Alcotest.fail "repair_to refused an edge-level delta"

(* --- the qcheck differential property ---------------------------------- *)

(* Random graph, then a random sequence of single-edge edits — a
   deletion, a weight increase, a weight decrease, or a
   delete-then-restore pair — each derived by [repair_to] from the
   previous matrix; at every step the result must be bit-equal to a
   cold compute on the edited graph. Deletions that would disconnect
   the graph are skipped (repair would — correctly — raise, as compute
   does; that contract has its own test below). *)
let prop_repair_matches_cold_compute =
  QCheck.Test.make ~name:"repaired matrix = cold compute (bit-exact)"
    ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create (seed + 7919) in
      let cm = ref (Cost_matrix.compute (random_graph seed)) in
      let steps = 2 + Rng.int rng 4 in
      let ok = ref true in
      let apply g' =
        cm := repair !cm g';
        if not (matrices_bit_equal !cm (Cost_matrix.compute g')) then
          ok := false
      in
      for _ = 1 to steps do
        let g = Cost_matrix.graph !cm in
        let edges = Array.of_list (Graph.edges g) in
        let u, v, w = edges.(Rng.int rng (Array.length edges)) in
        match Rng.int rng 4 with
        | 0 when connected_without_edge g (u, v) -> apply (without g (u, v))
        | 1 ->
            let weight = w *. (1.0 +. Rng.uniform rng ~lo:0.1 ~hi:1.5) in
            apply (reweight g (u, v) weight)
        | 2 ->
            let weight = w *. Rng.uniform rng ~lo:0.2 ~hi:0.9 in
            apply (reweight g (u, v) weight)
        | _ when connected_without_edge g (u, v) ->
            (* Fail the link, then bring it back at a (possibly new)
               weight: the Link_failure/Link_repair path the event
               simulator drives. *)
            apply (without g (u, v));
            let weight =
              if Rng.int rng 2 = 0 then w
              else w *. Rng.uniform rng ~lo:0.5 ~hi:2.0
            in
            apply (with_edge (Cost_matrix.graph !cm) (u, v, weight))
        | _ -> ()
      done;
      !ok)

(* Mixed deltas through the one-shot [repair_to] entry point: diff a
   graph against a derivative with simultaneous deletions, increases,
   decreases, and an added edge. *)
let prop_repair_to_mixed_deltas =
  QCheck.Test.make ~name:"repair_to localizes mixed deltas (bit-exact)"
    ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create (seed + 4241) in
      let g = random_graph seed in
      let cm = Cost_matrix.compute g in
      (* Mutate the edge list wholesale: reweight ~a third of the edges
         in either direction, drop one droppable edge, and add a
         switch-switch edge where none exists. *)
      let edges = Graph.edges g in
      let reweighted =
        List.map
          (fun (u, v, w) ->
            match Rng.int rng 3 with
            | 0 -> (u, v, w *. Rng.uniform rng ~lo:0.3 ~hi:0.95)
            | 1 -> (u, v, w *. Rng.uniform rng ~lo:1.05 ~hi:2.0)
            | _ -> (u, v, w))
          edges
      in
      let dropped =
        match
          List.find_opt (fun (u, v, _) -> connected_without_edge g (u, v)) edges
        with
        | Some (u, v, _) ->
            List.filter (fun (a, b, _) -> not (a = u && b = v)) reweighted
        | None -> reweighted
      in
      let sw = Graph.switches g in
      let extra =
        let pair = ref None in
        Array.iter
          (fun a ->
            Array.iter
              (fun b ->
                if !pair = None && a < b && Graph.edge_weight g a b = None then
                  pair := Some (a, b))
              sw)
          sw;
        !pair
      in
      let final_edges =
        match extra with
        | Some (a, b) -> (a, b, Rng.uniform rng ~lo:0.5 ~hi:2.0) :: dropped
        | None -> dropped
      in
      let g' = Graph.make ~kinds:(kinds_of g) ~edges:final_edges in
      match Cost_matrix.repair_to cm g' with
      | None -> QCheck.Test.fail_report "repair_to refused an edge-level delta"
      | Some (repaired, _) ->
          matrices_bit_equal repaired (Cost_matrix.compute g'))

(* Same property through the [repair_to] entry point (the server's
   path): degrade with Failures.fail_links — several links at once —
   and repair from the healthy parent in one call. *)
let prop_repair_to_matches_fail_links =
  QCheck.Test.make ~name:"repair_to over fail_links = cold compute"
    ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let g = random_graph seed in
      let cm = Cost_matrix.compute g in
      let degraded, failed =
        Failures.fail_links ~rng:(Rng.create (seed + 13)) ~fraction:0.3 g
      in
      match Cost_matrix.repair_to cm degraded with
      | None -> QCheck.Test.fail_report "repair_to refused a pure deletion"
      | Some (repaired, rows) ->
          if failed = [] && rows <> 0 then
            QCheck.Test.fail_report "no failures but rows re-ran";
          matrices_bit_equal repaired (Cost_matrix.compute degraded))

(* --- unit tests -------------------------------------------------------- *)

let test_fat_tree_single_link_locality () =
  (* One failed link on a fat-tree must not re-run every row: the
     point of the affected-source characterization is locality. *)
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let degraded, failed =
    (* fraction chosen so ⌊fraction · 32 switch links⌋ = 1 *)
    Failures.fail_links ~rng:(Rng.create 5) ~fraction:0.04 ft.graph
  in
  Alcotest.(check int) "exactly one link failed" 1 (List.length failed);
  match Cost_matrix.repair_to cm degraded with
  | None -> Alcotest.fail "repair_to refused a single deletion"
  | Some (repaired, rows) ->
      let n = Cost_matrix.num_rows cm in
      Alcotest.(check bool) "some rows repaired" true (rows > 0);
      Alcotest.(check bool)
        (Printf.sprintf "locality: %d of %d rows re-ran" rows n)
        true
        (rows < n);
      Alcotest.(check bool) "bit-equal to cold compute" true
        (matrices_bit_equal repaired (Cost_matrix.compute degraded))

let test_repair_shares_storage_when_identical () =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  (* Same structure rebuilt from scratch: zero changes, zero rows. *)
  let clone = Graph.make ~kinds:(kinds_of ft.graph) ~edges:(Graph.edges ft.graph) in
  match Cost_matrix.repair_to cm clone with
  | Some (cm', 0) ->
      Alcotest.(check bool) "dist storage shared" true
        ((Cost_matrix.rows cm').dist == (Cost_matrix.rows cm).dist)
  | Some (_, rows) -> Alcotest.failf "identical graph re-ran %d rows" rows
  | None -> Alcotest.fail "identical graph judged incompatible"

let test_repair_handles_relaxing_deltas () =
  (* Edge additions and weight decreases used to be refused (ROADMAP
     item 1); they are now repaired in place via the Relax
     localization. Only a structurally different fabric is refused. *)
  let ft = Fat_tree.build 4 in
  let g = ft.graph in
  let cm = Cost_matrix.compute g in
  let kinds = kinds_of g in
  let edges = Graph.edges g in
  (* An added edge: pick two switches with no edge between them. *)
  let sw = Graph.switches g in
  let extra =
    let pair = ref None in
    Array.iter
      (fun a ->
        Array.iter
          (fun b ->
            if !pair = None && a < b && Graph.edge_weight g a b = None then
              pair := Some (a, b))
          sw)
      sw;
    Option.get !pair
  in
  let added =
    Graph.make ~kinds ~edges:((fst extra, snd extra, 1.0) :: edges)
  in
  (match Cost_matrix.repair_to cm added with
  | None -> Alcotest.fail "edge addition refused"
  | Some (repaired, _) ->
      Alcotest.(check bool) "edge addition repaired bit-exactly" true
        (matrices_bit_equal repaired (Cost_matrix.compute added)));
  (* A weight decrease. *)
  let u0, v0, w0 = List.hd edges in
  let decreased =
    Graph.make ~kinds
      ~edges:
        ((u0, v0, w0 /. 2.0)
        :: List.filter (fun (a, b, _) -> not (a = u0 && b = v0)) edges)
  in
  (match Cost_matrix.repair_to cm decreased with
  | None -> Alcotest.fail "weight decrease refused"
  | Some (repaired, _) ->
      Alcotest.(check bool) "weight decrease repaired bit-exactly" true
        (matrices_bit_equal repaired (Cost_matrix.compute decreased)));
  (* A different fabric entirely is still refused. *)
  let other = Fat_tree.build 2 in
  Alcotest.(check bool) "node-count mismatch refused" true
    (Cost_matrix.repair_to cm other.graph = None)

(* A failed link that comes back at its old weight restores the matrix
   bit for bit: the repair truly undoes the failure. *)
let test_delete_restore_round_trip () =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let u, v, w = List.hd (Graph.edges ft.graph) in
  let deleted = repair cm (without ft.graph (u, v)) in
  let restored =
    repair deleted (with_edge (Cost_matrix.graph deleted) (u, v, w))
  in
  Alcotest.(check bool) "delete;restore round-trips bit-exactly" true
    (matrices_bit_equal restored cm);
  (* And the repair is local: restoring the link at a weight longer
     than any distance gap makes it competitive for no source at all —
     the endpoint-distance test must skip every row. (At the original
     unit weight nearly every source sees an equal-cost candidate, so
     a unit fat-tree is the wrong fabric for a row-count bound.) *)
  let relaxed = with_edge (Cost_matrix.graph deleted) (u, v, 64.0) in
  match Cost_matrix.repair_to deleted relaxed with
  | None -> Alcotest.fail "long restore refused"
  | Some (long, rows) ->
      Alcotest.(check int) "irrelevant restore re-runs no rows" 0 rows;
      Alcotest.(check bool) "bit-equal to cold compute" true
        (matrices_bit_equal long (Cost_matrix.compute relaxed))

(* Deleting a host's only uplink disconnects it: repair must refuse
   like compute does. *)
let test_disconnecting_deletion_refused () =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let host = ft.hosts.(0) in
  let uplink = Fat_tree.edge_switch_of_host ft host in
  match
    Cost_matrix.repair_to cm
      (without ft.graph (min host uplink, max host uplink))
  with
  | _ -> Alcotest.fail "disconnecting deletion not rejected"
  | exception Invalid_argument _ -> ()

let reweight_host g h weight =
  Graph.map_weights g (fun a b w -> if a = h || b = h then weight else w)

(* A leaf-link weight change touches no switch row: only a class row
   that no host carries over runs. *)
let test_leaf_weight_repair () =
  let check name cm g' expected =
    match Cost_matrix.repair_to cm g' with
    | None -> Alcotest.failf "%s: refused" name
    | Some (cm', rows) ->
        Alcotest.(check int) (name ^ ": class rows re-run") expected rows;
        Alcotest.(check bool)
          (name ^ ": bit-equal to cold compute")
          true
          (matrices_bit_equal cm' (Cost_matrix.compute g'));
        cm'
  in
  (* Distinct weights: every host has a class row of its own, and a
     new weight needs a new one. *)
  let rng = Rng.create 17 in
  let ft =
    Fat_tree.build ~weight:(fun _ _ -> Rng.uniform rng ~lo:0.5 ~hi:2.5) 4
  in
  let cm = Cost_matrix.compute ft.graph in
  Alcotest.(check int)
    "20 switch rows + 16 host rows" 36 (Cost_matrix.num_rows cm);
  let h = ft.hosts.(5) in
  let w =
    Option.get
      (Graph.edge_weight ft.graph h (Fat_tree.edge_switch_of_host ft h))
  in
  ignore (check "weighted" cm (reweight_host ft.graph h (w *. 1.5)) 1);
  (* Unit weights: the two hosts of an edge switch share its class row. *)
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  Alcotest.(check int)
    "20 switch rows + 8 class rows" 28 (Cost_matrix.num_rows cm);
  let h0 = ft.hosts.(0) and h1 = ft.hosts.(1) in
  Alcotest.(check int) "hosts 0 and 1 share an edge switch"
    (Fat_tree.edge_switch_of_host ft h0) (Fat_tree.edge_switch_of_host ft h1);
  (* Host 0 leaves the shared class for a new one; host 1 keeps the old
     row. *)
  let g1 = reweight_host ft.graph h0 2.0 in
  let cm1 = check "split" cm g1 1 in
  Alcotest.(check int) "one more class" 29 (Cost_matrix.num_rows cm1);
  (* Host 1 joins host 0's class, which host 0 carries over. *)
  let g2 = reweight_host g1 h1 2.0 in
  let cm2 = check "join" cm1 g2 0 in
  Alcotest.(check int) "back to 8 classes" 28 (Cost_matrix.num_rows cm2)

(* A delta that adds or removes a leaf rebuilds cold inside
   [repair_to] and says so in its row count. *)
let test_leaf_set_change () =
  let ft = Fat_tree.build 4 in
  let g = ft.graph in
  let cm = Cost_matrix.compute g in
  let check name g' =
    match Cost_matrix.repair_to cm g' with
    | None -> Alcotest.failf "%s: refused" name
    | Some (cm', rows) ->
        Alcotest.(check int) (name ^ ": every row ran")
          (Cost_matrix.num_rows cm') rows;
        Alcotest.(check bool)
          (name ^ ": bit-equal to cold compute")
          true
          (matrices_bit_equal cm' (Cost_matrix.compute g'))
  in
  (* A second uplink makes a host multi-homed: it joins the core. *)
  let h = ft.hosts.(0) in
  let other_edge = ft.edge.(1) in
  Alcotest.(check bool) "a different edge switch" true
    (other_edge <> Fat_tree.edge_switch_of_host ft h);
  check "edge added at a leaf"
    (Graph.make ~kinds:(kinds_of g)
       ~edges:((min h other_edge, max h other_edge, 1.5) :: Graph.edges g));
  (* A core switch left with one link becomes a pendant switch: a leaf. *)
  let c = ft.core.(0) in
  let keep = ref 1 in
  check "pendant switch"
    (Graph.make ~kinds:(kinds_of g)
       ~edges:
         (List.filter
            (fun (a, b, _) ->
              if a <> c && b <> c then true
              else if !keep > 0 then begin
                decr keep;
                true
              end
              else false)
            (Graph.edges g)))

let test_parent_matrix_untouched () =
  (* The parent may still be cached under its own digest: repair must
     never mutate it. *)
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let n = Cost_matrix.num_nodes cm in
  let before =
    Array.init (n * n) (fun i -> Cost_matrix.cost cm (i / n) (i mod n))
  in
  let degraded, _ =
    Failures.fail_links ~rng:(Rng.create 5) ~fraction:0.04 ft.graph
  in
  (match Cost_matrix.repair_to cm degraded with
  | Some (_, rows) -> Alcotest.(check bool) "repaired" true (rows > 0)
  | None -> Alcotest.fail "refused");
  let ok = ref true in
  for i = 0 to (n * n) - 1 do
    if
      Int64.bits_of_float before.(i)
      <> Int64.bits_of_float (Cost_matrix.cost cm (i / n) (i mod n))
    then ok := false
  done;
  Alcotest.(check bool) "parent rows unchanged" true !ok

let test_repair_under_domains () =
  (* The affected-row fan-out goes through the same Parallel pool as
     compute; the result must not depend on the domain count. *)
  let ft = Fat_tree.build 4 in
  let degraded, _ =
    Failures.fail_links ~rng:(Rng.create 9) ~fraction:0.1 ft.graph
  in
  let repair_at d =
    with_domains d (fun () ->
        match Cost_matrix.repair_to (Cost_matrix.compute ft.graph) degraded with
        | Some (cm, _) -> cm
        | None -> Alcotest.fail "refused")
  in
  Alcotest.(check bool) "1-domain = 4-domain repair" true
    (matrices_bit_equal (repair_at 1) (repair_at 4))

let qsuite name tests =
  (name, List.map (fun t -> QCheck_alcotest.to_alcotest t) tests)

let () =
  Alcotest.run "ppdc_dynamic"
    [
      qsuite "differential"
        [
          prop_repair_matches_cold_compute;
          prop_repair_to_mixed_deltas;
          prop_repair_to_matches_fail_links;
        ];
      ( "repair",
        [
          Alcotest.test_case "single-link locality on a fat-tree" `Quick
            test_fat_tree_single_link_locality;
          Alcotest.test_case "identical graph shares storage" `Quick
            test_repair_shares_storage_when_identical;
          Alcotest.test_case "relaxing deltas repaired" `Quick
            test_repair_handles_relaxing_deltas;
          Alcotest.test_case "delete then restore round-trips" `Quick
            test_delete_restore_round_trip;
          Alcotest.test_case "disconnecting deletion refused" `Quick
            test_disconnecting_deletion_refused;
          Alcotest.test_case "leaf-weight repair re-runs class rows only"
            `Quick test_leaf_weight_repair;
          Alcotest.test_case "leaf-set change rebuilds cold" `Quick
            test_leaf_set_change;
          Alcotest.test_case "parent matrix untouched" `Quick
            test_parent_matrix_untouched;
          Alcotest.test_case "domain-count independence" `Quick
            test_repair_under_domains;
        ] );
    ]
