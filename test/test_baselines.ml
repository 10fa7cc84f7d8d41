module Fat_tree = Ppdc_topology.Fat_tree
module Cost_matrix = Ppdc_topology.Cost_matrix
module Flow = Ppdc_traffic.Flow
module Workload = Ppdc_traffic.Workload
module Rng = Ppdc_prelude.Rng
open Ppdc_core
open Ppdc_baselines

let k4_problem ~l ~n ~seed =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let rng = Rng.create seed in
  let flows = Workload.generate_on_fat_tree ~rng ~l ft in
  Problem.make ~cm ~flows ~n ()

(* --- placement baselines ----------------------------------------------- *)

let test_steering_valid_and_consistent () =
  for seed = 1 to 5 do
    let problem = k4_problem ~l:6 ~n:4 ~seed in
    let rates = Flow.base_rates (Problem.flows problem) in
    let s = Steering.place problem ~rates in
    Placement.validate problem s.placement;
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "cost is Eq.1 (seed %d)" seed)
      (Cost.comm_cost problem ~rates s.placement)
      s.cost
  done

let test_greedy_valid_and_consistent () =
  for seed = 1 to 5 do
    let problem = k4_problem ~l:6 ~n:4 ~seed in
    let rates = Flow.base_rates (Problem.flows problem) in
    let g = Greedy_liu.place problem ~rates in
    Placement.validate problem g.placement;
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "cost is Eq.1 (seed %d)" seed)
      (Cost.comm_cost problem ~rates g.placement)
      g.cost
  done

let test_dp_beats_baselines_on_average () =
  (* The paper's Fig. 9 claim in miniature: averaged over seeds, DP is at
     least as cheap as Steering and Greedy. *)
  let dp_total = ref 0.0 and steering_total = ref 0.0 and greedy_total = ref 0.0 in
  for seed = 1 to 10 do
    let problem = k4_problem ~l:10 ~n:5 ~seed in
    let rates = Flow.base_rates (Problem.flows problem) in
    dp_total := !dp_total +. (Placement_dp.solve problem ~rates ()).cost;
    steering_total := !steering_total +. (Steering.place problem ~rates).cost;
    greedy_total := !greedy_total +. (Greedy_liu.place problem ~rates).cost
  done;
  Alcotest.(check bool) "DP <= Steering on average" true
    (!dp_total <= !steering_total +. 1e-6);
  Alcotest.(check bool) "DP <= Greedy on average" true
    (!dp_total <= !greedy_total +. 1e-6)

let test_baselines_single_vnf () =
  let problem = k4_problem ~l:4 ~n:1 ~seed:2 in
  let rates = Flow.base_rates (Problem.flows problem) in
  let s = Steering.place problem ~rates in
  let opt = Placement_opt.solve problem ~rates () in
  (* With one VNF, Steering's greedy choice IS the optimum. *)
  Alcotest.(check (float 1e-6)) "steering optimal for n=1" opt.cost s.cost

(* --- VM machinery ------------------------------------------------------- *)

let test_vm_enumeration () =
  let problem = k4_problem ~l:3 ~n:2 ~seed:1 in
  let vms = Vm.all problem in
  Alcotest.(check int) "2l VMs" 6 (Array.length vms);
  let flows = Problem.flows problem in
  Array.iter
    (fun vm ->
      let h = Vm.host flows vm in
      Alcotest.(check bool) "host is a host" true
        (Ppdc_topology.Graph.is_host (Problem.graph problem) h))
    vms

let test_vm_move () =
  let problem = k4_problem ~l:3 ~n:2 ~seed:1 in
  let flows = Problem.flows problem in
  let vm = { Vm.flow = 1; endpoint = Vm.Dst } in
  let target =
    (Ppdc_topology.Graph.hosts (Problem.graph problem)).(0)
  in
  let moved = Vm.move flows ~vm ~to_host:target in
  Alcotest.(check int) "dst rehosted" target moved.(1).Flow.dst_host;
  Alcotest.(check int) "src untouched" flows.(1).Flow.src_host
    moved.(1).Flow.src_host;
  Alcotest.(check int) "other flows untouched" flows.(0).Flow.dst_host
    moved.(0).Flow.dst_host

let test_occupancy_and_capacity () =
  let problem = k4_problem ~l:8 ~n:2 ~seed:3 in
  let occ = Vm.occupancy problem (Problem.flows problem) in
  Alcotest.(check int) "total occupancy = 2l" 16 (Array.fold_left ( + ) 0 occ);
  let cap = Vm.default_capacity problem in
  Alcotest.(check bool) "initial state feasible" true
    (Array.for_all (fun o -> o <= cap) occ)

(* --- PLAN ---------------------------------------------------------------- *)

let plan_setup ~seed =
  let problem = k4_problem ~l:8 ~n:3 ~seed in
  let rates0 = Flow.base_rates (Problem.flows problem) in
  let placement = (Placement_dp.solve problem ~rates:rates0 ()).placement in
  let rng = Rng.create (seed * 31) in
  let rates = Workload.redraw_rates ~rng (Problem.flows problem) in
  (problem, placement, rates)

let test_plan_improves_or_stays () =
  for seed = 1 to 5 do
    let problem, placement, rates = plan_setup ~seed in
    let before = Cost.comm_cost problem ~rates placement in
    let out = Plan.migrate problem ~rates ~mu_vm:1.0 ~placement in
    Alcotest.(check bool)
      (Printf.sprintf "total <= staying (seed %d)" seed)
      true
      (out.total_cost <= before +. 1e-6)
  done

let test_plan_respects_capacity () =
  let problem, placement, rates = plan_setup ~seed:4 in
  let cap = Vm.default_capacity problem in
  let out = Plan.migrate problem ~rates ~mu_vm:1.0 ~placement in
  let occ = Vm.occupancy problem out.flows in
  Alcotest.(check bool) "capacity respected" true
    (Array.for_all (fun o -> o <= cap) occ)

let test_plan_huge_mu_no_moves () =
  let problem, placement, rates = plan_setup ~seed:5 in
  let out = Plan.migrate problem ~rates ~mu_vm:1e9 ~placement in
  Alcotest.(check int) "no migrations" 0 out.migrations;
  Alcotest.(check (float 1e-9)) "no migration cost" 0.0 out.migration_cost

let test_plan_cost_decomposition () =
  let problem, placement, rates = plan_setup ~seed:7 in
  let out = Plan.migrate problem ~rates ~mu_vm:1.0 ~placement in
  let moved_problem = Problem.with_flows problem out.flows in
  Alcotest.(check (float 1e-6)) "comm cost recomputes"
    (Cost.comm_cost moved_problem ~rates placement)
    out.comm_cost;
  Alcotest.(check (float 1e-6)) "total = parts"
    (out.migration_cost +. out.comm_cost)
    out.total_cost

(* --- MCF migration --------------------------------------------------------- *)

let test_mcf_improves_or_stays () =
  for seed = 1 to 5 do
    let problem, placement, rates = plan_setup ~seed in
    let before = Cost.comm_cost problem ~rates placement in
    let out = Mcf_migration.migrate problem ~rates ~mu_vm:1.0 ~placement () in
    Alcotest.(check bool)
      (Printf.sprintf "total <= staying (seed %d)" seed)
      true
      (out.total_cost <= before +. 1e-6)
  done

let test_mcf_at_least_as_good_as_plan () =
  (* MCF computes the globally optimal VM reassignment; PLAN is greedy. *)
  for seed = 1 to 5 do
    let problem, placement, rates = plan_setup ~seed in
    let plan = Plan.migrate problem ~rates ~mu_vm:1.0 ~placement in
    let mcf =
      Mcf_migration.migrate problem ~rates ~mu_vm:1.0 ~placement
        ~candidate_limit:1000 ()
    in
    Alcotest.(check bool)
      (Printf.sprintf "mcf <= plan (seed %d)" seed)
      true
      (mcf.total_cost <= plan.total_cost +. 1e-6)
  done

let test_mcf_respects_capacity () =
  let problem, placement, rates = plan_setup ~seed:9 in
  let cap = Vm.default_capacity problem in
  let out =
    Mcf_migration.migrate problem ~rates ~mu_vm:1.0 ~placement ()
  in
  let occ = Vm.occupancy problem out.flows in
  Alcotest.(check bool) "capacity respected" true
    (Array.for_all (fun o -> o <= cap) occ)

let test_mcf_huge_mu_no_moves () =
  let problem, placement, rates = plan_setup ~seed:10 in
  let out = Mcf_migration.migrate problem ~rates ~mu_vm:1e9 ~placement () in
  Alcotest.(check int) "no migrations" 0 out.migrations

(* --- NoMigration & cross-baseline ---------------------------------------- *)

let test_no_migration () =
  let problem, placement, rates = plan_setup ~seed:11 in
  let out = No_migration.evaluate problem ~rates ~placement in
  Alcotest.(check (float 1e-6)) "pure comm cost"
    (Cost.comm_cost problem ~rates placement)
    out.total_cost

let test_plan_nan_rate_rejected () =
  (* Regression for the poly-compare hazard (ppdc-lint R1): a NaN rate
     used to produce NaN utilities that the old polymorphic descending
     sort ordered arbitrarily, silently reordering the whole candidate
     list. Plan now fails loudly instead. *)
  let problem, placement, rates = plan_setup ~seed:8 in
  rates.(0) <- Float.nan;
  Alcotest.check_raises "NaN rate rejected"
    (Invalid_argument "Plan.migrate: NaN rate for flow 0") (fun () ->
      ignore (Plan.migrate problem ~rates ~mu_vm:1.0 ~placement))

let test_vnf_migration_beats_vm_migration_here () =
  (* The paper's central comparison: on average, mPareto (VNF moves)
     outperforms PLAN and MCF (VM moves) under rate churn. *)
  let mp_total = ref 0.0 and plan_total = ref 0.0 and mcf_total = ref 0.0 in
  for seed = 1 to 8 do
    let problem, placement, rates = plan_setup ~seed in
    (* Paper regime: migrating ~100 MB of VNF/VM state vs ~1 KB packets
       puts mu at 10^4. *)
    let mu = 1e4 in
    let mp = Mpareto.migrate problem ~rates ~mu ~current:placement () in
    let plan = Plan.migrate problem ~rates ~mu_vm:mu ~placement in
    let mcf = Mcf_migration.migrate problem ~rates ~mu_vm:mu ~placement () in
    mp_total := !mp_total +. mp.total_cost;
    plan_total := !plan_total +. plan.total_cost;
    mcf_total := !mcf_total +. mcf.total_cost
  done;
  Alcotest.(check bool) "mPareto <= PLAN" true (!mp_total <= !plan_total +. 1e-6);
  Alcotest.(check bool) "mPareto <= MCF" true (!mp_total <= !mcf_total +. 1e-6)

let () =
  Alcotest.run "ppdc_baselines"
    [
      ( "placement-baselines",
        [
          Alcotest.test_case "Steering validity" `Quick
            test_steering_valid_and_consistent;
          Alcotest.test_case "Greedy validity" `Quick
            test_greedy_valid_and_consistent;
          Alcotest.test_case "DP beats both on average (Fig. 9)" `Quick
            test_dp_beats_baselines_on_average;
          Alcotest.test_case "n=1 degenerates to optimal" `Quick
            test_baselines_single_vnf;
        ] );
      ( "vm",
        [
          Alcotest.test_case "enumeration" `Quick test_vm_enumeration;
          Alcotest.test_case "moves" `Quick test_vm_move;
          Alcotest.test_case "occupancy and capacity" `Quick
            test_occupancy_and_capacity;
        ] );
      ( "plan",
        [
          Alcotest.test_case "never worse than staying" `Quick
            test_plan_improves_or_stays;
          Alcotest.test_case "respects capacity" `Quick
            test_plan_respects_capacity;
          Alcotest.test_case "huge mu freezes VMs" `Quick
            test_plan_huge_mu_no_moves;
          Alcotest.test_case "NaN rate rejected (poly-compare regression)"
            `Quick test_plan_nan_rate_rejected;
          Alcotest.test_case "cost decomposition" `Quick
            test_plan_cost_decomposition;
        ] );
      ( "mcf-migration",
        [
          Alcotest.test_case "never worse than staying" `Quick
            test_mcf_improves_or_stays;
          Alcotest.test_case "at least as good as PLAN" `Quick
            test_mcf_at_least_as_good_as_plan;
          Alcotest.test_case "respects capacity" `Quick
            test_mcf_respects_capacity;
          Alcotest.test_case "huge mu freezes VMs" `Quick
            test_mcf_huge_mu_no_moves;
        ] );
      ( "cross",
        [
          Alcotest.test_case "NoMigration is pure comm cost" `Quick
            test_no_migration;
          Alcotest.test_case "VNF migration beats VM migration (Fig. 11)" `Quick
            test_vnf_migration_beats_vm_migration_here;
        ] );
    ]
