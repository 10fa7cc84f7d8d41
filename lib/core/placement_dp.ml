module Parallel = Ppdc_prelude.Parallel
module Obs = Ppdc_prelude.Obs
module Mutexes = Ppdc_prelude.Mutexes
module Cost_matrix = Ppdc_topology.Cost_matrix

(* Lock classes of the per-fabric pair table (DESIGN.md §4k). The memo
   lock guards the matrix -> variants table and is held only for a
   lookup or insert; a variant's fill lock is held while its missing
   rows are built. A fill never runs under the memo lock. *)
[@@@ppdc.lock_order "placement_dp.fill placement_dp.memo"]

let stroll_workspace = Domain.DLS.new_key Stroll_dp.workspace

type outcome = {
  placement : Placement.t;
  cost : float;
  objective : float;
}

(* The k switches with the smallest (float) key. Monomorphic on purpose:
   a polymorphic [compare] here would silently misorder NaN keys — the
   generalized-helper variant of the Stats.percentile bug that ppdc-lint
   R1 cannot see through instantiation. *)
let top_k (keys : float array) switches k =
  let sorted = Array.copy switches in
  Array.sort
    (fun a b ->
      match Float.compare keys.(a) keys.(b) with
      | 0 -> Int.compare a b
      | c -> c)
    sorted;
  if k >= Array.length sorted then sorted else Array.sub sorted 0 k

let solve_n1 (att : Cost.attach) switches =
  let best = ref infinity and best_switch = ref (-1) in
  Array.iter
    (fun s ->
      let value = att.a_in.(s) +. att.a_out.(s) in
      if value < !best then begin
        best := value;
        best_switch := s
      end)
    switches;
  { placement = [| !best_switch |]; cost = !best; objective = !best }

let solve_n2 problem att ingresses egresses =
  let best = ref infinity and best_pair = ref (-1, -1) in
  let tried = ref 0 in
  Array.iter
    (fun s ->
      Array.iter
        (fun t ->
          if s <> t then begin
            incr tried;
            let value =
              att.Cost.a_in.(s)
              +. (att.Cost.total_rate *. Problem.cost problem s t)
              +. att.Cost.a_out.(t)
            in
            if value < !best then begin
              best := value;
              best_pair := (s, t)
            end
          end)
        egresses)
    ingresses;
  Obs.incr ~by:!tried "placement_dp.pairs_tried";
  if Float.equal !best infinity then
    invalid_arg
      "Placement_dp.solve: no feasible ingress/egress pair (widen pair_limit)";
  let s, t = !best_pair in
  { placement = [| s; t |]; cost = !best; objective = !best }

(* --- per-fabric pair table ---------------------------------------------- *)

(* Algo. 2's answer for one (egress, ingress) pair depends on the cost
   matrix, the candidate switches and n — never on the rates. A [pairs]
   value stores those answers for one such variant: the stroll cost and
   the n−2 middles (as candidate indices) of every pair, egress-major,
   in off-heap rows filled one egress at a time. *)
type pairs = {
  candidates : int array;  (* the instance's switches, in instance order *)
  n : int;
  slot : int array;  (* node -> candidate index, -1 off the candidates *)
  (* Per candidate: its row offset, column and leaf weight in the
     matrix's stored rows ([Cost_matrix.rows]), for [scan]'s rescore. *)
  base : int array;
  col : int array;
  leaf : float array;
  stroll : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (* [stroll.{e * m + i}]: cost of the stroll from ingress i to
         egress e (m = number of candidates) *)
  row_min : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (* [row_min.{e}]: the smallest stroll cost in egress row e, over
         every ingress i <> e; [scan]'s row bound *)
  middles :
    (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (* [middles.{(e * m + i) * (n - 2) + j}]: candidate index of the
         pair's j-th middle switch *)
  built : Bytes.t;  (* per egress row: '\001' once filled; under [fill] *)
  fill : Mutex.t; [@ppdc.guards "placement_dp.fill"]
}

let create_pairs cm ~candidates ~n =
  let m = Array.length candidates and k = n - 2 in
  if m > 65536 then
    invalid_arg
      (Printf.sprintf
         "Placement_dp.solve: %d candidate switches exceed the pair \
          table's 65536"
         m);
  let slot = Array.make (Cost_matrix.num_nodes cm) (-1) in
  Array.iteri (fun i s -> slot.(s) <- i) candidates;
  let r = Cost_matrix.rows cm in
  let leaf = Array.make m 0.0 in
  Array.iteri (fun i s -> leaf.(i) <- r.leaf.(s)) candidates;
  let open Bigarray in
  {
    candidates;
    n;
    slot;
    base = Array.map (fun s -> r.base.(s)) candidates;
    col = Array.map (fun s -> r.col.(s)) candidates;
    leaf;
    stroll = Array1.create float64 c_layout (max 1 (m * m));
    row_min = Array1.create float64 c_layout (max 1 m);
    middles = Array1.create int16_unsigned c_layout (max 1 (m * m * k));
    built = Bytes.make m '\000';
    fill = Mutex.create ();
  }

(* Keyed by the matrix's identity: the ephemeron holds the matrix
   weakly, so a matrix's tables die with it. *)
module Memo = Ephemeron.K1.Make (struct
  type t = Cost_matrix.t

  let equal = ( == )
  let hash = Cost_matrix.id
end)

let memo : pairs list Memo.t = Memo.create 16
[@@ppdc.domain_safe "read and written only under memo_mutex"]

let memo_mutex = Mutex.create () [@@ppdc.guards "placement_dp.memo"]

(* Variants kept per matrix, most recently used first. *)
let variants_per_matrix = 4

let pairs_for cm ~candidates ~n =
  Mutexes.with_lock memo_mutex (fun () ->
      let variants = Option.value (Memo.find_opt memo cm) ~default:[] in
      match
        List.find_opt (fun p -> p.n = n && p.candidates = candidates) variants
      with
      | Some p ->
          if not (p == List.hd variants) then
            Memo.replace memo cm (p :: List.filter (fun q -> q != p) variants);
          p
      | None ->
          let p = create_pairs cm ~candidates ~n in
          let kept = List.filteri (fun i _ -> i < variants_per_matrix - 1) in
          Memo.replace memo cm (p :: kept variants);
          p)
[@@ppdc.domain_safe
  "memo_mutex is a leaf: held only for one table lookup or insert, never \
   across user code or another lock"]

(* Build the rows of the egresses in [missing] (candidate indices), one
   Stroll_dp table per egress answering every ingress — Algo. 3's
   per-egress fan-out, in parallel over the per-domain workspaces. Each
   task writes only its own egress's rows. *)
let fill_rows p ~cm missing =
  let m = Array.length p.candidates and k = p.n - 2 in
  Parallel.parallel_for (Array.length missing) (fun row ->
      let e = missing.(row) in
      let egress = p.candidates.(e) in
      let table =
        Stroll_dp.prepare_in
          (Domain.DLS.get stroll_workspace)
          ~cm ~dst:egress ~candidates:p.candidates ~extras:[||]
      in
      let row_min = ref infinity in
      for i = 0 to m - 1 do
        if i <> e then begin
          let ingress = p.candidates.(i) in
          let (r : Stroll_dp.result) =
            match Stroll_dp.query table ~src:ingress ~n:k () with
            | Some r -> r
            | None ->
                (* Edge budget exhausted for this pair: greedy filler so
                   the pair still competes. *)
                let eligible =
                  Array.of_list
                    (List.filter
                       (fun v -> v <> ingress && v <> egress)
                       (Array.to_list p.candidates))
                in
                Stroll_dp.nearest_neighbour ~cm ~src:ingress ~dst:egress ~n:k
                  ~eligible
          in
          let pair = (e * m) + i in
          p.stroll.{pair} <- r.cost;
          if r.cost < !row_min then row_min := r.cost;
          for j = 0 to k - 1 do
            p.middles.{(pair * k) + j} <- p.slot.(r.switches.(j))
          done
        end
      done;
      p.row_min.{e} <- !row_min)

(* One request fills a variant's missing rows while any other request
   needing them waits on [fill], then finds them built. Rows are marked
   only after the whole fill returns, so a fill that raises marks none. *)
let ensure_rows p ~cm egresses =
  Mutexes.with_lock p.fill (fun () ->
      let missing =
        Array.of_list
          (List.filter
             (fun e -> Bytes.get p.built e = '\000')
             (Array.to_list egresses))
      in
      if Array.length missing > 0 then begin
        fill_rows p ~cm missing;
        Array.iter (fun e -> Bytes.set p.built e '\001') missing
      end)
[@@ppdc.domain_safe
  "the fill lock is per variant and held only while its rows are built; \
   the fill takes no lock but the scheduler's and Obs's own, and a fill \
   started inside a Parallel task fans out sequentially on its own \
   domain, so a task waiting here never holds up the filler"]

(* Ordered pairs (i, e), i <> e, of distinct candidate indices:
   |I|·|E| − |I ∩ E|. *)
let pairs_in ~m ingresses egresses =
  let is_ingress = Bytes.make m '\000' in
  Array.iter (fun i -> Bytes.set is_ingress i '\001') ingresses;
  let both = ref 0 in
  Array.iter
    (fun e -> if Bytes.get is_ingress e = '\001' then incr both)
    egresses;
  (Array.length ingresses * Array.length egresses) - !both

(* Algo. 3's pair selection over filled rows: per egress, the first
   ingress with a strictly smaller key, then the per-egress winners in
   egress order with the same strict [<] — the order and comparisons of
   the parallel per-egress scan, so the winner is bit-identical.

   Row bound (DESIGN.md §4k). Without [rescore] every key in egress row
   [e] is [A_in(i) +. (Λ *. stroll) +. A_out(e)], and
   [min_in +. (Λ *. row_min.{e}) +. A_out(e)] — the same expression and
   operand order, no operand larger — is at most each of them: every
   operand is non-negative and none is NaN (rates are finite and
   non-negative, strolls finite and positive), and IEEE rounding is
   monotone. A row whose bound is already [>=] the best key holds no
   strictly smaller key, so skipping it changes neither the winner nor
   its objective. [rescore]'s key is the recomputed chain cost, which
   the stored stroll does not bound, so it scans every row. *)
let scan problem (att : Cost.attach) p ~rescore ~ingresses ~egresses =
  let m = Array.length p.candidates and k = p.n - 2 in
  let cand = p.candidates in
  let dist = (Cost_matrix.rows (Problem.cm problem)).dist in
  (* [Cost.chain_cost] of the pair's placement, summed in its order, on
     candidate indices; c(u, u) = 0. *)
  let chain_cost ~i ~pair ~e =
    let acc = ref 0.0 and prev = ref i in
    for j = 0 to k - 1 do
      let v = p.middles.{(pair * k) + j} in
      acc :=
        !acc
        +. (if !prev = v then 0.0
            else dist.{p.base.(!prev) + p.col.(v)} +. p.leaf.(v));
      prev := v
    done;
    !acc
    +.
    if !prev = e then 0.0
    else dist.{p.base.(!prev) + p.col.(e)} +. p.leaf.(e)
  in
  let lambda = att.total_rate in
  (* A_in in ingress order, gathered once, and its minimum. *)
  let ni = Array.length ingresses in
  let in_cost = Array.make ni 0.0 and min_in = ref infinity in
  for ii = 0 to ni - 1 do
    let v = att.a_in.(cand.(ingresses.(ii))) in
    in_cost.(ii) <- v;
    if v < !min_in then min_in := v
  done;
  let best_key = ref infinity and best_pair = ref (-1) in
  let best_objective = ref infinity in
  let pruned = ref 0 in
  for ei = 0 to Array.length egresses - 1 do
    let e = egresses.(ei) in
    let a_out = att.a_out.(cand.(e)) in
    if
      (not rescore) && !best_pair >= 0
      && !min_in +. (lambda *. p.row_min.{e}) +. a_out >= !best_key
    then incr pruned
    else begin
      let row = e * m in
      let local_key = ref infinity and local_pair = ref (-1) in
      let local_objective = ref infinity in
      (* Unchecked reads: [ii < ni], the length of [ingresses] and
         [in_cost], and a candidate index [i < m] keeps [row + i] inside
         the filled row [e]. *)
      for ii = 0 to ni - 1 do
        let i = Array.unsafe_get ingresses ii in
        if i <> e then begin
          let pair = row + i in
          let a_in = Array.unsafe_get in_cost ii in
          let objective =
            a_in
            +. (lambda *. Bigarray.Array1.unsafe_get p.stroll pair)
            +. a_out
          in
          let key =
            if rescore then a_in +. (lambda *. chain_cost ~i ~pair ~e) +. a_out
            else objective
          in
          if !local_pair < 0 || not (key >= !local_key) then begin
            local_key := key;
            local_pair := pair;
            local_objective := objective
          end
        end
      done;
      if !local_pair >= 0 && (!best_pair < 0 || not (!local_key >= !best_key))
      then begin
        best_key := !local_key;
        best_pair := !local_pair;
        best_objective := !local_objective
      end
    end
  done;
  if Obs.enabled () then begin
    let tried = pairs_in ~m ingresses egresses in
    if tried > 0 then Obs.incr ~by:tried "placement_dp.pairs_tried";
    if !pruned > 0 then Obs.incr ~by:!pruned "placement_dp.rows_pruned"
  end;
  if !best_pair < 0 then
    invalid_arg "Placement_dp.solve: no feasible ingress/egress pair";
  let pair = !best_pair in
  let placement =
    Array.init p.n (fun j ->
        if j = 0 then cand.(pair mod m)
        else if j = p.n - 1 then cand.(pair / m)
        else cand.(p.middles.{(pair * k) + j - 1}))
  in
  {
    placement;
    cost = Cost.comm_cost_with_attach problem att placement;
    objective = !best_objective;
  }

let check_pair_limit = function
  | Some k when k < 1 ->
      invalid_arg
        (Printf.sprintf "Placement_dp.solve: pair_limit must be >= 1, got %d"
           k)
  | _ -> ()

let select problem att ~rescore ~pair_limit =
  let switches = Problem.switches problem in
  let n = Problem.n problem in
  let ingresses, egresses =
    match pair_limit with
    | None -> (switches, switches)
    | Some k -> (top_k att.Cost.a_in switches k, top_k att.a_out switches k)
  in
  if n = 1 then solve_n1 att switches
  else if n = 2 then solve_n2 problem att ingresses egresses
  else begin
    let cm = Problem.cm problem in
    if Array.length switches < n then
      invalid_arg
        (Printf.sprintf
           "Placement_dp.solve: chain of %d VNFs needs %d candidate \
            switches, have %d"
           n n (Array.length switches));
    let p = pairs_for cm ~candidates:switches ~n in
    let slots nodes = Array.map (fun s -> p.slot.(s)) nodes in
    let ingresses = slots ingresses and egresses = slots egresses in
    ensure_rows p ~cm egresses;
    scan problem att p ~rescore ~ingresses ~egresses
  end

let solve_attached problem att ?pair_limit () =
  check_pair_limit pair_limit;
  Obs.time "placement_dp.solve" @@ fun () ->
  select problem att ~rescore:false ~pair_limit

let solve problem ~rates ?(rescore = false) ?pair_limit () =
  check_pair_limit pair_limit;
  Obs.time "placement_dp.solve" @@ fun () ->
  select problem (Cost.attach problem ~rates) ~rescore ~pair_limit
