module Cost_matrix = Ppdc_topology.Cost_matrix

type bound = Chain | Stroll

type spec = {
  cm : Cost_matrix.t;
  candidates : int array;
  n : int;
  lambda : float;
  a_in : float array;
  a_out : float array;
  moves : (float * int array) option;
  bound : bound;
  budget : int;
}

type result = {
  best : int array;
  best_cost : float;
  explored : int;
  exhausted : bool;
  pruned_at_root : int;
}

(* [c(u, v)] off the stored rows, so no float crosses a call. *)
let[@inline] cost (r : Cost_matrix.rows) u v =
  if u = v then 0.0 else r.dist.{r.base.(u) + r.col.(v)} +. r.leaf.(v)

(* Read-only inputs of one search. Candidates are handled by index into
   [sp.candidates] throughout. *)
type context = {
  sp : spec;
  k : int;
  rows : Cost_matrix.rows;
  hop : float array;  (* [hop.(r) = Λ·r·δ_min] *)
  min_a_out : float;
  moves : float array array;  (* [μ·c(p(j), x_i)] at [.(j).(i)]; TOP: [||] *)
  slots : int;  (* see [slot] *)
  root : int array * float array;  (* the root's children, as [sorted] *)
}

(* The search's mutable state, threaded through the whole scan. *)
type state = {
  used : Bytes.t;
  chosen : int array;
  partial : float array;  (* [partial.(d)]: cost of [chosen.(0..d−1)] *)
  children : (int array * float array) array;
      (* per slot: the child order and each child's step cost in that
         order; slot 0 is the root, the rest are filled on first need *)
  mutable explored : int;
  mutable exhausted : bool;
  mutable pruned : int;
  mutable best_cost : float;
  mutable best : int array;
}

(* Candidate indices by ascending [key], ties to the lower switch id,
   with each child's [step] laid out in that order. *)
let sorted ids key step =
  let order = Array.init (Array.length ids) Fun.id in
  Array.sort
    (fun a b ->
      match Float.compare key.(a) key.(b) with
      | 0 -> Int.compare ids.(a) ids.(b)
      | o -> o)
    order;
  (order, Array.map (fun i -> step.(i)) order)

let context sp =
  let ids = sp.candidates in
  let k = Array.length ids in
  let rows = Cost_matrix.rows sp.cm in
  let delta_min = ref infinity in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      if i <> j then
        delta_min := Float.min !delta_min (cost rows ids.(i) ids.(j))
    done
  done;
  let delta_min = if k > 1 then !delta_min else 0.0 in
  let moves =
    match sp.moves with
    | None -> [||]
    | Some (mu, p) ->
        Array.map (fun pj -> Array.map (fun x -> mu *. cost rows pj x) ids) p
  in
  let root_key =
    if Array.length moves = 0 then sp.a_in
    else Array.mapi (fun i a -> a +. moves.(0).(i)) sp.a_in
  in
  {
    sp;
    k;
    rows;
    hop =
      Array.init sp.n (fun r -> sp.lambda *. float_of_int r *. delta_min);
    min_a_out = Array.fold_left Float.min infinity sp.a_out;
    moves;
    slots = 1 + (if Array.length moves = 0 then k else (sp.n - 1) * k);
    root = sorted ids root_key root_key;
  }

(* The cache slot of candidate [prev]'s children at [depth ≥ 1]: TOP's
   do not depend on the depth, TOM's do (through the migration leg). *)
let slot c depth prev =
  1 + prev + if Array.length c.moves = 0 then 0 else (depth - 1) * c.k

(* TOP orders the children by [c(prev, x)], not by the step
   [Λ·c(prev, x)]: products can tie where distances do not, and always
   tie at [Λ = 0]. TOM orders them by the whole step. *)
let children_after c depth prev =
  let u = c.sp.candidates.(prev) and lambda = c.sp.lambda in
  let d = Array.map (fun v -> cost c.rows u v) c.sp.candidates in
  if Array.length c.moves = 0 then
    sorted c.sp.candidates d (Array.map (fun x -> lambda *. x) d)
  else begin
    let m = c.moves.(depth) in
    let s = Array.mapi (fun i x -> (lambda *. x) +. m.(i)) d in
    sorted c.sp.candidates s s
  end

type verdict = Expand | Skip | Cut

(* The bound test of child [x], whose partial cost is [p], with [r]
   positions left after it. [Cut] rules out every later sibling too:
   children come in ascending step order and the cutoff grows with [p]
   alone. This is the one place the completion bound lives. *)
let[@inline] verdict c r x p best =
  match c.sp.bound with
  | Chain ->
      if r = 0 then
        if p +. c.min_a_out >= best then Cut
        else if p +. c.sp.a_out.(x) < best then Expand
        else Skip
      else
        let b = p +. (c.hop.(r) +. c.min_a_out) in
        if b >= best then Cut else if b < best then Expand else Skip
  | Stroll -> if p +. c.hop.(r) +. c.min_a_out >= best then Cut else Expand

let rec dfs c st depth =
  if st.explored >= c.sp.budget then st.exhausted <- true
  else begin
    st.explored <- st.explored + 1;
    let partial = st.partial.(depth) in
    if depth = c.sp.n then begin
      let total = partial +. c.sp.a_out.(st.chosen.(depth - 1)) in
      if total < st.best_cost then begin
        st.best_cost <- total;
        st.best <- Array.map (fun i -> c.sp.candidates.(i)) st.chosen
      end
    end
    else begin
      let s = if depth = 0 then 0 else slot c depth st.chosen.(depth - 1) in
      if Array.length (fst st.children.(s)) = 0 then
        st.children.(s) <- children_after c depth st.chosen.(depth - 1);
      let order, steps = st.children.(s) in
      let r = c.sp.n - depth - 1 in
      let i = ref 0 in
      while !i < Array.length order do
        let x = order.(!i) and step = steps.(!i) in
        incr i;
        if Bytes.get st.used x = '\000' then begin
          let p = partial +. step in
          match verdict c r x p st.best_cost with
          | Cut ->
              i := Array.length order;
              if depth = 0 then st.pruned <- st.pruned + 1
          | Skip -> if depth = 0 then st.pruned <- st.pruned + 1
          | Expand ->
              Bytes.set st.used x '\001';
              st.chosen.(depth) <- x;
              st.partial.(depth + 1) <- p;
              dfs c st (depth + 1);
              Bytes.set st.used x '\000';
              if st.exhausted then i := Array.length order
        end
      done
    end
  end

let run sp ~cost ~incumbent =
  let c = context sp in
  let children = Array.make c.slots ([||], [||]) in
  children.(0) <- c.root;
  let st =
    {
      used = Bytes.make c.k '\000';
      chosen = Array.make sp.n (-1);
      partial = Array.make (sp.n + 1) 0.0;
      children;
      explored = 0;
      exhausted = false;
      pruned = 0;
      best_cost = cost;
      best = Array.copy incumbent;
    }
  in
  dfs c st 0;
  {
    best = st.best;
    best_cost = st.best_cost;
    explored = st.explored;
    exhausted = st.exhausted;
    pruned_at_root = st.pruned;
  }
