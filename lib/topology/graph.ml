type node_kind = Host | Switch

(* Adjacency is a flat CSR layout: the neighbours of node [u] are
   [targets.(row_ptr.(u)) .. targets.(row_ptr.(u+1) - 1)] with parallel
   [weights]. One contiguous int array and one contiguous float array
   replace the former [(int * float) array array]: no per-node array
   headers, no tuple boxing, and the per-source Dijkstra sweep walks
   memory linearly. *)
type t = {
  kinds : node_kind array;
  row_ptr : int array;  (* length n+1; row_ptr.(n) = 2|E| *)
  targets : int array;  (* length 2|E| *)
  weights : float array;  (* length 2|E|, parallel to targets *)
  edge_list : (int * int * float) array;  (* u < v, canonically sorted *)
  host_ids : int array;
  switch_ids : int array;
}

let validate_edges kinds edges =
  let n = Array.length kinds in
  let seen = Hashtbl.create (List.length edges) in
  List.iter
    (fun (u, v, w) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg (Printf.sprintf "Graph.make: edge (%d,%d) out of range" u v);
      if u = v then invalid_arg (Printf.sprintf "Graph.make: self-loop at %d" u);
      if w <= 0.0 then
        invalid_arg (Printf.sprintf "Graph.make: non-positive weight on (%d,%d)" u v);
      if kinds.(u) = Host && kinds.(v) = Host then
        invalid_arg (Printf.sprintf "Graph.make: host-host edge (%d,%d)" u v);
      let key = (min u v, max u v) in
      if Hashtbl.mem seen key then
        invalid_arg (Printf.sprintf "Graph.make: duplicate edge (%d,%d)" u v);
      Hashtbl.add seen key ())
    edges

let make ~kinds ~edges =
  validate_edges kinds edges;
  let n = Array.length kinds in
  let deg = Array.make n 0 in
  List.iter
    (fun (u, v, _) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  let row_ptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + deg.(i)
  done;
  let m2 = row_ptr.(n) in
  let targets = Array.make m2 0 in
  let weights = Array.make m2 0.0 in
  (* [fill] tracks the next free slot of each row; filling in the order
     the edges were given reproduces the neighbour order of the former
     nested-array representation exactly. *)
  let fill = Array.copy row_ptr in
  List.iter
    (fun (u, v, w) ->
      targets.(fill.(u)) <- v;
      weights.(fill.(u)) <- w;
      fill.(u) <- fill.(u) + 1;
      targets.(fill.(v)) <- u;
      weights.(fill.(v)) <- w;
      fill.(v) <- fill.(v) + 1)
    edges;
  let edge_list =
    edges
    |> List.map (fun (u, v, w) -> if u < v then (u, v, w) else (v, u, w))
    |> List.sort (fun (u1, v1, w1) (u2, v2, w2) ->
           match Int.compare u1 u2 with
           | 0 -> (
               match Int.compare v1 v2 with
               | 0 -> Float.compare w1 w2
               | c -> c)
           | c -> c)
    |> Array.of_list
  in
  let ids_of_kind k =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if kinds.(i) = k then acc := i :: !acc
    done;
    Array.of_list !acc
  in
  {
    kinds = Array.copy kinds;
    row_ptr;
    targets;
    weights;
    edge_list;
    host_ids = ids_of_kind Host;
    switch_ids = ids_of_kind Switch;
  }

let num_nodes g = Array.length g.kinds
let num_edges g = Array.length g.edge_list
let num_hosts g = Array.length g.host_ids
let num_switches g = Array.length g.switch_ids

let kind g u = g.kinds.(u)
let is_host g u = g.kinds.(u) = Host
let is_switch g u = g.kinds.(u) = Switch

let hosts g = Array.copy g.host_ids
let switches g = Array.copy g.switch_ids

let degree g u = g.row_ptr.(u + 1) - g.row_ptr.(u)

let iter_neighbors g u f =
  for i = g.row_ptr.(u) to g.row_ptr.(u + 1) - 1 do
    f g.targets.(i) g.weights.(i)
  done

let edge_weight g u v =
  let found = ref None in
  iter_neighbors g u (fun x w -> if x = v then found := Some w);
  !found

let edges g = Array.to_list g.edge_list
let edge g i = g.edge_list.(i)

let csr_row_ptr g = g.row_ptr
let csr_targets g = g.targets
let csr_weights g = g.weights

let map_weights g f =
  let edges' =
    List.map
      (fun (u, v, w) ->
        let w' = f u v w in
        if w' <= 0.0 then
          invalid_arg "Graph.map_weights: produced non-positive weight";
        (u, v, w'))
      (edges g)
  in
  make ~kinds:g.kinds ~edges:edges'

let digest g =
  (* [edge_list] is canonical (u < v, sorted at build time), so the
     serialization — and hence the hash — is independent of the order
     the edges were handed to [make]. Weights hash by their IEEE bit
     pattern: any weight change, however small, changes the digest.
     The CSR arrays deliberately do not participate: the digest is a
     function of the abstract node/edge structure, so it is byte-stable
     across adjacency-representation changes (the server's cost-matrix
     cache keys must survive exactly such refactors). *)
  let b = Buffer.create (64 + (16 * Array.length g.edge_list)) in
  Buffer.add_string b "ppdc.graph/1|";
  Buffer.add_string b (string_of_int (Array.length g.kinds));
  Buffer.add_char b '|';
  Array.iter
    (fun k -> Buffer.add_char b (match k with Host -> 'h' | Switch -> 's'))
    g.kinds;
  Array.iter
    (fun (u, v, w) ->
      Buffer.add_char b '|';
      Buffer.add_string b (string_of_int u);
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int v);
      Buffer.add_char b ',';
      Buffer.add_string b (Int64.to_string (Int64.bits_of_float w)))
    g.edge_list;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pp fmt g =
  Format.fprintf fmt "graph{hosts=%d switches=%d edges=%d}" (num_hosts g)
    (num_switches g) (num_edges g)
