type t = {
  graph : Graph.t;
  spines : int array;
  leaves : int array;
  hosts : int array;
}

let build ?(weight = fun _ _ -> 1.0) ~spines ~leaves ~hosts_per_leaf () =
  if spines < 1 || leaves < 1 || hosts_per_leaf < 1 then
    invalid_arg "Leaf_spine.build: all counts must be >= 1";
  let num_switches = spines + leaves in
  let num_hosts = leaves * hosts_per_leaf in
  let kinds =
    Array.init (num_switches + num_hosts) (fun i ->
        if i < num_switches then Graph.Switch else Graph.Host)
  in
  let spine_ids = Array.init spines (fun i -> i) in
  let leaf_ids = Array.init leaves (fun i -> spines + i) in
  let host_ids = Array.init num_hosts (fun i -> num_switches + i) in
  let edges = ref [] in
  Array.iter
    (fun leaf ->
      Array.iter
        (fun spine -> edges := (spine, leaf, weight spine leaf) :: !edges)
        spine_ids)
    leaf_ids;
  Array.iteri
    (fun i host ->
      let leaf = leaf_ids.(i / hosts_per_leaf) in
      edges := (leaf, host, weight leaf host) :: !edges)
    host_ids;
  {
    graph = Graph.make ~kinds ~edges:!edges;
    spines = spine_ids;
    leaves = leaf_ids;
    hosts = host_ids;
  }

let leaf_of_host t host =
  let first = t.hosts.(0) in
  let idx = host - first in
  if idx < 0 || idx >= Array.length t.hosts then
    invalid_arg (Printf.sprintf "Leaf_spine: node %d is not a host" host);
  let hosts_per_leaf = Array.length t.hosts / Array.length t.leaves in
  t.leaves.(idx / hosts_per_leaf)
