type t = {
  graph : Graph.t;
  switches : int array;
  hosts : int array;
}

let build ~num_switches =
  if num_switches < 1 then invalid_arg "Linear.build: need at least one switch";
  let host_positions =
    if num_switches = 1 then [ 0 ] else [ 0; num_switches - 1 ]
  in
  let num_hosts = List.length host_positions in
  let kinds =
    Array.init (num_switches + num_hosts) (fun i ->
        if i < num_switches then Graph.Switch else Graph.Host)
  in
  let chain =
    List.init (max 0 (num_switches - 1)) (fun i -> (i, i + 1, 1.0))
  in
  let host_links =
    List.mapi (fun i p -> (p, num_switches + i, 1.0)) host_positions
  in
  let graph = Graph.make ~kinds ~edges:(chain @ host_links) in
  {
    graph;
    switches = Array.init num_switches (fun i -> i);
    hosts = Array.init num_hosts (fun i -> num_switches + i);
  }
