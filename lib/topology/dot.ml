let of_graph g =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer "graph ppdc {\n";
  Buffer.add_string buffer "  node [fontname=\"sans-serif\"];\n";
  (* Stable human labels: switches and hosts numbered within their kind. *)
  let switch_index = Hashtbl.create 16 and host_index = Hashtbl.create 16 in
  Array.iteri (fun i s -> Hashtbl.replace switch_index s i) (Graph.switches g);
  Array.iteri (fun i h -> Hashtbl.replace host_index h i) (Graph.hosts g);
  let label v =
    match Graph.kind g v with
    | Graph.Switch -> Printf.sprintf "s%d" (Hashtbl.find switch_index v)
    | Graph.Host -> Printf.sprintf "h%d" (Hashtbl.find host_index v)
  in
  for v = 0 to Graph.num_nodes g - 1 do
    let shape =
      match Graph.kind g v with Graph.Switch -> "box" | Graph.Host -> "ellipse"
    in
    Buffer.add_string buffer
      (Printf.sprintf "  n%d [label=\"%s\", shape=%s];\n" v (label v) shape)
  done;
  List.iter
    (fun (u, v, w) ->
      if Float.equal w 1.0 then
        Buffer.add_string buffer (Printf.sprintf "  n%d -- n%d;\n" u v)
      else
        Buffer.add_string buffer
          (Printf.sprintf "  n%d -- n%d [label=\"%.2g\"];\n" u v w))
    (Graph.edges g);
  Buffer.add_string buffer "}\n";
  Buffer.contents buffer
