(* The RPC engine's answers to serve.ndjson, one request line at a
   time through [Engine.handle_line], with the fields that carry wall
   time or process state stripped: elapsed_ms, uptime_s,
   requests.latency_ms and the stats' runtime section. One domain and
   an explicit shard count, so the transcript is the same at every
   PPDC_DOMAINS. *)

module Json = Ppdc_prelude.Json
module Engine = Ppdc_server.Engine

let timing_fields = [ "elapsed_ms"; "uptime_s"; "latency_ms"; "runtime" ]

let rec strip = function
  | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if List.mem k timing_fields then None else Some (k, strip v))
           fields)
  | Json.List items -> Json.List (List.map strip items)
  | j -> j

let () =
  Ppdc_prelude.Parallel.set_domains 1;
  let engine = Engine.create ~shards:4 () in
  In_channel.with_open_text "serve.ndjson" (fun ic ->
      In_channel.input_all ic
      |> String.split_on_char '\n'
      |> List.iter (fun line ->
             if line <> "" then
               print_endline
                 (Json.to_string
                    (strip (Json.parse (Engine.handle_line engine line))))))
