module Clock = Ppdc_prelude.Clock
module Obs = Ppdc_prelude.Obs
module Parallel = Ppdc_prelude.Parallel
module Work_queue = Ppdc_prelude.Work_queue

let default_max_line = 1 lsl 20
let default_max_pending = 64

type read = Line of string | Overlong | Eof

(* Bounded line reader. On overflow the rest of the line is drained so
   the stream resynchronizes at the next newline — one oversized
   request costs one error response, not the connection. *)
let read_line_bounded ic ~max_line =
  let buffer = Buffer.create 256 in
  let rec go overflow =
    match input_char ic with
    | '\n' -> if overflow then Overlong else Line (Buffer.contents buffer)
    | c ->
        if Buffer.length buffer >= max_line then go true
        else begin
          Buffer.add_char buffer c;
          go overflow
        end
    | exception End_of_file ->
        if Buffer.length buffer = 0 then Eof
        else if overflow then Overlong
        else Line (Buffer.contents buffer)
  in
  go false

let serve_channel ?(max_line = default_max_line) ?request_timeout
    ?first_arrival engine ic oc =
  (* Deadline for the connection's first request, and only when the
     worker picked the connection up after the budget already ran out
     in the accept queue. Evaluated here — at pickup — so a client
     that connects promptly but sends its first line late is not
     penalized for its own idling. Subsequent requests start their
     budget when their line is read, which a lock-step worker does
     immediately before dispatch, so the deadline is pure admission
     control against queueing delay (Engine.handle_line's contract). *)
  let first_deadline =
    match (request_timeout, first_arrival) with
    | Some rt, Some t0 ->
        let d = t0 +. rt in
        if Float.compare (Clock.now ()) d > 0 then Some d else None
    | _ -> None
  in
  let first = ref true in
  let respond line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let rec loop () =
    if not (Engine.stopped engine) then
      match read_line_bounded ic ~max_line with
      | Eof -> ()
      | Overlong ->
          respond Engine.overlong_response;
          loop ()
      | Line l when String.trim l = "" -> loop ()
      | Line l ->
          let deadline =
            if !first then first_deadline
            else
              Option.map (fun rt -> Clock.now () +. rt) request_timeout
          in
          first := false;
          respond (Engine.handle_line ?deadline engine l);
          loop ()
  in
  loop ()

let serve_stdio ?max_line engine = serve_channel ?max_line engine stdin stdout

let remove_stale_socket path =
  if Sys.file_exists path then begin
    match (Unix.lstat path).Unix.st_kind with
    | Unix.S_SOCK -> Unix.unlink path
    | _ ->
        invalid_arg
          (Printf.sprintf
             "Transport.serve_unix: %s exists and is not a socket" path)
  end

(* Answer a rejected connection with the canned overloaded line, best
   effort: the client may already be gone, which changes nothing. *)
let reject_connection fd =
  let line = Engine.overloaded_response ^ "\n" in
  (try ignore (Unix.write_substring fd line 0 (String.length line))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let serve_unix ?max_line ?workers ?(max_pending = default_max_pending)
    ?request_timeout ?on_ready ~path engine =
  (* A client closing mid-response must surface as EPIPE on this
     connection, not as a fatal SIGPIPE for the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  remove_stale_socket path;
  let workers =
    match workers with Some w -> w | None -> Parallel.domain_count ()
  in
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* Everything past socket creation — bind, listen, pool setup, the
     accept loop — runs inside one protect, so the socket file is
     removed however this function exits, normal return or exception. *)
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 64;
      let serve_connection (fd, accepted_at) =
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let ic = Unix.in_channel_of_descr fd in
            let oc = Unix.out_channel_of_descr fd in
            (* Errors here mean this client died; the daemon carries on. *)
            (try
               serve_channel ?max_line ?request_timeout
                 ~first_arrival:accepted_at engine ic oc
             with Sys_error _ | Unix.Unix_error _ | End_of_file -> ());
            try flush oc with Sys_error _ -> ())
      in
      let queue = Work_queue.create ~workers ~max_pending serve_connection in
      Engine.set_load_probe engine (fun () ->
          {
            Engine.workers;
            active_connections = Work_queue.active queue;
            queue_depth = Work_queue.depth queue;
            rejected_connections = Work_queue.rejected queue;
          });
      (* Graceful shutdown: stop accepting the moment the engine stops,
         then drain — the queue runs every accepted connection, whose
         serve loop answers its in-flight request and exits on the next
         read because the engine is stopped. *)
      Fun.protect
        ~finally:(fun () -> Work_queue.shutdown queue)
        (fun () ->
          (match on_ready with Some f -> f () | None -> ());
          while not (Engine.stopped engine) do
            (* Short poll so a shutdown answered by a worker stops this
               loop within a tick even when no client ever connects
               again. *)
            match Unix.select [ sock ] [] [] 0.05 with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | [], _, _ -> ()
            | _ :: _, _, _ -> (
                let fd, _ = Unix.accept sock in
                Obs.observe "server.queue.depth"
                  (float_of_int (Work_queue.depth queue));
                Obs.observe "server.connections.active"
                  (float_of_int (Work_queue.active queue));
                match Work_queue.push queue (fd, Clock.now ()) with
                | Work_queue.Accepted -> ()
                | Work_queue.Overloaded | Work_queue.Stopped ->
                    reject_connection fd)
          done))

let call ?timeout ~path requests =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_UNIX path);
      let send line =
        let data = line ^ "\n" in
        let len = String.length data in
        let off = ref 0 in
        while !off < len do
          off := !off + Unix.write_substring sock data !off (len - !off)
        done
      in
      (* Buffered line reader over the raw descriptor: [Unix.select]
         enforces the per-response deadline, which a blocking
         [input_line] cannot. Bytes past the first newline stay in
         [buf] for the next response. *)
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 4096 in
      let line_from_buffer () =
        let s = Buffer.contents buf in
        match String.index_opt s '\n' with
        | None -> None
        | Some i ->
            Buffer.clear buf;
            Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
            Some (String.sub s 0 i)
      in
      let fill () =
        let n = Unix.read sock chunk 0 (Bytes.length chunk) in
        if n = 0 then failwith "Transport.call: server closed the connection";
        Buffer.add_subbytes buf chunk 0 n
      in
      let timeout_fail rt =
        failwith
          (Printf.sprintf
             "Transport.call: timed out after %gs waiting for a response" rt)
      in
      let rec read_line deadline =
        match line_from_buffer () with
        | Some l -> l
        | None -> (
            match (deadline, timeout) with
            | Some d, Some rt -> (
                let remaining = d -. Clock.now () in
                if Float.compare remaining 0.0 <= 0 then timeout_fail rt;
                match Unix.select [ sock ] [] [] remaining with
                | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                    read_line deadline
                | [], _, _ -> timeout_fail rt
                | _ :: _, _, _ ->
                    fill ();
                    read_line deadline)
            | _ ->
                fill ();
                read_line deadline)
      in
      List.map
        (fun req ->
          send req;
          let deadline =
            Option.map (fun rt -> Clock.now () +. rt) timeout
          in
          read_line deadline)
        requests)
