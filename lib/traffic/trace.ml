type t = {
  flows : Flow.t array;
  rates : float array array;
}

let validate flows rates =
  let l = Array.length flows in
  Array.iteri
    (fun i (f : Flow.t) ->
      if f.id <> i then
        invalid_arg "Trace.make: flow ids must be the dense range 0..l-1")
    flows;
  Array.iteri
    (fun e row ->
      if Array.length row <> l then
        invalid_arg (Printf.sprintf "Trace.make: epoch %d has %d rates, expected %d"
                       e (Array.length row) l);
      Array.iter
        (fun r ->
          if r < 0.0 || not (Float.is_finite r) then
            invalid_arg "Trace.make: rates must be finite and non-negative")
        row)
    rates

let make ~flows ~rates =
  validate flows rates;
  { flows = Array.copy flows; rates = Array.map Array.copy rates }

let of_diurnal m ~flows =
  let rates =
    Array.init m.Diurnal.hours (fun i ->
        Diurnal.rates_at m ~flows ~hour:(i + 1))
  in
  make ~flows ~rates

let churn ~rng ~epochs flows =
  if epochs < 2 then invalid_arg "Trace.churn: need at least two epochs";
  let windows =
    Array.map
      (fun (_ : Flow.t) ->
        let arrival = Ppdc_prelude.Rng.int rng (epochs / 2) in
        let departure =
          arrival + 1 + Ppdc_prelude.Rng.int rng (epochs - arrival)
        in
        (arrival, departure))
      flows
  in
  let rates =
    Array.init epochs (fun e ->
        Array.mapi
          (fun i (f : Flow.t) ->
            let arrival, departure = windows.(i) in
            if e >= arrival && e < departure then
              f.base_rate *. Ppdc_prelude.Rng.uniform rng ~lo:0.8 ~hi:1.2
            else 0.0)
          flows)
  in
  make ~flows ~rates

let num_epochs t = Array.length t.rates
let num_flows t = Array.length t.flows

let rates_at t ~epoch =
  if epoch < 0 || epoch >= num_epochs t then
    invalid_arg (Printf.sprintf "Trace.rates_at: epoch %d out of range" epoch);
  Array.copy t.rates.(epoch)

let coast_name = function Flow.East -> "east" | Flow.West -> "west"

let coast_of_name = function
  | "east" -> Flow.East
  | "west" -> Flow.West
  | s -> invalid_arg (Printf.sprintf "Trace.of_csv: bad coast %S" s)

let to_csv t =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer "flow,src_host,dst_host,base_rate,coast\n";
  Array.iter
    (fun (f : Flow.t) ->
      Buffer.add_string buffer
        (Printf.sprintf "%d,%d,%d,%.17g,%s\n" f.id f.src_host f.dst_host
           f.base_rate (coast_name f.coast)))
    t.flows;
  Array.iteri
    (fun e row ->
      Buffer.add_string buffer (Printf.sprintf "rates,%d" e);
      Array.iter (fun r -> Buffer.add_string buffer (Printf.sprintf ",%.17g" r)) row;
      Buffer.add_char buffer '\n')
    t.rates;
  Buffer.contents buffer

let of_csv text =
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> invalid_arg "Trace.of_csv: empty input"
  | header :: rest ->
      if header <> "flow,src_host,dst_host,base_rate,coast" then
        invalid_arg "Trace.of_csv: unexpected header";
      let flows = ref [] and rates = ref [] in
      let next_epoch = ref 0 in
      let parse line =
        match String.split_on_char ',' line with
        | "rates" :: epoch :: values ->
            (* The epoch column is authoritative, not decorative: rows
               must arrive dense and in order, or the file's epochs
               would be silently renumbered by line position. *)
            let e = int_of_string epoch in
            if e <> !next_epoch then
              invalid_arg
                (Printf.sprintf
                   "Trace.of_csv: rates row carries epoch %d, expected %d \
                    (epochs must be dense and in order)"
                   e !next_epoch);
            incr next_epoch;
            rates := Array.of_list (List.map float_of_string values) :: !rates
        | [ id; src; dst; rate; coast ] ->
            flows :=
              Flow.make ~id:(int_of_string id) ~src_host:(int_of_string src)
                ~dst_host:(int_of_string dst)
                ~base_rate:(float_of_string rate)
                ~coast:(coast_of_name coast)
              :: !flows
        | _ -> invalid_arg (Printf.sprintf "Trace.of_csv: bad line %S" line)
      in
      List.iter
        (fun line ->
          try parse line with
          | Failure _ ->
              invalid_arg (Printf.sprintf "Trace.of_csv: bad number in %S" line))
        rest;
      make
        ~flows:(Array.of_list (List.rev !flows))
        ~rates:(Array.of_list (List.rev !rates))

let save t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_csv t))

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_csv (really_input_string ic (in_channel_length ic)))
