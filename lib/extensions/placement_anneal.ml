open Ppdc_core
module Rng = Ppdc_prelude.Rng

type outcome = {
  placement : Placement.t;
  cost : float;
  accepted : int;
}

let solve ~rng problem ~rates =
  let att = Cost.attach problem ~rates in
  let switches = Problem.switches problem in
  let n = Problem.n problem in
  let evaluate p = Cost.comm_cost_with_attach problem att p in
  let current = Placement.random ~rng problem in
  let current_cost = ref (evaluate current) in
  let best = ref (Array.copy current) in
  let best_cost = ref !current_cost in
  let in_use = Hashtbl.create n in
  Array.iter (fun s -> Hashtbl.replace in_use s ()) current;
  let temperature = ref (0.1 *. !current_cost) in
  let accepted = ref 0 in
  for _ = 1 to 20_000 do
    (* Proposal: relocate one VNF to a free switch, or swap two chain
       positions. *)
    let j = Rng.int rng n in
    let proposal =
      if Rng.bool rng && n > 1 then begin
        let j' = Rng.int rng n in
        if j = j' then None
        else begin
          let p = Array.copy current in
          let tmp = p.(j) in
          p.(j) <- p.(j');
          p.(j') <- tmp;
          Some (p, None)
        end
      end
      else begin
        let s = Rng.pick rng switches in
        if Hashtbl.mem in_use s then None
        else begin
          let p = Array.copy current in
          let old = p.(j) in
          p.(j) <- s;
          Some (p, Some (old, s))
        end
      end
    in
    (match proposal with
    | None -> ()
    | Some (p, relocation) ->
        let cost = evaluate p in
        let delta = cost -. !current_cost in
        let accept =
          delta <= 0.0
          || (!temperature > 0.0
             && Rng.float rng 1.0 < Float.exp (-.delta /. !temperature))
        in
        if accept then begin
          incr accepted;
          Array.blit p 0 current 0 n;
          current_cost := cost;
          (match relocation with
          | Some (old, fresh) ->
              Hashtbl.remove in_use old;
              Hashtbl.replace in_use fresh ()
          | None -> ());
          if cost < !best_cost then begin
            best_cost := cost;
            best := Array.copy p
          end
        end);
    temperature := !temperature *. 0.9995
  done;
  { placement = !best; cost = !best_cost; accepted = !accepted }
