(* Deterministic index-ordered sections on a pool of helper domains.

   Scheduling is dynamic (lanes claim indices from an atomic counter)
   but every observable output is keyed by index and reduced in index
   order after a barrier, so results do not depend on the schedule.
   The helpers are a [Work_queue] of [width - 1] domains; the calling
   domain is the remaining lane. *)

let env_domains () =
  match Sys.getenv_opt "PPDC_DOMAINS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> Some d
      | _ -> None)

(* 0 = no explicit override. *)
let requested = Atomic.make 0

let domain_count () =
  match Atomic.get requested with
  | d when d >= 1 -> d
  | _ -> (
      match env_domains () with
      | Some d -> d
      | None -> max 1 (Domain.recommended_domain_count ()))

let set_domains d =
  if d < 1 then invalid_arg "Parallel.set_domains: need at least one domain";
  Atomic.set requested d

(* --- section: one index-based task set --------------------------------- *)

type section = {
  body : int -> unit;
  total : int;
  next : int Atomic.t;  (* next index to claim *)
  pending : int Atomic.t;  (* indices not yet finished *)
  failed : int Atomic.t;  (* lowest failing index, or max_int *)
  mutable error : exn option;  (* exception at [failed]; done_mutex *)
}

(* One section runs at a time, so one leaf lock serves them all: it
   guards [error] and orders the last lane's broadcast after the
   caller's check of [pending]. A broadcast from a section that has
   already returned wakes the next one's caller spuriously, which its
   wait loop absorbs. *)
let done_mutex = Mutex.create () [@@ppdc.guards "parallel.done"]
let done_cond = Condition.create ()

let record_error s i exn =
  Mutexes.with_lock done_mutex (fun () ->
      if i < Atomic.get s.failed then begin
        Atomic.set s.failed i;
        s.error <- Some exn
      end)

(* Claim and run indices until the set is drained (or an earlier index
   failed, in which case later indices are abandoned — a sequential loop
   would never have reached them), then account for them against
   [pending] in one atomic; the lane that finishes the last index wakes
   the caller. A helper that starts after its section has drained
   claims nothing and touches nothing. *)
let lane s =
  let done_here = ref 0 in
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add s.next 1 in
    if i >= s.total then continue := false
    else begin
      if i > Atomic.get s.failed then ()
      else begin
        try s.body i with exn -> record_error s i exn
      end;
      incr done_here
    end
  done;
  let k = !done_here in
  if k > 0 && Atomic.fetch_and_add s.pending (-k) = k then
    Mutexes.with_lock done_mutex (fun () -> Condition.broadcast done_cond)

(* Only the main domain fans out. A section started anywhere else — on a
   helper (a task body calling back into this module) or on a domain
   the program spawned itself, such as a socket daemon's request worker
   — runs sequentially where it starts: that domain is already one lane
   of the program's parallelism, and adding the helpers beside it
   oversubscribes the cores. [busy] is the same rule for the main
   domain's own lane: a task body it runs calls back in sequentially,
   so one section runs at a time and the schedule is deadlock-free. *)
let busy = Atomic.make false

(* The helpers for the current width, replaced when the width changes. *)
let helpers : (int * section Work_queue.t) option ref = ref None
[@@ppdc.domain_safe "read and written only by the main domain holding busy"]

let helpers_for width =
  match !helpers with
  | Some (w, queue) when w = width -> queue
  | stale ->
      Option.iter (fun (_, queue) -> Work_queue.shutdown queue) stale;
      let queue =
        Work_queue.create ~workers:(width - 1) ~max_pending:(width - 1) lane
      in
      helpers := Some (width, queue);
      queue

let run n body =
  let width = domain_count () in
  if
    width = 1 || n <= 1
    || (not (Domain.is_main_domain ()))
    || not (Atomic.compare_and_set busy false true)
  then
    for i = 0 to n - 1 do
      body i
    done
  else
    Fun.protect
      ~finally:(fun () -> Atomic.set busy false)
      (fun () ->
        let s =
          {
            body;
            total = n;
            next = Atomic.make 0;
            pending = Atomic.make n;
            failed = Atomic.make max_int;
            error = None;
          }
        in
        let queue = helpers_for width in
        (* A refused push leaves more indices to the lanes that run. *)
        for _ = 2 to min width n do
          ignore (Work_queue.push queue s : Work_queue.push_result)
        done;
        lane s;
        let error =
          Mutexes.with_lock done_mutex (fun () ->
              while Atomic.get s.pending > 0 do
                Condition.wait done_cond done_mutex
              done;
              s.error)
        in
        Option.iter raise error)
[@@ppdc.domain_safe
  "done_mutex is the scheduler's own, never held across user code, and \
   a call from a task body runs sequentially (off the main domain, or \
   through the busy flag on it) — so task bodies calling back into \
   Parallel cannot deadlock; exempted from the R8 roll-up for that \
   reason"]

let parallel_for n f = run n f

let init n f =
  (* [||] for n = 0 is Array.init's own contract, not a sentinel: the
     empty result is exactly what a zero-length init means. *)
  if n = 0 then ([||] [@ppdc.allow "R5"])
  else begin
    let slots = Array.make n None in
    run n (fun i -> slots.(i) <- Some (f i));
    Array.map
      (function Some v -> v | None -> assert false (* barrier filled it *))
      slots
  end
