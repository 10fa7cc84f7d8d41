(* Fixed domain pool with deterministic index-ordered results.

   Scheduling is dynamic (workers claim indices from an atomic counter)
   but every observable output is keyed by index and reduced in index
   order after a barrier, so results do not depend on the schedule. *)

(* Lock hierarchy of this module, machine-checked by ppdc-lint R6:
   the pool-state registry mutex is taken before any pool's own mutex
   (shutdown/resize hold it while draining a pool), and the per-job
   error mutex nests innermost. *)
[@@@ppdc.lock_order "parallel.pool_state parallel.pool parallel.err"]

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

(* --- job: one index-based task set ------------------------------------ *)

type job = {
  body : int -> unit;
  total : int;
  next : int Atomic.t;  (* next index to claim *)
  pending : int Atomic.t;  (* indices not yet finished *)
  failed : int Atomic.t;  (* lowest failing index, or max_int *)
  mutable error : exn option;  (* exception at [failed]; err_mutex *)
  err_mutex : Mutex.t; [@ppdc.guards "parallel.err"]
}

let record_error job i exn =
  Mutexes.with_lock job.err_mutex (fun () ->
      if i < Atomic.get job.failed then begin
        Atomic.set job.failed i;
        job.error <- Some exn
      end)

(* Claim and run indices until the set is drained (or an earlier index
   failed, in which case later indices are abandoned — a sequential loop
   would never have reached them). Returns the number completed, so the
   caller can account for them against [pending] in one atomic. *)
let work job =
  let done_here = ref 0 in
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add job.next 1 in
    if i >= job.total then continue := false
    else begin
      if i > Atomic.get job.failed then ()
      else begin
        try job.body i with exn -> record_error job i exn
      end;
      incr done_here
    end
  done;
  !done_here

(* --- pool -------------------------------------------------------------- *)

type pool = {
  mutable workers : unit Domain.t array;
  mutex : Mutex.t; [@ppdc.guards "parallel.pool"]
  work_cond : Condition.t;  (* new job or stop *)
  done_cond : Condition.t;  (* a job drained *)
  mutable generation : int;
  mutable job : job option;
  mutable stop : bool;
}

let finish_indices pool job k =
  if Atomic.fetch_and_add job.pending (-k) = k then
    (* Last batch: wake the submitter. The lock orders this broadcast
       after the submitter's check of [pending] under the same mutex. *)
    Mutexes.with_lock pool.mutex (fun () ->
        Condition.broadcast pool.done_cond)

let rec worker_loop pool seen_generation =
  let generation, job, stop =
    Mutexes.with_lock pool.mutex (fun () ->
        while pool.generation = seen_generation && not pool.stop do
          Condition.wait pool.work_cond pool.mutex
        done;
        (pool.generation, pool.job, pool.stop))
  in
  if not stop then begin
    (match job with
    | Some j ->
        let k = work j in
        if k > 0 then finish_indices pool j k
    | None -> ());
    worker_loop pool generation
  end

let make_pool num_workers =
  let pool =
    {
      workers = [||];
      mutex = Mutex.create ();
      work_cond = Condition.create ();
      done_cond = Condition.create ();
      generation = 0;
      job = None;
      stop = false;
    }
  in
  pool.workers <-
    Array.init num_workers (fun _ ->
        Domain.spawn (fun () -> worker_loop pool 0));
  pool

let pool_state : pool option ref = ref None
[@@ppdc.domain_safe "read and written only while holding pool_mutex"]

let pool_mutex = Mutex.create () [@@ppdc.guards "parallel.pool_state"]

let exit_hook_registered = ref false
[@@ppdc.domain_safe "flipped once under pool_mutex inside obtain_pool"]

let shutdown_locked () =
  match !pool_state with
  | None -> ()
  | Some pool ->
      Mutexes.with_lock pool.mutex (fun () ->
          pool.stop <- true;
          Condition.broadcast pool.work_cond);
      Array.iter Domain.join pool.workers;
      pool_state := None

let shutdown () = Mutexes.with_lock pool_mutex shutdown_locked

(* A pool with [width - 1] workers (the caller is the remaining lane),
   resized when the requested width changes. *)
let obtain_pool width =
  Mutexes.with_lock pool_mutex (fun () ->
      (match !pool_state with
      | Some pool when Array.length pool.workers = width - 1 -> ()
      | Some _ -> shutdown_locked ()
      | None -> ());
      match !pool_state with
      | Some pool -> pool
      | None ->
          let pool = make_pool (width - 1) in
          pool_state := Some pool;
          if not !exit_hook_registered then begin
            exit_hook_registered := true;
            at_exit shutdown
          end;
          pool)

(* Only the main domain fans out. A section started anywhere else — on a
   pool worker (a task body calling back into this module) or on a
   domain the program spawned itself, such as a socket daemon's request
   worker — runs sequentially where it starts: that domain is already
   one lane of the program's parallelism, and adding the pool beside it
   oversubscribes the cores. [busy] is the same rule for the main
   domain's own lane: a task body it runs calls back in sequentially,
   keeping the pool single-purpose and the schedule deadlock-free. *)
let busy = Atomic.make false

let run_sequential n body =
  for i = 0 to n - 1 do
    body i
  done

let run n body =
  if n <= 0 then ()
  else
    let width = domain_count () in
    if width = 1 || n = 1 || not (Domain.is_main_domain ()) then
      run_sequential n body
    else if not (Atomic.compare_and_set busy false true) then
      run_sequential n body
    else
      Fun.protect
        ~finally:(fun () -> Atomic.set busy false)
        (fun () ->
          let pool = obtain_pool width in
          let job =
            {
              body;
              total = n;
              next = Atomic.make 0;
              pending = Atomic.make n;
              failed = Atomic.make max_int;
              error = None;
              err_mutex = Mutex.create ();
            }
          in
          Mutexes.with_lock pool.mutex (fun () ->
              pool.job <- Some job;
              pool.generation <- pool.generation + 1;
              Condition.broadcast pool.work_cond);
          let k = work job in
          if k > 0 then finish_indices pool job k;
          Mutexes.with_lock pool.mutex (fun () ->
              while Atomic.get job.pending > 0 do
                Condition.wait pool.done_cond pool.mutex
              done;
              pool.job <- None);
          match job.error with Some exn -> raise exn | None -> ())
[@@ppdc.domain_safe
  "the pool/err mutexes taken here are the scheduler's own, never held \
   across user code, and a call from a task body runs sequentially (off \
   the main domain, or through the busy flag on it) — so task bodies \
   calling back into Parallel cannot deadlock; exempted from the R8 \
   roll-up for that reason"]

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

let parallel_map f a = init (Array.length a) (fun i -> f a.(i))

let map_reduce ~n ~map ~init:acc0 ~combine =
  let results = init n map in
  Array.fold_left combine acc0 results
