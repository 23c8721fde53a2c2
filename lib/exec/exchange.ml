(** The parallel substrate of the {!Plan.Exchange} operator: a
    partition-task fan-out across OCaml domains.

    {b The pool.} Helper domains are spawned once and live for the rest
    of the process. An idle helper blocks in {!Concur.Chan.pop} on one
    process-wide job ring; it never spins. The pool starts empty — a
    process that never runs a multi-task exchange never spawns a
    domain — and grows, under a mutex, to the largest [dop - 1] any
    call has asked for. It never shrinks. The planner clamps [dop] to
    the core count, so the helper count is bounded by the cores minus
    the caller; there is no size setting.

    {b One call.} Tasks (surviving partition indices) are claimed
    through one atomic counter, so a skewed partition does not idle the
    other participants. The calling domain posts the call to up to
    [w - 1] helpers and then claims tasks itself; a full job ring only
    means fewer helpers join in. When the counter runs out, the caller
    closes the call and waits for the helpers that actually started on
    it. A helper that pops the job after the close returns at once.
    Because the caller alone can finish every task, a call never waits
    for a helper to become free: concurrent callers from several server
    workers, and a task that itself calls {!run_tasks}, cannot deadlock.

    {b Determinism.} Which domain runs which task is racy, but nothing
    observable depends on it: results come back in ascending task
    order, and every per-task artifact (rows, meter, node stats) is a
    pure function of the task alone. That is the exchange determinism
    contract — rows {e and} merged meters are bit-identical to running
    the tasks sequentially, whatever the dop. A task exception is
    captured, the remaining tasks still run, and the first failing task
    in task order is re-raised once no task of the call is running. *)

module Chan = Concur.Chan

(* One [run_tasks] call as the helpers see it. [work] claims and runs
   tasks until the counter is exhausted and never raises; the caller
   swaps it for [ignore] on close, so a stale job left in the ring
   holds no task results alive. *)
type call = {
  mu : Mutex.t;
  idle : Condition.t;  (** signalled when [active] drops to 0 *)
  mutable closed : bool;
  mutable active : int;  (** helpers currently inside [work] *)
  mutable work : unit -> unit;
}

(* Posted calls. A job that finds the ring full is simply not posted. *)
let jobs : call Chan.t = Chan.create ~capacity:64
let helpers = Atomic.make 0
let grow_mu = Mutex.create ()

let join_call c =
  Mutex.lock c.mu;
  if c.closed then Mutex.unlock c.mu
  else begin
    c.active <- c.active + 1;
    let work = c.work in
    Mutex.unlock c.mu;
    work ();
    Mutex.lock c.mu;
    c.active <- c.active - 1;
    if c.active = 0 then Condition.signal c.idle;
    Mutex.unlock c.mu
  end

let rec helper () =
  match Chan.pop jobs with
  | Some c ->
      join_call c;
      helper ()
  | None -> ()

(* Grow the pool to at least [k] helpers. The unlocked check keeps the
   steady state lock-free; the mutex keeps two callers from both
   spawning up to the same target. *)
let ensure_helpers k =
  if Atomic.get helpers < k then
    Mutex.protect grow_mu (fun () ->
        while Atomic.get helpers < k do
          ignore (Domain.spawn helper);
          Atomic.incr helpers
        done)

(** [run_tasks ~dop ~tasks ~f] evaluates [f t] for every [t] in
    [tasks] on up to [dop] domains (the caller included) and returns
    the [(t, f t)] pairs sorted by task. [f] must be safe to call from
    another domain (the executor gives each task its own meter and
    mutable state). With [dop <= 1] or a single task, [f] runs on the
    calling domain alone. *)
let run_tasks ~(dop : int) ~(tasks : int list) ~(f : int -> 'a) :
    (int * 'a) list =
  let n = List.length tasks in
  let w = max 1 (min dop n) in
  if n = 0 then []
  else if w <= 1 then List.map (fun t -> (t, f t)) tasks
  else begin
    let ts = Array.of_list tasks in
    let res = Array.make n None in
    let next = Atomic.make 0 in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        res.(i) <-
          Some
            (try
               Cursor.observe_exchange_queue (n - i - 1);
               Ok (f ts.(i))
             with e -> Error e);
        work ()
      end
    in
    let c =
      {
        mu = Mutex.create ();
        idle = Condition.create ();
        closed = false;
        active = 0;
        work;
      }
    in
    ensure_helpers (w - 1);
    for _ = 2 to w do
      ignore (Chan.try_push jobs c)
    done;
    work ();
    Mutex.lock c.mu;
    c.closed <- true;
    while c.active > 0 do
      Condition.wait c.idle c.mu
    done;
    c.work <- ignore;
    Mutex.unlock c.mu;
    let out =
      List.stable_sort
        (fun (a, _) (b, _) -> compare a b)
        (List.mapi (fun i t -> (t, Option.get res.(i))) tasks)
    in
    List.map
      (fun (t, r) -> match r with Ok v -> (t, v) | Error e -> raise e)
      out
  end
