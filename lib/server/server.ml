(** Concurrent multi-session query server: a domain worker pool over
    the {!Service} layer.

    This is the shared-server shape the paper assumes around the
    optimizer: cost-based transformation pays for itself because one
    hard parse is amortized across {e many} sessions hitting the same
    cursor cache concurrently. The pieces:

    - {b Sessions} ({!session}) carry client state: an id, default
      binds and per-session outcome counters.
    - {b One bounded MPMC request queue} ({!Concur.Chan}) feeds {b N domain
      workers} ([Domain.spawn] each). Admission control is explicit:
      a full queue {e rejects} immediately ([Rejected] — the client can
      back off), and each request carries an absolute deadline checked
      when a worker picks it up, so requests that sat queued past their
      deadline are {e timed out} without executing ([Timed_out]).
      Overload therefore degrades into fast, accounted failures instead
      of unbounded queueing — and under saturation every submitted
      request still gets exactly one outcome (the accounting identity
      the tests check).
    - {b Shared plan cache and query store}: all workers' services are
      created over one sharded {!Service.Plan_cache} and
      {!Obs.Query_store}, so a hard parse by any worker is a soft parse
      for every other — the whole point of the shared server. Each cache
      entry also holds the executable plan (DOP rewrite and engine
      hints) that every worker runs; all workers share one service
      config, hence one DOP. Catalog stats epochs publish through an
      atomic map ({!Catalog.epochs_snapshot}), so a stats refresh during
      traffic invalidates cleanly across workers.
    - {b Everything else is per-worker}: each worker owns one service,
      created with the pool, whose parse counters, engine stats and
      meter accumulators stay single-domain. Pool-level reporting merges
      the per-worker reports and snapshots the shared cache once. *)

open Sqlir
module A = Ast
module Svc = Service
module Pc = Service.Plan_cache
module Qs = Obs.Query_store
module Mx = Obs.Metrics
module Db = Storage.Db

(* ------------------------------------------------------------------ *)
(* Requests and outcomes                                                *)
(* ------------------------------------------------------------------ *)

(** A statement to execute: SQL text (parsed on the worker, off the
    submitting thread) or an already-parsed query. *)
type stmt = Sql of string | Ir of A.query

(** Exactly one outcome per submitted request. *)
type outcome =
  | Done of Svc.exec_result
  | Failed of string  (** the execution raised (e.g. a [--check] diagnostic) *)
  | Rejected  (** admission control: queue full (or server shut down) *)
  | Timed_out  (** sat queued past its deadline; never executed *)

let outcome_name = function
  | Done _ -> "done"
  | Failed _ -> "failed"
  | Rejected -> "rejected"
  | Timed_out -> "timed_out"

(** The client's side of one request: await fills in the outcome. *)
type handle = {
  h_mu : Mutex.t;
  h_cond : Condition.t;
  mutable h_outcome : outcome option;
}

let handle_create () =
  { h_mu = Mutex.create (); h_cond = Condition.create (); h_outcome = None }

let fulfill (h : handle) (o : outcome) =
  Mutex.lock h.h_mu;
  h.h_outcome <- Some o;
  Condition.broadcast h.h_cond;
  Mutex.unlock h.h_mu

(** Block until the request's outcome is available. *)
let await (h : handle) : outcome =
  Mutex.lock h.h_mu;
  let rec wait () =
    match h.h_outcome with
    | Some o -> o
    | None ->
        Condition.wait h.h_cond h.h_mu;
        wait ()
  in
  let o = wait () in
  Mutex.unlock h.h_mu;
  o

(* ------------------------------------------------------------------ *)
(* Sessions                                                             *)
(* ------------------------------------------------------------------ *)

(** Per-session outcome counters, updated atomically by whichever
    domain resolves the request. *)
type session_stats = {
  ss_submitted : int Atomic.t;
  ss_done : int Atomic.t;
  ss_failed : int Atomic.t;
  ss_rejected : int Atomic.t;
  ss_timed_out : int Atomic.t;
  ss_rows : int Atomic.t;
}

type session = {
  se_id : int;
  se_binds : Value.t list;  (** default bind vector *)
  se_stats : session_stats;
}

type request = {
  rq_session : session;
  rq_stmt : stmt;
  rq_binds : Value.t list;
  rq_deadline : float;  (** absolute [gettimeofday]; [infinity] = none *)
  rq_handle : handle;
}

(* ------------------------------------------------------------------ *)
(* Pool                                                                 *)
(* ------------------------------------------------------------------ *)

type config = {
  workers : int;  (** domain workers ([>= 1]) *)
  queue_depth : int;  (** request-queue bound (admission control) *)
  deadline_s : float;
      (** per-request deadline in seconds from submission; [<= 0.] =
          none. Checked when a worker dequeues the request. *)
  svc : Svc.config;  (** per-worker service configuration *)
}

let default_config =
  {
    workers = 1;
    queue_depth = 64;
    deadline_s = 0.;
    svc = Svc.default_config;
  }

type t = {
  cfg : config;
  db : Db.t;
  cache : Pc.t;  (** shared, sharded *)
  store : A.query Qs.t;  (** shared, sharded *)
  queue : request Concur.Chan.t;
  services : Svc.t array;
      (** one per worker, over the shared cache and store; each is
          touched only by its worker's domain (and by reporting after
          the pool is drained) *)
  mutable domains : unit Domain.t array;
  next_session : int Atomic.t;
  (* pool accounting: every submitted request ends in exactly one of
     done/failed/rejected/timed_out *)
  c_submitted : int Atomic.t;
  c_done : int Atomic.t;
  c_failed : int Atomic.t;
  c_rejected : int Atomic.t;
  c_timed_out : int Atomic.t;
  g_inflight : int Atomic.t;  (** requests currently executing *)
  pub_mu : Mutex.t;
  published : int array;
      (** counter values already pushed to the registry (delta
          publication, under [pub_mu]) *)
}

let exec_request (svc : Svc.t) (rq : request) : outcome =
  match
    match rq.rq_stmt with
    | Ir q -> Svc.exec_ir svc q rq.rq_binds
    | Sql sql -> Svc.exec svc sql rq.rq_binds
  with
  | r -> Done r
  | exception e -> Failed (Printexc.to_string e)

let resolve_session (rq : request) (o : outcome) =
  let st = rq.rq_session.se_stats in
  (match o with
  | Done r ->
      Atomic.incr st.ss_done;
      ignore (Atomic.fetch_and_add st.ss_rows r.Svc.r_nrows)
  | Failed _ -> Atomic.incr st.ss_failed
  | Rejected -> Atomic.incr st.ss_rejected
  | Timed_out -> Atomic.incr st.ss_timed_out);
  fulfill rq.rq_handle o

let worker_loop t (svc : Svc.t) () =
  let rec loop () =
    match Concur.Chan.pop t.queue with
    | None -> ()  (* closed and drained: exit *)
    | Some rq ->
        (if Unix.gettimeofday () > rq.rq_deadline then begin
           (* expired while queued: never execute it *)
           Atomic.incr t.c_timed_out;
           resolve_session rq Timed_out
         end
         else begin
           Atomic.incr t.g_inflight;
           let o = exec_request svc rq in
           Atomic.decr t.g_inflight;
           (match o with
           | Done _ -> Atomic.incr t.c_done
           | Failed _ -> Atomic.incr t.c_failed
           | _ -> ());
           resolve_session rq o
         end);
        loop ()
  in
  loop ()

(** Build the pool and spawn its workers. The shared plan cache and
    query store have [4 x workers] shards (rounded up to a power of
    two), so concurrent probes rarely meet on a lock. *)
let create ?(config = default_config) (db : Db.t) : t =
  let config = { config with workers = max 1 config.workers } in
  let shards = 4 * config.workers in
  let cache = Pc.create ~capacity:config.svc.Svc.capacity ~shards () in
  let store = Qs.create ~capacity:config.svc.Svc.store_capacity ~shards () in
  let t =
    {
      cfg = config;
      db;
      cache;
      store;
      queue = Concur.Chan.create ~capacity:config.queue_depth;
      services =
        Array.init config.workers (fun _ ->
            Svc.create ~config:config.svc ~cache ~store db);
      domains = [||];
      next_session = Atomic.make 0;
      c_submitted = Atomic.make 0;
      c_done = Atomic.make 0;
      c_failed = Atomic.make 0;
      c_rejected = Atomic.make 0;
      c_timed_out = Atomic.make 0;
      g_inflight = Atomic.make 0;
      pub_mu = Mutex.create ();
      published = Array.make 5 0;
    }
  in
  t.domains <-
    Array.map (fun svc -> Domain.spawn (worker_loop t svc)) t.services;
  t

let cache t = t.cache
let query_store t = t.store
let queue_length t = Concur.Chan.length t.queue

(** Open a session. [binds] is the default bind vector used when a
    submission does not pass its own. *)
let session ?(binds = []) t : session =
  {
    se_id = Atomic.fetch_and_add t.next_session 1;
    se_binds = binds;
    se_stats =
      {
        ss_submitted = Atomic.make 0;
        ss_done = Atomic.make 0;
        ss_failed = Atomic.make 0;
        ss_rejected = Atomic.make 0;
        ss_timed_out = Atomic.make 0;
        ss_rows = Atomic.make 0;
      };
  }

let make_request t (se : session) ?binds (stmt : stmt) : request =
  {
    rq_session = se;
    rq_stmt = stmt;
    rq_binds = (match binds with Some b -> b | None -> se.se_binds);
    rq_deadline =
      (if t.cfg.deadline_s > 0. then Unix.gettimeofday () +. t.cfg.deadline_s
       else infinity);
    rq_handle = handle_create ();
  }

(** Submit without blocking: a full queue (or a shut-down server)
    resolves the handle to [Rejected] immediately. *)
let submit ?binds t (se : session) (stmt : stmt) : handle =
  let rq = make_request t se ?binds stmt in
  Atomic.incr t.c_submitted;
  Atomic.incr se.se_stats.ss_submitted;
  if not (Concur.Chan.try_push t.queue rq) then begin
    Atomic.incr t.c_rejected;
    resolve_session rq Rejected
  end;
  rq.rq_handle

(** Submit with backpressure: blocks while the queue is full. Still
    resolves to [Rejected] if the server shuts down while waiting. *)
let submit_wait ?binds t (se : session) (stmt : stmt) : handle =
  let rq = make_request t se ?binds stmt in
  Atomic.incr t.c_submitted;
  Atomic.incr se.se_stats.ss_submitted;
  if not (Concur.Chan.push t.queue rq) then begin
    Atomic.incr t.c_rejected;
    resolve_session rq Rejected
  end;
  rq.rq_handle

(** Run a whole batch through the pool with backpressure and return the
    outcomes in submission order. *)
let run_batch ?binds t (se : session) (stmts : stmt list) : outcome list =
  let handles = List.map (fun s -> submit_wait ?binds t se s) stmts in
  List.map await handles

(** Close the queue, drain it, and join every worker. Requests already
    accepted still execute; later submissions are rejected. *)
let shutdown t =
  Concur.Chan.close t.queue;
  Array.iter Domain.join t.domains;
  t.domains <- [||]

(** The workers' services, one per worker. Call only when the pool is
    quiescent (after {!shutdown}, or with no traffic in flight). *)
let services t : Svc.t list = Array.to_list t.services

(* ------------------------------------------------------------------ *)
(* Result digests                                                       *)
(* ------------------------------------------------------------------ *)

(** Order-insensitive digest of a result's row multiset (row hashes
    summed, wrapped into 61 bits), seeded with the row count. Two
    results digest equal iff their row multisets agree (modulo hash
    collisions), whatever order the rows came back in. *)
let result_digest (r : Svc.exec_result) : int =
  List.fold_left
    (fun acc row -> (acc + Hashtbl.hash_param 256 256 row) land 0x1FFFFFFFFFFFFFFF)
    r.Svc.r_nrows r.Svc.r_rows

(** Order-insensitive digest of a batch: per-outcome digests summed, so
    two runs of one workload digest equal iff they produced the same
    multiset of per-request results — the 1-worker vs N-worker
    correctness check. Failures fold in their message, rejections and
    timeouts a marker. *)
let outcomes_digest (os : outcome list) : int =
  List.fold_left
    (fun acc o ->
      let d =
        match o with
        | Done r -> result_digest r
        | Failed msg -> Hashtbl.hash ("failed", msg)
        | Rejected -> Hashtbl.hash "rejected"
        | Timed_out -> Hashtbl.hash "timed_out"
      in
      (acc + d) land 0x1FFFFFFFFFFFFFFF)
    0 os

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)
(* ------------------------------------------------------------------ *)

type report = {
  rp_workers : int;
  rp_submitted : int;
  rp_done : int;
  rp_failed : int;
  rp_rejected : int;
  rp_timed_out : int;
  rp_queued : int;  (** waiting in the queue right now *)
  rp_inflight : int;  (** executing right now *)
  rp_soft_parses : int;  (** summed over the workers' services *)
  rp_hard_parses : int;
  rp_parts_scanned : int;  (** partitions read, summed over workers *)
  rp_parts_pruned : int;  (** partitions pruned, summed over workers *)
  rp_dop_max : int;  (** max exchange worker count observed; 0 = serial *)
  rp_cache : Pc.stats;  (** shared-cache snapshot *)
  rp_hit_rate : float;
  rp_entries : int;
  rp_memory_words : int;
}

let report t : report =
  let soft = ref 0 and hard = ref 0 in
  let scanned = ref 0 and pruned = ref 0 and dop = ref 0 in
  List.iter
    (fun svc ->
      let r = Svc.report svc in
      soft := !soft + r.Svc.sv_soft_parses;
      hard := !hard + r.Svc.sv_hard_parses;
      let es = Svc.engine_stats svc in
      scanned := !scanned + es.Exec.Executor.es_parts_scanned;
      pruned := !pruned + es.Exec.Executor.es_parts_pruned;
      if es.Exec.Executor.es_dop > !dop then dop := es.Exec.Executor.es_dop)
    (services t);
  {
    rp_workers = t.cfg.workers;
    rp_submitted = Atomic.get t.c_submitted;
    rp_done = Atomic.get t.c_done;
    rp_failed = Atomic.get t.c_failed;
    rp_rejected = Atomic.get t.c_rejected;
    rp_timed_out = Atomic.get t.c_timed_out;
    rp_queued = Concur.Chan.length t.queue;
    rp_inflight = Atomic.get t.g_inflight;
    rp_soft_parses = !soft;
    rp_hard_parses = !hard;
    rp_parts_scanned = !scanned;
    rp_parts_pruned = !pruned;
    rp_dop_max = !dop;
    rp_cache = Pc.stats t.cache;
    rp_hit_rate = Pc.hit_rate t.cache;
    rp_entries = Pc.length t.cache;
    rp_memory_words = Pc.memory_words t.cache;
  }

(** Push the pool gauges and outcome counters to the process-wide
    registry: gauges [srv_queue_depth] / [srv_inflight], counters
    [srv_requests_total{outcome=...}] (delta-published so repeated
    reports do not double count). *)
let publish_metrics t =
  if !Mx.enabled then begin
    Mx.set (Mx.gauge Mx.default "srv_queue_depth")
      (float_of_int (Concur.Chan.length t.queue));
    Mx.set (Mx.gauge Mx.default "srv_inflight")
      (float_of_int (Atomic.get t.g_inflight));
    Mutex.lock t.pub_mu;
    List.iteri
      (fun i (name, cell) ->
        let v = Atomic.get cell in
        let d = v - t.published.(i) in
        if d <> 0 then begin
          Mx.add
            (Mx.counter ~labels:[ ("outcome", name) ] Mx.default
               "srv_requests_total")
            d;
          t.published.(i) <- v
        end)
      [
        ("submitted", t.c_submitted);
        ("done", t.c_done);
        ("failed", t.c_failed);
        ("rejected", t.c_rejected);
        ("timed_out", t.c_timed_out);
      ];
    Mutex.unlock t.pub_mu
  end

let pp_report ppf (r : report) =
  let line label pp_v = Fmt.pf ppf "  %-18s %t@." label pp_v in
  Fmt.pf ppf "server report@.";
  line "workers" (fun ppf -> Fmt.pf ppf "%d" r.rp_workers);
  line "submitted" (fun ppf -> Fmt.pf ppf "%d" r.rp_submitted);
  line "done" (fun ppf -> Fmt.pf ppf "%d" r.rp_done);
  line "failed" (fun ppf -> Fmt.pf ppf "%d" r.rp_failed);
  line "rejected" (fun ppf -> Fmt.pf ppf "%d" r.rp_rejected);
  line "timed out" (fun ppf -> Fmt.pf ppf "%d" r.rp_timed_out);
  line "queued" (fun ppf -> Fmt.pf ppf "%d" r.rp_queued);
  line "in flight" (fun ppf -> Fmt.pf ppf "%d" r.rp_inflight);
  line "soft parses" (fun ppf -> Fmt.pf ppf "%d" r.rp_soft_parses);
  line "hard parses" (fun ppf -> Fmt.pf ppf "%d" r.rp_hard_parses);
  line "parts scanned" (fun ppf -> Fmt.pf ppf "%d" r.rp_parts_scanned);
  line "parts pruned" (fun ppf -> Fmt.pf ppf "%d" r.rp_parts_pruned);
  line "max dop" (fun ppf -> Fmt.pf ppf "%d" r.rp_dop_max);
  line "cache hits" (fun ppf -> Fmt.pf ppf "%d" r.rp_cache.Pc.hits);
  line "cache misses" (fun ppf -> Fmt.pf ppf "%d" r.rp_cache.Pc.misses);
  line "hit rate" (fun ppf -> Fmt.pf ppf "%.2f" r.rp_hit_rate);
  line "evictions" (fun ppf -> Fmt.pf ppf "%d" r.rp_cache.Pc.evictions);
  line "invalidations" (fun ppf -> Fmt.pf ppf "%d" r.rp_cache.Pc.invalidations);
  line "entries" (fun ppf -> Fmt.pf ppf "%d" r.rp_entries);
  line "memory words" (fun ppf -> Fmt.pf ppf "%d" r.rp_memory_words)
