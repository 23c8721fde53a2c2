(** The untraced path: set-up, warm-up and the measured closed loop,
    all through the public {!Server} API. *)

module Sv = Server
module Svc = Service
module Mx = Obs.Metrics
module W = Workloads

let now = Unix.gettimeofday

(** Outcome accounting shared by the warm-up and the measured phase.
    Every submitted request ends in exactly one of: done with the
    reference digest, done with another digest, failed, rejected or
    timed out. *)
type tally = {
  mutable submitted : int;
  mutable errors : int;  (** failed + rejected + timed out + mismatches *)
  mutable mismatches : int;
  mutable first_error : string option;
}

let tally () = { submitted = 0; errors = 0; mismatches = 0; first_error = None }

let error tl msg =
  tl.errors <- tl.errors + 1;
  if tl.first_error = None then tl.first_error <- Some msg

let check tl (w : W.t) sid (o : Sv.outcome) =
  let st = w.W.stmts.(sid) in
  match o with
  | Sv.Done r ->
      if Sv.result_digest r <> st.W.digest then begin
        tl.mismatches <- tl.mismatches + 1;
        error tl ("digest mismatch on: " ^ st.W.sql)
      end
  | Sv.Failed msg -> error tl (Printf.sprintf "failed (%s) on: %s" msg st.W.sql)
  | Sv.Rejected | Sv.Timed_out -> error tl (Sv.outcome_name o)

(** Per-field meter totals the pool's services have executed so far,
    read from the registry counters [Service.report] publishes. Call
    only while the pool is quiescent. *)
let meter_totals pool : int array =
  List.iter (fun s -> ignore (Svc.report s)) (Sv.services pool);
  Array.of_list
    (List.map
       (fun f ->
         Mx.counter_value
           (Mx.counter ~labels:[ ("field", f) ] Mx.default "svc_meter_total"))
       Exec.Meter.field_names)

(** [Meter.work] of per-field totals given in [Meter.field_names]
    order. *)
let work_of (v : int array) : float =
  let m =
    {
      Exec.Meter.rows_scanned = v.(0);
      pages_read = v.(1);
      idx_probes = v.(2);
      idx_entries = v.(3);
      rows_joined = v.(4);
      hash_build = v.(5);
      hash_probe = v.(6);
      sort_compares = v.(7);
      agg_rows = v.(8);
      rows_out = v.(9);
      subq_execs = v.(10);
      subq_cache_hits = v.(11);
      expensive_calls = v.(12);
      key_build = v.(13);
    }
  in
  assert (Exec.Meter.values m = v);
  Exec.Meter.work m

let diff a b = Array.map2 ( - ) a b
let rows_scanned_index = 0

(** Closed loop from one generator thread: keep [outstanding] requests
    in flight, sending the next only when the oldest has answered.
    Latency runs from submission to the generator seeing the outcome.
    A statistics refresh waits until nothing is in flight. [next]
    returns [None] to stop. *)
let closed_loop pool se (w : W.t) tl ~(next : unit -> W.event option)
    ~(on_latency : float -> unit) ~(on_submit : unit -> unit) =
  let inflight = Queue.create () in
  let complete () =
    let h, t0, sid = Queue.pop inflight in
    let o = Sv.await h in
    on_latency (now () -. t0);
    check tl w sid o
  in
  let rec loop () =
    match next () with
    | None -> ()
    | Some (W.Refresh s) ->
        while not (Queue.is_empty inflight) do
          complete ()
        done;
        W.restats w s;
        loop ()
    | Some (W.Req sid) ->
        if Queue.length inflight >= w.W.outstanding then complete ();
        on_submit ();
        let t0 = now () in
        let h = Sv.submit_wait pool se (Sv.Sql w.W.stmts.(sid).W.sql) in
        tl.submitted <- tl.submitted + 1;
        Queue.push (h, t0, sid) inflight;
        loop ()
  in
  loop ();
  while not (Queue.is_empty inflight) do
    complete ()
  done

type setup = {
  w : W.t;
  pool : Sv.t;
  session : Sv.session;
  setup_s : float;
  work_per_req : float;  (** mean [Meter.work] over the warm-up pass *)
  warm : tally;
}

(** Build the database and gather stats, render and check the
    statements, compute their reference digests, start the pool and
    send every distinct statement once (the warm-up pass). *)
let setup name ~seed ~scale : setup =
  let t0 = now () in
  let w = W.setup name ~seed ~scale in
  let pool =
    Sv.create
      ~config:{ Sv.default_config with Sv.workers = w.W.workers; svc = w.W.svc }
      w.W.db
  in
  let session = Sv.session pool in
  let m0 = meter_totals pool in
  let warm = tally () in
  let n = Array.length w.W.stmts in
  let sid = ref 0 in
  closed_loop pool session w warm
    ~next:(fun () ->
      if !sid >= n then None
      else begin
        incr sid;
        Some (W.Req (!sid - 1))
      end)
    ~on_latency:ignore ~on_submit:ignore;
  let m1 = meter_totals pool in
  {
    w;
    pool;
    session;
    setup_s = now () -. t0;
    work_per_req = work_of (diff m1 m0) /. float_of_int (max 1 n);
    warm;
  }

(** A growable float array. *)
type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 65536 0.; n = 0 }

let push b x =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0. in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

(** Nearest-rank quantile of sorted samples. *)
let quantile (sorted : float array) q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** The measured phase is cut, in completion order, into windows of at
    least this many requests, so that each window's p99 has ten samples
    beyond it. *)
let window_requests = 1000

(** What the measured phase observed. Throughput and the latency
    quantiles are medians over windows: a stall of the host that covers
    a few windows moves them little, where it would move a whole-phase
    figure in proportion to its length. *)
type measured = {
  requests : int;
  wall_s : float;
  samples : int;  (** latency samples *)
  windows : int;
  qps : float;  (** median over windows of requests per second *)
  p50_s : float;  (** median over windows of each window's p50 *)
  p99_s : float;  (** median over windows of each window's p99 *)
  mean_latency_s : float;  (** over the whole phase *)
  queue_depth : float;  (** mean [Server.queue_length] sampled at each submission *)
  rows_scanned : int;
  tally : tally;
}

(** Run the stream for [seconds] (and at least [min_requests]
    requests). *)
let measure (s : setup) ~seed ~seconds ~min_requests : measured =
  let lat = samples () and fin = samples () in
  let qsum = ref 0 and qn = ref 0 in
  let on_submit () =
    qsum := !qsum + Sv.queue_length s.pool;
    incr qn
  in
  let on_latency l =
    push lat l;
    push fin (now ())
  in
  let tl = tally () in
  let stream = s.w.W.stream seed in
  let m0 = meter_totals s.pool in
  let t0 = now () in
  let deadline = t0 +. seconds in
  closed_loop s.pool s.session s.w tl
    ~next:(fun () ->
      if tl.submitted >= min_requests && now () >= deadline then None
      else Some (stream ()))
    ~on_latency ~on_submit;
  let wall_s = now () -. t0 in
  let m1 = meter_totals s.pool in
  let n = lat.n in
  (* window k holds the completions [bound k, bound (k + 1)) *)
  let nw = max 1 (n / window_requests) in
  let bound k = k * n / nw in
  let win k =
    let lo = bound k and hi = bound (k + 1) in
    let started = if lo = 0 then t0 else fin.a.(lo - 1) in
    let sorted = Array.sub lat.a lo (hi - lo) in
    Array.sort Float.compare sorted;
    ( float_of_int (hi - lo) /. (fin.a.(hi - 1) -. started),
      quantile sorted 0.5,
      quantile sorted 0.99 )
  in
  let ws = Array.init nw win in
  let med f = median (Array.map f ws) in
  {
    requests = tl.submitted;
    wall_s;
    samples = n;
    windows = nw;
    qps = med (fun (q, _, _) -> q);
    p50_s = med (fun (_, p, _) -> p);
    p99_s = med (fun (_, _, p) -> p);
    mean_latency_s = Array.fold_left ( +. ) 0. (Array.sub lat.a 0 n) /. float_of_int (max 1 n);
    queue_depth = float_of_int !qsum /. float_of_int (max 1 !qn);
    rows_scanned = (diff m1 m0).(rows_scanned_index);
    tally = tl;
  }
