(** The traced run: the statement stream replayed on one domain through
    a copy of {!Service.exec_ir}'s request path that calls each layer's
    public entry point itself, with an in-memory span around each call.

    Next to the replica, a real {!Service} (same configuration, a cache
    of the same capacity and sharding) executes the same stream, timed
    as one span. The replica must reproduce the service's cache-outcome
    sequence and result digests request by request; if the service
    changes its request path the run fails instead of tracing a
    different program. What the service spends outside the replica's
    layer spans is its bookkeeping: metrics, query store and trace. *)

open Sqlir
module Fp = Fingerprint
module Svc = Service
module Pc = Service.Plan_cache
module D = Cbqt.Driver
module Db = Storage.Db
module Ex = Exec.Executor
module W = Workloads

let now = Unix.gettimeofday

(** The span kinds, one per layer call the replica makes. *)
type layer =
  | Parse  (** [Sqlparse.Parser.parse_exn] *)
  | Fingerprint  (** [peek_binds], [parameterize], [canonical], [hash] *)
  | Probe  (** [Plan_cache.find] plus the epoch check *)
  | Optimize  (** [Cbqt.Driver.optimize] *)
  | Store  (** [Plan_cache.store] / [replace] / [refresh_epochs] *)
  | Parallel  (** [Planner.Parallel.apply], once per cached plan *)
  | Hints  (** [Planner.Plan_est.pipeline_hints], once per cached plan *)
  | Execute  (** [Exec.Executor.execute] *)
  | Service_exec  (** the real [Service.exec] on the same request *)
  | Analyze  (** [Storage.Stats_gather.analyze] at a refresh *)

let layers =
  [| Parse; Fingerprint; Probe; Optimize; Store; Parallel; Hints; Execute;
     Service_exec; Analyze |]

let nlayers = Array.length layers

let layer_index = function
  | Parse -> 0
  | Fingerprint -> 1
  | Probe -> 2
  | Optimize -> 3
  | Store -> 4
  | Parallel -> 5
  | Hints -> 6
  | Execute -> 7
  | Service_exec -> 8
  | Analyze -> 9

let layer_name = function
  | Parse -> "sqlparse.parse"
  | Fingerprint -> "sqlir.fingerprint"
  | Probe -> "service.probe"
  | Optimize -> "core.optimize"
  | Store -> "service.store"
  | Parallel -> "planner.parallel_apply"
  | Hints -> "planner.hints"
  | Execute -> "exec.execute"
  | Service_exec -> "service.exec"
  | Analyze -> "storage.analyze"

(** The replica's own layers: their spans and the service's
    bookkeeping add up to the service's time. *)
let replica_layers = [ Parse; Fingerprint; Probe; Optimize; Store; Parallel; Hints; Execute ]

(** Spans kept in memory as flat arrays and written out at the end. *)
type spans = {
  mutable n : int;
  mutable req : int array;
  mutable kind : int array;
  mutable start : float array;
  mutable dur : float array;
  origin : float;
  mutable on : bool;  (** off during the warm-up replay *)
}

let spans_create () =
  let cap = 1 lsl 16 in
  {
    n = 0;
    req = Array.make cap 0;
    kind = Array.make cap 0;
    start = Array.make cap 0.;
    dur = Array.make cap 0.;
    origin = now ();
    on = false;
  }

let grow sp =
  let cap = 2 * Array.length sp.req in
  let ext a z =
    let b = Array.make cap z in
    Array.blit a 0 b 0 sp.n;
    b
  in
  sp.req <- ext sp.req 0;
  sp.kind <- ext sp.kind 0;
  sp.start <- ext sp.start 0.;
  sp.dur <- ext sp.dur 0.

(** Per-layer totals. *)
type totals = {
  secs : float array;  (** summed span seconds per layer, measured replay *)
  calls : int array;  (** spans per layer, measured replay *)
  once_secs : float array;
      (** the same with the warm-up replay included: the once-per-plan
          layers run mostly there *)
  once_calls : int array;
}

let totals () =
  {
    secs = Array.make nlayers 0.;
    calls = Array.make nlayers 0;
    once_secs = Array.make nlayers 0.;
    once_calls = Array.make nlayers 0;
  }

let span sp tot ~req layer f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let i = layer_index layer in
  tot.once_secs.(i) <- tot.once_secs.(i) +. (t1 -. t0);
  tot.once_calls.(i) <- tot.once_calls.(i) + 1;
  if sp.on then begin
    tot.secs.(i) <- tot.secs.(i) +. (t1 -. t0);
    tot.calls.(i) <- tot.calls.(i) + 1;
    if sp.n = Array.length sp.req then grow sp;
    sp.req.(sp.n) <- req;
    sp.kind.(sp.n) <- i;
    sp.start.(sp.n) <- t0 -. sp.origin;
    sp.dur.(sp.n) <- t1 -. t0;
    sp.n <- sp.n + 1
  end;
  r

(** Counters the replica reads at the layer boundaries. *)
type counts = {
  mutable requests : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidated : int;
  mutable revalidated : int;
  mutable parses : int;  (** hard parses: [Driver.optimize] calls *)
  mutable states : int;
  mutable cutoff : int;
  mutable blocks : int;
  mutable reuse : int;
  mutable dp_pruned : int;
  mutable refreshes : int;
  mutable rows_scanned : int;
  mutable exec_alloc : float;  (** words allocated inside [execute] *)
  mutable svc_alloc : float;  (** words allocated inside [Service.exec] *)
  mutable vec : int;
  mutable row : int;
  mutable parts_scanned : int;
  mutable parts_pruned : int;
  mutable dop_max : int;
  mutable exchanges : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let counts () =
  {
    requests = 0; hits = 0; misses = 0; invalidated = 0; revalidated = 0;
    parses = 0; states = 0; cutoff = 0; blocks = 0; reuse = 0; dp_pruned = 0;
    refreshes = 0; rows_scanned = 0; exec_alloc = 0.; svc_alloc = 0.; vec = 0;
    row = 0; parts_scanned = 0; parts_pruned = 0; dop_max = 0; exchanges = 0;
    evictions = 0; invalidations = 0;
  }

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let rec exchanges (p : Exec.Plan.t) =
  (match p with Exec.Plan.Exchange _ -> 1 | _ -> 0)
  + List.fold_left (fun n c -> n + exchanges c) 0 (Exec.Plan.children p)

type replica = {
  db : Db.t;
  cfg : Svc.config;
  cache : Pc.t;
  par_plans : Exec.Plan.t Ex.Ptbl.t;
  hints : (Exec.Plan.t -> float option) Ex.Ptbl.t;
}

let epochs_of cat tables =
  let ep = Catalog.epochs_snapshot cat in
  List.map (fun tb -> (tb, ep tb)) tables

let epochs_current cat snapshot =
  let ep = Catalog.epochs_snapshot cat in
  List.for_all (fun (tb, e) -> ep tb = e) snapshot

let memo tbl plan f =
  match Ex.Ptbl.find_opt tbl plan with
  | Some v -> v
  | None ->
      let v = f () in
      Ex.Ptbl.add tbl plan v;
      v

(** One request through the replica: the steps of [Service.exec_ir], in
    its order. Returns the cache outcome and the result digest. *)
let exec (r : replica) sp tot (c : counts) ~req (sql : string) :
    Svc.outcome * int =
  let cat = r.db.Db.cat in
  let span l f = span sp tot ~req l f in
  let q = span Parse (fun () -> Sqlparse.Parser.parse_exn cat sql) in
  let user = [||] in
  let peeked, extracted, key, h =
    span Fingerprint (fun () ->
        if Fp.binds_count q <> 0 then invalid_arg "replica: explicit binds";
        let peeked = Fp.peek_binds q user in
        let peeked, extracted = Fp.parameterize peeked in
        let key = Fp.canonical ~mode:Fp.Generic peeked in
        (peeked, extracted, key, Fp.hash ~mode:Fp.Generic key))
  in
  let found =
    span Probe (fun () ->
        match Pc.find r.cache ~h ~key with
        | Some e when epochs_current cat e.Pc.e_epochs -> `Hit e
        | Some e -> `Stale e
        | None -> `Miss)
  in
  let optimize () =
    let res =
      span Optimize (fun () -> D.optimize ~config:r.cfg.Svc.driver cat peeked)
    in
    if sp.on then begin
      let rp = res.D.res_report in
      c.parses <- c.parses + 1;
      c.states <- c.states + rp.D.rp_states_total;
      c.cutoff <- c.cutoff + rp.D.rp_states_cutoff;
      c.blocks <- c.blocks + rp.D.rp_blocks_optimized;
      c.reuse <- c.reuse + rp.D.rp_cache_hits;
      c.dp_pruned <- c.dp_pruned + rp.D.rp_dp_pruned
    end;
    res.D.res_annotation
  in
  let outcome, ann =
    match found with
    | `Hit e -> (Svc.Hit, e.Pc.e_ann)
    | `Stale e ->
        span Store (fun () -> Pc.count_invalidation r.cache ~h);
        let ann = optimize () in
        let old_cost = e.Pc.e_ann.Planner.Annotation.an_cost in
        let new_cost = ann.Planner.Annotation.an_cost in
        span Store (fun () ->
            let epochs = epochs_of cat e.Pc.e_tables in
            if
              Float.abs (new_cost -. old_cost)
              <= r.cfg.Svc.cost_delta *. Float.abs old_cost
            then begin
              Pc.refresh_epochs r.cache ~h e ~epochs;
              (Svc.Revalidated, e.Pc.e_ann)
            end
            else
              let e' = Pc.replace r.cache ~h ~old_e:e ~ann ~epochs in
              (Svc.Invalidated, e'.Pc.e_ann))
    | `Miss ->
        let ann = optimize () in
        span Store (fun () ->
            let tables =
              Walk.Sset.elements (Walk.all_tables_query Walk.Sset.empty peeked)
            in
            let e =
              Pc.store r.cache ~h ~key ~ann ~binds:(Fp.binds_count peeked)
                ~tables ~epochs:(epochs_of cat tables)
            in
            (Svc.Miss, e.Pc.e_ann))
  in
  let all_binds = Array.append user (Array.of_list extracted) in
  let cached = ann.Planner.Annotation.an_plan in
  let plan =
    if r.cfg.Svc.dop = Planner.Parallel.Serial then cached
    else
      memo r.par_plans cached (fun () ->
          span Parallel (fun () ->
              Planner.Parallel.apply cat ~dop:r.cfg.Svc.dop cached))
  in
  let card_of =
    memo r.hints plan (fun () ->
        span Hints (fun () -> Planner.Plan_est.pipeline_hints cat plan))
  in
  let es = Ex.engine_stats_create () in
  let a0 = allocated () in
  let layout, rows, meter =
    span Execute (fun () ->
        Ex.execute ~binds:all_binds ~batch_size:r.cfg.Svc.batch_size
          ~engine:r.cfg.Svc.engine ~card_of ~engine_stats:es r.db plan)
  in
  let a1 = allocated () in
  if sp.on then begin
    c.requests <- c.requests + 1;
    (match outcome with
    | Svc.Hit -> c.hits <- c.hits + 1
    | Svc.Miss -> c.misses <- c.misses + 1
    | Svc.Invalidated -> c.invalidated <- c.invalidated + 1
    | Svc.Revalidated -> c.revalidated <- c.revalidated + 1);
    c.rows_scanned <- c.rows_scanned + meter.Exec.Meter.rows_scanned;
    c.exec_alloc <- c.exec_alloc +. (a1 -. a0);
    c.vec <- c.vec + es.Ex.es_vector;
    c.row <- c.row + es.Ex.es_row;
    c.parts_scanned <- c.parts_scanned + es.Ex.es_parts_scanned;
    c.parts_pruned <- c.parts_pruned + es.Ex.es_parts_pruned;
    c.dop_max <- max c.dop_max es.Ex.es_dop;
    c.exchanges <- c.exchanges + exchanges plan
  end;
  let digest =
    Server.result_digest
      {
        Svc.r_layout = layout;
        r_rows = rows;
        r_nrows = List.length rows;
        r_outcome = outcome;
        r_cost = ann.Planner.Annotation.an_cost;
        r_parse_s = 0.;
      }
  in
  (outcome, digest)

(** Everything the traced run measured. *)
type result = {
  tot : totals;
  c : counts;
  wall_s : float;  (** replay wall clock, measured stream only *)
  divergence : string option;  (** first replica/service disagreement *)
  spans : spans;
}

(** Plan-cache shards the server gives a pool of [workers]. *)
let server_shards workers = 4 * max 1 workers

(** Replay the warm-up pass and then the first [requests] requests of
    the stream drawn from [seed] (stopping after [seconds] once
    [min_requests] are done),
    through the replica and the service side by side. The database's
    statistics are reset to the load-time sample first, as at the
    start of the untraced run. *)
let run (w : W.t) ~seed ~requests ~min_requests ~seconds : result =
  W.restats w W.initial_sample_seed;
  let shards = server_shards w.W.workers in
  let mk_cache () = Pc.create ~capacity:w.W.svc.Svc.capacity ~shards () in
  let r =
    {
      db = w.W.db;
      cfg = w.W.svc;
      cache = mk_cache ();
      par_plans = Ex.Ptbl.create 64;
      hints = Ex.Ptbl.create 64;
    }
  in
  let svc = Svc.create ~config:w.W.svc ~cache:(mk_cache ()) w.W.db in
  let sp = spans_create () in
  let tot = totals () in
  let c = counts () in
  let divergence = ref None in
  let diverge i msg =
    if !divergence = None then
      divergence := Some (Printf.sprintf "request %d: %s" i msg)
  in
  let one i sid =
    let st = w.W.stmts.(sid) in
    let service () =
      let a0 = allocated () in
      let res =
        span sp tot ~req:i Service_exec (fun () -> Svc.exec svc st.W.sql [])
      in
      if sp.on then c.svc_alloc <- c.svc_alloc +. (allocated () -. a0);
      res
    in
    (* whichever side runs second finds the data in the CPU caches, so
       the two take turns going first *)
    let res, (outcome, digest) =
      if i land 1 = 0 then
        let res = service () in
        (res, exec r sp tot c ~req:i st.W.sql)
      else
        let rep = exec r sp tot c ~req:i st.W.sql in
        (service (), rep)
    in
    if res.Svc.r_outcome <> outcome then
      diverge i
        (Printf.sprintf "replica %s, service %s" (Svc.outcome_name outcome)
           (Svc.outcome_name res.Svc.r_outcome));
    if Server.result_digest res <> digest then diverge i "result digests differ";
    if digest <> st.W.digest then diverge i ("reference digest mismatch on: " ^ st.W.sql)
  in
  Array.iteri (fun i _ -> one i i) w.W.stmts;
  let st0 = Pc.stats r.cache in
  sp.on <- true;
  let stream = w.W.stream seed in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let i = ref 0 in
  while !i < requests && (!i < min_requests || now () < deadline) do
    match stream () with
    | W.Refresh s ->
        c.refreshes <- c.refreshes + 1;
        span sp tot ~req:(-1) Analyze (fun () -> W.restats w s)
    | W.Req sid ->
        one !i sid;
        incr i
  done;
  let wall_s = now () -. t0 in
  sp.on <- false;
  let st1 = Pc.stats r.cache in
  c.evictions <- st1.Pc.evictions - st0.Pc.evictions;
  c.invalidations <- st1.Pc.invalidations - st0.Pc.invalidations;
  { tot; c; wall_s; divergence = !divergence; spans = sp }

let secs (r : result) l = r.tot.secs.(layer_index l)
let calls (r : result) l = r.tot.calls.(layer_index l)

(** Mean seconds per call of a layer that runs once per cached plan,
    warm-up replay included. *)
let per_plan_call (r : result) l =
  let i = layer_index l in
  if r.tot.once_calls.(i) = 0 then 0.
  else r.tot.once_secs.(i) /. float_of_int r.tot.once_calls.(i)

(** Summed replica layer time: with the service's bookkeeping it makes
    up the service's time. *)
let replica_secs r = List.fold_left (fun acc l -> acc +. secs r l) 0. replica_layers

(** Bookkeeping: the traced service time the replica's layer spans do
    not cover, in seconds over the measured replay. *)
let overhead_secs r = secs r Service_exec -. replica_secs r

(** Re-add the recorded spans: the replica's layer spans plus the
    service's bookkeeping must make up the traced service time. Fails
    when the span record and the reported totals disagree. *)
let sums_agree (r : result) =
  let sp = r.spans in
  let by_layer = Array.make nlayers 0. in
  for k = 0 to sp.n - 1 do
    by_layer.(sp.kind.(k)) <- by_layer.(sp.kind.(k)) +. sp.dur.(k)
  done;
  let replica =
    List.fold_left (fun a l -> a +. by_layer.(layer_index l)) 0. replica_layers
  in
  let service = by_layer.(layer_index Service_exec) in
  Float.abs (replica +. overhead_secs r -. service) <= 1e-6 *. Float.max 1. service

(** Write the spans as JSON Lines: one object per span, tagged with the
    request that caused it ([-1] for none). *)
let write_spans (r : result) path =
  let oc = open_out path in
  let sp = r.spans in
  for k = 0 to sp.n - 1 do
    output_string oc
      (Obs.Json.to_string
         (Obs.Json.Obj
            [
              ("req", Obs.Json.Int sp.req.(k));
              ("layer", Obs.Json.Str (layer_name layers.(sp.kind.(k))));
              ("start_us", Obs.Json.Float (sp.start.(k) *. 1e6));
              ("dur_us", Obs.Json.Float (sp.dur.(k) *. 1e6));
            ]));
    output_char oc '\n'
  done;
  close_out oc
