(** The query service layer: soft parse, bind parameterization and the
    shared plan cache.

    [exec] drives the full path a query takes through the system:

    + {b parse} the SQL text ({!Sqlparse.Parser});
    + {b peek} the caller's bind vector into any explicit [:n] markers
      (the optimizer may use peeked values for estimates — {e bind
      peeking} — never for legality);
    + {b parameterize} remaining constant literals into bind markers
      ({!Sqlir.Fingerprint.parameterize}), so queries differing only in
      literals share one cached plan;
    + {b probe} the plan cache under the [Generic] structural
      fingerprint. A valid hit is a {e soft parse}: the optimizer never
      runs. A miss is a {e hard parse}: the full CBQT pipeline
      ({!Cbqt.Driver.optimize}) compiles the peeked parameterized query
      and the plan is cached;
    + {b validate} hits against the catalog's per-table stats epochs.
      A stale snapshot triggers lazy recompilation; the {e cost-delta
      guard} keeps the old plan when re-costing under the new
      statistics moves the estimate by less than a threshold
      (refreshing the snapshot), avoiding plan churn on no-op stats
      refreshes;
    + {b execute} the entry's executable form
      ({!Plan_cache.exec_of}: the DOP post-pass plus the engine-choice
      hints, built once per cache entry and shared by every service over
      the cache) with the full bind vector (caller binds followed by
      extracted literals) substituted at execution time.

    Every probe emits a [Cache] trace span carrying the outcome and
    parse timing, so a service trace validates and aggregates with the
    driver's own spans. *)

open Sqlir

module Plan_cache = Plan_cache
(** Re-export: [Service] is the library's toplevel module. *)

module A = Ast
module D = Cbqt.Driver
module Db = Storage.Db
module Fp = Fingerprint
module Tr = Obs.Trace
module Mx = Obs.Metrics
module Qs = Obs.Query_store

type config = {
  capacity : int;  (** plan-cache entry bound *)
  cost_delta : float;
      (** relative cost-change threshold of the invalidation guard:
          keep the cached plan when
          [|new - old| <= cost_delta * old] *)
  driver : D.config;  (** CBQT configuration used for hard parses *)
  trace : Tr.level;  (** level of the service's own [Cache] spans *)
  batch_size : int;
      (** rows per block in the executor; results and meter totals do
          not depend on it, only throughput does *)
  engine : Exec.Executor.engine;
      (** execution engine policy: [Auto] picks row or vectorized per
          pipeline from the cached plan's cardinality estimates; [Row]
          and [Vector] force one path. Results and meter totals do not
          depend on it. *)
  dop : Planner.Parallel.dop;
      (** degree-of-parallelism policy applied as a post-pass over
          every cached plan: [Serial] leaves plans untouched, [Fixed n]
          wraps eligible partition-local regions in exchanges at degree
          [n], [Auto] sizes the degree from estimated scan volume and
          the machine's core count. Results and meter totals do not
          depend on it. Applied once per cache entry, so services
          sharing a cache share its DOP (see {!create}). *)
  metrics : bool;
      (** publish phase timers / cache outcomes to the process-wide
          {!Obs.Metrics.default} registry and accumulate the
          per-fingerprint query store. Also gated by the global
          {!Obs.Metrics.enabled} switch (the bench's overhead toggle). *)
  feedback : bool;
      (** execute in analyze mode and fold per-operator Q-error into
          the query store — the estimate-quality signal adaptive
          reoptimization consumes. Costs per-node stat collection, so
          off by default. *)
  store_capacity : int;  (** query-store fingerprint bound *)
}

let default_config =
  {
    capacity = 128;
    cost_delta = 0.1;
    driver = D.default_config;
    trace = Tr.Off;
    batch_size = Exec.Executor.default_batch_size;
    engine = Exec.Executor.Auto;
    dop = Planner.Parallel.Serial;
    metrics = true;
    feedback = false;
    store_capacity = 256;
  }

(** How a probe was resolved. *)
type outcome =
  | Hit  (** valid cache hit: soft parse *)
  | Miss  (** cold compile: hard parse, plan cached *)
  | Invalidated
      (** stale stats epoch; recompiled and the new plan replaced the
          cached one *)
  | Revalidated
      (** stale stats epoch; recompiled but the cost-delta guard kept
          the cached plan (snapshot refreshed) *)

let outcome_name = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Invalidated -> "invalidated"
  | Revalidated -> "revalidated"

type exec_result = {
  r_layout : Exec.Eval.layout;
  r_rows : Exec.Eval.row list;
  r_nrows : int;  (** [List.length r_rows], counted once here *)
  r_outcome : outcome;
  r_cost : float;  (** estimated cost of the executed plan *)
  r_parse_s : float;  (** soft- or hard-parse wall clock, seconds *)
}

type t = {
  db : Db.t;
  cfg : config;
  cache : Plan_cache.t;
  tracer : Tr.t;
  estats : Exec.Executor.engine_stats;
      (** pipeline engine choices accumulated over every execution *)
  mutable soft_parses : int;
  mutable soft_s : float;  (** total soft-parse seconds *)
  mutable hard_parses : int;
  mutable hard_s : float;  (** total hard-parse seconds *)
  store : A.query Qs.t;
      (** per-query-shape workload repository (AWR-style):
          execution counts, latency histograms, meter totals,
          transformation outcomes and Q-error per query shape *)
  meter_tot : int array;
      (** per-field meter totals in [Meter.field_names] order. A
          contiguous accumulator (two cache lines) bumped on every
          execution; bumping the 14 separately-allocated
          [svc_meter_total] counter records inline instead measurably
          dents throughput through cache pressure, so [report]
          publishes the registry counters from this array lazily. *)
  meter_pub : int array;
      (** the prefix of [meter_tot] already published to the registry *)
}

(* hot-path metric handles, registered when the module initializes, so
   an instrumented exec costs one bool check plus field bumps, never a
   registry lookup. [Mx.reset] zeroes values in place, so the handles
   stay valid across resets. *)
let m_soft_parse =
  Mx.histogram ~labels:[ ("kind", "soft") ] Mx.default "svc_parse_seconds"

let m_hard_parse =
  Mx.histogram ~labels:[ ("kind", "hard") ] Mx.default "svc_parse_seconds"

let m_execute = Mx.histogram Mx.default "svc_execute_seconds"
let m_rows = Mx.counter Mx.default "svc_rows_returned_total"

let m_outcome name =
  Mx.counter ~labels:[ ("outcome", name) ] Mx.default "svc_cache_outcomes_total"

let m_oc_hit = m_outcome "hit"
let m_oc_miss = m_outcome "miss"
let m_oc_inval = m_outcome "invalidated"
let m_oc_reval = m_outcome "revalidated"

(* the executor's per-request engine stats, published by [exec_ir] *)
let m_dispatch engine =
  Mx.counter ~labels:[ ("engine", engine) ] Mx.default
    "exec_pipeline_dispatch_total"

let m_dispatch_row = m_dispatch "row"
let m_dispatch_vector = m_dispatch "vector"
let m_parts_scanned = Mx.counter Mx.default "exec_partitions_scanned_total"
let m_parts_pruned = Mx.counter Mx.default "exec_partitions_pruned_total"
let m_exchange_dop = Mx.gauge Mx.default "exec_exchange_dop"

(* one counter per canonical meter field, in Meter.field_names order so
   positional iteration over Meter.values lines up *)
let m_meter_fields =
  Array.of_list
    (List.map
       (fun f -> Mx.counter ~labels:[ ("field", f) ] Mx.default "svc_meter_total")
       Exec.Meter.field_names)

(* the one shared name array the query store keys meter accumulation
   on (physical equality = the positional fast path) *)
let meter_names = Array.of_list Exec.Meter.field_names

(** [create ?cache ?store db] builds a service over [db]. [cache] and
    [store] default to private single-shard instances sized by the
    config; a concurrent server passes one {e shared} sharded plan
    cache and query store to all of its per-worker services, which is
    the only sharing the service layer needs — everything else in [t]
    (parse counters, engine stats, meter accumulators) is single-domain
    state owned by one worker. A cache entry's executable form is built
    at the DOP of the first service that executes it, so services
    sharing a [cache] must share one [config.dop]; {!Server} gives
    every worker the same config. *)
let create ?(config = default_config) ?cache ?store (db : Db.t) : t =
  {
    db;
    cfg = config;
    cache =
      (match cache with
      | Some c -> c
      | None -> Plan_cache.create ~capacity:config.capacity ());
    tracer = Tr.create config.trace;
    estats = Exec.Executor.engine_stats_create ();
    soft_parses = 0;
    soft_s = 0.;
    hard_parses = 0;
    hard_s = 0.;
    store =
      (match store with
      | Some s -> s
      | None -> Qs.create ~capacity:config.store_capacity ());
    meter_tot = Array.make (List.length Exec.Meter.field_names) 0;
    meter_pub = Array.make (List.length Exec.Meter.field_names) 0;
  }

let cache t = t.cache
let tracer t = t.tracer

let query_store t = t.store
(** The per-fingerprint workload repository accumulated by [exec]. *)

let metrics_on t = t.cfg.metrics && !Mx.enabled

let engine_stats t = t.estats
(** Pipeline engine choices accumulated over every execution. *)

(* both walk one consistent point-in-time view of the catalog's epoch
   map ([Catalog.epochs_snapshot] is the acquire side of the stats
   publication protocol), so a multi-table plan never records or
   validates against a mix of two different stats refreshes *)
let epochs_of t (tables : string list) : (string * int) list =
  let ep = Catalog.epochs_snapshot t.db.Db.cat in
  List.map (fun tb -> (tb, ep tb)) tables

let epochs_current t (snapshot : (string * int) list) : bool =
  let ep = Catalog.epochs_snapshot t.db.Db.cat in
  List.for_all (fun (tb, e) -> ep tb = e) snapshot

(** Hard parse: run the CBQT pipeline over the peeked parameterized
    query. Returns the full driver result so the transformation report
    can feed the query store. *)
let compile t (peeked : A.query) : D.result =
  D.optimize ~config:t.cfg.driver t.db.Db.cat peeked

(** How {!resolve} answered a probe: the live cache entry plus
    everything the query store wants to know about the parse.
    [rs_report] is the hard parse's optimizer report, [None] on a soft
    parse. *)
type resolved = {
  rs_entry : Plan_cache.entry;
      (** its [e_key] is the canonical parameterized query, so the query
          store verifies it by physical equality *)
  rs_outcome : outcome;
  rs_parse_s : float;
  rs_fp : int;  (** Generic fingerprint hash *)
  rs_report : D.report option;
}

(** Resolve [peeked] (parameterized query with peeks in place) to its
    live cache entry, compiling on a miss or a stale snapshot. *)
let resolve t (peeked : A.query) : resolved =
  let t0 = Unix.gettimeofday () in
  let key = Fp.canonical ~mode:Fp.Generic peeked in
  let h = Fp.hash ~mode:Fp.Generic key in
  let finish outcome ?report (e : Plan_cache.entry) =
    let dt = Unix.gettimeofday () -. t0 in
    (match outcome with
    | Hit ->
        t.soft_parses <- t.soft_parses + 1;
        t.soft_s <- t.soft_s +. dt
    | Miss | Invalidated | Revalidated ->
        t.hard_parses <- t.hard_parses + 1;
        t.hard_s <- t.hard_s +. dt);
    (if metrics_on t then begin
       Mx.observe (match outcome with Hit -> m_soft_parse | _ -> m_hard_parse) dt;
       Mx.inc
         (match outcome with
         | Hit -> m_oc_hit
         | Miss -> m_oc_miss
         | Invalidated -> m_oc_inval
         | Revalidated -> m_oc_reval)
     end);
    {
      rs_entry = e;
      rs_outcome = outcome;
      rs_parse_s = dt;
      rs_fp = h;
      rs_report = report;
    }
  in
  Tr.wrap_with t.tracer Tr.Cache "probe" (fun sp ->
      let r =
        match Plan_cache.find t.cache ~h ~key with
        | Some e when epochs_current t e.Plan_cache.e_epochs ->
            finish Hit e
        | Some e ->
            (* stale stats epoch: lazy recompilation *)
            Plan_cache.count_invalidation t.cache ~h;
            let res = compile t peeked in
            let ann = res.D.res_annotation in
            let report = res.D.res_report in
            let old_cost = e.Plan_cache.e_ann.Planner.Annotation.an_cost in
            let new_cost = ann.Planner.Annotation.an_cost in
            let epochs = epochs_of t e.Plan_cache.e_tables in
            if
              Float.abs (new_cost -. old_cost)
              <= t.cfg.cost_delta *. Float.abs old_cost
            then (
              (* cost-delta guard: the refreshed statistics do not move
                 the estimate enough to justify plan churn *)
              Plan_cache.refresh_epochs t.cache ~h e ~epochs;
              finish Revalidated ~report e)
            else
              let e' = Plan_cache.replace t.cache ~h ~old_e:e ~ann ~epochs in
              finish Invalidated ~report e'
        | None ->
            let res = compile t peeked in
            let ann = res.D.res_annotation in
            let tables =
              Walk.Sset.elements (Walk.all_tables_query Walk.Sset.empty peeked)
            in
            let e =
              Plan_cache.store t.cache ~h ~key ~ann
                ~binds:(Fp.binds_count peeked) ~tables
                ~epochs:(epochs_of t tables)
            in
            finish Miss ~report:res.D.res_report e
      in
      Tr.add_attrs sp
        [
          ("outcome", Tr.S (outcome_name r.rs_outcome));
          ( "parse",
            Tr.S (match r.rs_outcome with Hit -> "soft" | _ -> "hard") );
          ("parse_us", Tr.F (r.rs_parse_s *. 1e6));
          ("fingerprint", Tr.I h);
        ];
      r)

(** Collapse runs of whitespace so a canonical query renders as one
    report-table line. *)
let squeeze_ws s =
  let buf = Buffer.create (String.length s) in
  let pending = ref false in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\n' | '\t' | '\r' -> pending := true
      | c ->
          if !pending && Buffer.length buf > 0 then Buffer.add_char buf ' ';
          pending := false;
          Buffer.add_char buf c)
    s;
  Buffer.contents buf

(** Execute a parsed query. [binds] fills the query's explicit [:n]
    markers, in order; remaining constant literals are auto-
    parameterized and their values appended to the vector, so one
    cached plan serves every literal variant of the query shape. *)
let exec_ir t (q : A.query) (binds : Value.t list) : exec_result =
  let user = Array.of_list binds in
  let nexplicit = Fp.binds_count q in
  if Array.length user <> nexplicit then
    invalid_arg
      (Printf.sprintf "Service.exec: query references %d bind(s), %d given"
         nexplicit (Array.length user));
  let peeked = Fp.peek_binds q user in
  let peeked, extracted = Fp.parameterize peeked in
  let rs = resolve t peeked in
  let e = rs.rs_entry in
  let all_binds = Array.append user (Array.of_list extracted) in
  let { Plan_cache.x_plan = plan; x_card_of = card_of } =
    Plan_cache.exec_of e t.db.Db.cat ~dop:t.cfg.dop
  in
  let es = Exec.Executor.engine_stats_create () in
  let e0 = Unix.gettimeofday () in
  let layout, rows, meter, stat_of =
    Tr.wrap_with t.tracer Tr.Cache "execute" (fun sp ->
        let r =
          if t.cfg.feedback then
            let layout, rows, meter, stat_of =
              Exec.Executor.execute_analyzed ~binds:all_binds
                ~batch_size:t.cfg.batch_size ~engine:t.cfg.engine ~card_of
                ~engine_stats:es t.db plan
            in
            (layout, rows, meter, Some stat_of)
          else
            let layout, rows, meter =
              Exec.Executor.execute ~binds:all_binds
                ~batch_size:t.cfg.batch_size ~engine:t.cfg.engine ~card_of
                ~engine_stats:es t.db plan
            in
            (layout, rows, meter, None)
        in
        Tr.add_attrs sp
          [
            ("engine", Tr.S (Exec.Executor.engine_name t.cfg.engine));
            ("pipelines_vectorized", Tr.I es.Exec.Executor.es_vector);
            ("pipelines_row", Tr.I es.Exec.Executor.es_row);
          ];
        r)
  in
  let exec_s = Unix.gettimeofday () -. e0 in
  Exec.Cursor.add_engine_stats t.estats es;
  let nrows = List.length rows in
  (if metrics_on t then begin
     Mx.observe m_execute exec_s;
     Mx.add m_rows nrows;
     (* the request's engine stats are the executor's one count of its
        dispatches, partitions and DOP; zeros are skipped *)
     let add c n = if n > 0 then Mx.add c n in
     add m_dispatch_row es.Exec.Executor.es_row;
     add m_dispatch_vector es.Exec.Executor.es_vector;
     add m_parts_scanned es.Exec.Executor.es_parts_scanned;
     add m_parts_pruned es.Exec.Executor.es_parts_pruned;
     if es.Exec.Executor.es_dop > 0 then
       Mx.set m_exchange_dop (float_of_int es.Exec.Executor.es_dop);
     (* one flat int array, iterated positionally both here and inside
        the store; accumulated into the contiguous [meter_tot] rather
        than 14 scattered counter records (see the field doc) *)
     let vals = Exec.Meter.values meter in
     let tot = t.meter_tot in
     Array.iteri (fun i v -> tot.(i) <- tot.(i) + v) vals;
     (* hard-parse transformation outcomes and analyze-mode Q-errors
        ride into the store through [observe] so the whole entry
        update happens under one shard lock (concurrent executions of
        the same shape never interleave a half-attached update) *)
     let txs =
       match rs.rs_report with
       | None -> []
       | Some rp ->
           List.map
             (fun s ->
               (s.D.sr_name, List.exists Fun.id s.D.sr_chosen))
             rp.D.rp_steps
     in
     (* per-operator Q-errors of an analyze-mode run against a fresh
        estimate of the cached plan, in reverse pre-order *)
     let qerrs =
       match stat_of with
       | Some stat_of ->
           let cat = t.db.Db.cat in
           let _, est_of = Planner.Plan_est.estimate cat plan in
           List.rev
             (Cbqt.Explain.q_errors
                (Cbqt.Explain.ops_of_run cat plan ~est_of ~stat_of))
       | None -> []
     in
     ignore
       (Qs.observe t.store ~txs ~qerrs ~fp:rs.rs_fp ~key:e.Plan_cache.e_key
          ~dop:es.Exec.Executor.es_dop
          ~parts_scanned:es.Exec.Executor.es_parts_scanned
          ~parts_pruned:es.Exec.Executor.es_parts_pruned
          ~text:(fun () -> squeeze_ws (Pp.query_to_string e.Plan_cache.e_key))
          ~outcome:(outcome_name rs.rs_outcome)
          ~rows:nrows ~exec_s ~parse_s:rs.rs_parse_s
          ~meter_names ~meter:vals
          ~vec_pipelines:es.Exec.Executor.es_vector
          ~row_pipelines:es.Exec.Executor.es_row)
   end);
  {
    r_layout = layout;
    r_rows = rows;
    r_nrows = nrows;
    r_outcome = rs.rs_outcome;
    r_cost = e.Plan_cache.e_ann.Planner.Annotation.an_cost;
    r_parse_s = rs.rs_parse_s;
  }

(** Parse and execute SQL text. Raises {!Sqlparse.Parser.Parse_error}
    (via [parse_exn]) on malformed input. *)
let exec t (sql : string) (binds : Value.t list) : exec_result =
  exec_ir t (Sqlparse.Parser.parse_exn t.db.Db.cat sql) binds

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)
(* ------------------------------------------------------------------ *)

type report = {
  sv_soft_parses : int;
  sv_soft_avg_us : float;
  sv_hard_parses : int;
  sv_hard_avg_us : float;
  sv_hits : int;
  sv_misses : int;
  sv_hit_rate : float;
  sv_evictions : int;
  sv_invalidations : int;
  sv_collisions : int;
  sv_entries : int;
  sv_memory_words : int;
}

let report t : report =
  let st = Plan_cache.stats t.cache in
  let avg total n = if n = 0 then 0. else total /. float_of_int n *. 1e6 in
  (if metrics_on t then begin
     (* publish the meter totals accumulated by [exec_ir] into the
        svc_meter_total counters (delta since the last publish, so
        repeated reports do not double count) *)
     let mf = m_meter_fields in
     Array.iteri
       (fun i v ->
         let d = v - t.meter_pub.(i) in
         if d <> 0 then begin
           Mx.add mf.(i) d;
           t.meter_pub.(i) <- v
         end)
       t.meter_tot;
     (* refresh the cache gauges at report time so a snapshot taken
        right after (serve --metrics-out, stats) sees current values *)
     Plan_cache.publish_metrics t.cache
   end);
  {
    sv_soft_parses = t.soft_parses;
    sv_soft_avg_us = avg t.soft_s t.soft_parses;
    sv_hard_parses = t.hard_parses;
    sv_hard_avg_us = avg t.hard_s t.hard_parses;
    sv_hits = st.Plan_cache.hits;
    sv_misses = st.Plan_cache.misses;
    sv_hit_rate = Plan_cache.hit_rate t.cache;
    sv_evictions = st.Plan_cache.evictions;
    sv_invalidations = st.Plan_cache.invalidations;
    sv_collisions = st.Plan_cache.collisions;
    sv_entries = Plan_cache.length t.cache;
    sv_memory_words = Plan_cache.memory_words t.cache;
  }

(** Stable, aligned report format (label column + value), mirroring
    {!Cbqt.Driver.pp_report}. *)
let pp_report ppf (r : report) =
  let line label pp_v = Fmt.pf ppf "  %-18s %t@." label pp_v in
  Fmt.pf ppf "service report@.";
  line "soft parses" (fun ppf ->
      Fmt.pf ppf "%d (avg %.1f us)" r.sv_soft_parses r.sv_soft_avg_us);
  line "hard parses" (fun ppf ->
      Fmt.pf ppf "%d (avg %.1f us)" r.sv_hard_parses r.sv_hard_avg_us);
  line "cache hits" (fun ppf -> Fmt.pf ppf "%d" r.sv_hits);
  line "cache misses" (fun ppf -> Fmt.pf ppf "%d" r.sv_misses);
  line "hit rate" (fun ppf -> Fmt.pf ppf "%.2f" r.sv_hit_rate);
  line "evictions" (fun ppf -> Fmt.pf ppf "%d" r.sv_evictions);
  line "invalidations" (fun ppf -> Fmt.pf ppf "%d" r.sv_invalidations);
  line "collisions" (fun ppf -> Fmt.pf ppf "%d" r.sv_collisions);
  line "entries" (fun ppf -> Fmt.pf ppf "%d" r.sv_entries);
  line "memory words" (fun ppf -> Fmt.pf ppf "%d" r.sv_memory_words)
