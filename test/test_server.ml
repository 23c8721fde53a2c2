(** Tests for the concurrent query server ([lib/server]) and the
    domain safety of the layers under it.

    - {!Concur.Chan}: FIFO order, admission (try_push on a full ring), close
      semantics, and exact element conservation under concurrent
      producers and consumers.
    - Pool correctness: an N-worker run of a workload produces exactly
      the 1-worker run's result multiset (per-pass digests equal), warm
      passes hit the shared cache fully on every worker count, and
      nothing fails under the [--check] sanitizer config.
    - Epoch bump during traffic: a stats-epoch bump between concurrent
      passes invalidates cleanly across workers and changes no results.
    - Admission control: under queue saturation and under a tiny
      deadline, every submitted request resolves to exactly one outcome
      and the pool's accounting identity holds.
    - Shared-store / shared-cache accounting: concurrent observes are
      conserved exactly (no lost updates), and {!Concur.Lru} keeps its
      bound and balances its counters while evicting under contention.
    - The registry adds up: its executor, eviction and row counters
      equal the query store's and the cache's own counts. *)

module QG = Workload.Query_gen
module SG = Workload.Schema_gen
module Svc = Service
module Sv = Server
module Pc = Service.Plan_cache
module Qs = Obs.Query_store
module Mx = Obs.Metrics
module D = Cbqt.Driver

(* tiny database: these tests compile and execute many statements *)
let db, schema =
  SG.build ~families:2 ~sample_frac:0.5 ~row_scale:0.04 ~seed:177 ()

let workload_stmts n seed =
  let g = QG.create ~seed schema in
  List.map (fun it -> Sv.Ir it.QG.it_query) (QG.workload g n)

(* ------------------------------------------------------------------ *)
(* Chan                                                                 *)
(* ------------------------------------------------------------------ *)

let test_chan_fifo () =
  let c = Concur.Chan.create ~capacity:8 in
  for i = 1 to 8 do
    Alcotest.(check bool) "push accepted" true (Concur.Chan.try_push c i)
  done;
  Alcotest.(check int) "length" 8 (Concur.Chan.length c);
  for i = 1 to 8 do
    Alcotest.(check (option int)) "fifo order" (Some i) (Concur.Chan.pop c)
  done

let test_chan_admission () =
  let c = Concur.Chan.create ~capacity:2 in
  Alcotest.(check bool) "1st accepted" true (Concur.Chan.try_push c 1);
  Alcotest.(check bool) "2nd accepted" true (Concur.Chan.try_push c 2);
  Alcotest.(check bool) "3rd rejected (full)" false (Concur.Chan.try_push c 3);
  ignore (Concur.Chan.pop c);
  Alcotest.(check bool) "accepted after pop" true (Concur.Chan.try_push c 3)

let test_chan_close_drains () =
  let c = Concur.Chan.create ~capacity:8 in
  ignore (Concur.Chan.try_push c 1);
  ignore (Concur.Chan.try_push c 2);
  Concur.Chan.close c;
  Alcotest.(check bool) "push after close fails" false (Concur.Chan.try_push c 3);
  Alcotest.(check (option int)) "drains 1" (Some 1) (Concur.Chan.pop c);
  Alcotest.(check (option int)) "drains 2" (Some 2) (Concur.Chan.pop c);
  Alcotest.(check (option int)) "then None" None (Concur.Chan.pop c)

(* 2 producers x 2 consumers over a small ring: every pushed element is
   consumed exactly once (conservation), using blocking push as
   backpressure *)
let test_chan_concurrent_conservation () =
  let c = Concur.Chan.create ~capacity:4 in
  let per_producer = 500 in
  let producers =
    Array.init 2 (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to per_producer - 1 do
              ignore (Concur.Chan.push c ((p * per_producer) + i))
            done))
  in
  let consumers =
    Array.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let rec drain acc =
              match Concur.Chan.pop c with
              | None -> acc
              | Some v -> drain (v :: acc)
            in
            drain []))
  in
  Array.iter Domain.join producers;
  Concur.Chan.close c;
  let got =
    Array.fold_left (fun acc d -> Domain.join d @ acc) [] consumers
  in
  let expect = List.init (2 * per_producer) Fun.id in
  Alcotest.(check (list int))
    "every element consumed exactly once" expect (List.sort compare got)

(* ------------------------------------------------------------------ *)
(* Pool: multi-worker determinism                                       *)
(* ------------------------------------------------------------------ *)

type pass_result = {
  pr_digest : int;
  pr_done : int;
  pr_failed : int;
  pr_hits : int;  (** shared-cache hits this pass *)
}

(** Run [passes] passes of [stmts] through a fresh pool and return the
    per-pass digests/outcome counts plus the final pool report. *)
let run_pool ?(check = false) ~workers ~passes stmts :
    pass_result list * Sv.report =
  let svc =
    {
      Svc.default_config with
      Svc.driver =
        (if check then { D.default_config with D.check = true }
         else D.default_config);
    }
  in
  let pool =
    Sv.create ~config:{ Sv.default_config with Sv.workers; svc } db
  in
  let se = Sv.session pool in
  let results =
    List.init passes (fun _ ->
        let hits0 = (Pc.stats (Sv.cache pool)).Pc.hits in
        let outcomes = Sv.run_batch pool se stmts in
        {
          pr_digest = Sv.outcomes_digest outcomes;
          pr_done =
            List.length
              (List.filter (function Sv.Done _ -> true | _ -> false) outcomes);
          pr_failed =
            List.length
              (List.filter (function Sv.Failed _ -> true | _ -> false) outcomes);
          pr_hits = (Pc.stats (Sv.cache pool)).Pc.hits - hits0;
        })
  in
  Sv.shutdown pool;
  let rp = Sv.report pool in
  (results, rp)

let test_multiworker_determinism () =
  let n = 16 in
  let stmts = workload_stmts n 402 in
  let ref_passes, ref_rp = run_pool ~check:true ~workers:1 ~passes:2 stmts in
  let par_passes, par_rp = run_pool ~check:true ~workers:4 ~passes:2 stmts in
  List.iteri
    (fun i (r1, rn) ->
      Alcotest.(check int)
        (Printf.sprintf "pass %d digest: 4 workers == 1 worker" (i + 1))
        r1.pr_digest rn.pr_digest;
      Alcotest.(check int)
        (Printf.sprintf "pass %d all done" (i + 1))
        n rn.pr_done;
      Alcotest.(check int)
        (Printf.sprintf "pass %d no --check failures" (i + 1))
        0 rn.pr_failed)
    (List.combine ref_passes par_passes);
  (* warm pass: every statement soft-parses on both worker counts *)
  let warm ps = (List.nth ps 1).pr_hits in
  Alcotest.(check int) "1-worker warm pass all hits" n (warm ref_passes);
  Alcotest.(check int) "4-worker warm pass all hits" n (warm par_passes);
  (* accounting identity on both pools *)
  List.iter
    (fun rp ->
      Alcotest.(check int)
        "submitted = done + failed + rejected + timed_out" rp.Sv.rp_submitted
        (rp.Sv.rp_done + rp.Sv.rp_failed + rp.Sv.rp_rejected
       + rp.Sv.rp_timed_out))
    [ ref_rp; par_rp ];
  (* racing hard parses may compile a shape twice, but dedupe-at-store
     keeps the cache itself duplicate-free, so hit rates agree within
     the duplicated-compile tolerance: warm-pass hits already checked
     exact; cold-pass misses may exceed the 1-worker count *)
  Alcotest.(check bool)
    "4-worker misses at least the distinct shapes" true
    (par_rp.Sv.rp_cache.Pc.misses >= ref_rp.Sv.rp_cache.Pc.misses)

(* ------------------------------------------------------------------ *)
(* Epoch bump during traffic                                            *)
(* ------------------------------------------------------------------ *)

let test_epoch_bump_during_traffic () =
  let n = 12 in
  let stmts = workload_stmts n 981 in
  let pool =
    Sv.create ~config:{ Sv.default_config with Sv.workers = 4 } db
  in
  let se = Sv.session pool in
  (* pass 1: cold compile everything *)
  let o1 = Sv.run_batch pool se stmts in
  let d1 = Sv.outcomes_digest o1 in
  (* pass 2 submitted, then every table's epoch bumped while workers
     are (possibly still) draining the queue *)
  let handles = List.map (fun s -> Sv.submit_wait pool se s) stmts in
  List.iter
    (fun tb -> Catalog.bump_epoch db.Storage.Db.cat tb)
    (Catalog.table_names db.Storage.Db.cat);
  let o2 = List.map Sv.await handles in
  (* pass 3: every probe of a plan cached before the bump is stale *)
  let o3 = Sv.run_batch pool se stmts in
  Sv.shutdown pool;
  let st = Pc.stats (Sv.cache pool) in
  let all_done os =
    List.for_all (function Sv.Done _ -> true | _ -> false) os
  in
  Alcotest.(check bool) "all passes executed" true
    (all_done o1 && all_done o2 && all_done o3);
  Alcotest.(check int) "bump changes no results (pass 2)" d1
    (Sv.outcomes_digest o2);
  Alcotest.(check int) "bump changes no results (pass 3)" d1
    (Sv.outcomes_digest o3);
  Alcotest.(check bool)
    (Printf.sprintf "stale probes counted as invalidations (%d)"
       st.Pc.invalidations)
    true
    (st.Pc.invalidations >= 1)

(* ------------------------------------------------------------------ *)
(* Admission control                                                    *)
(* ------------------------------------------------------------------ *)

let outcome_counts (os : Sv.outcome list) =
  List.fold_left
    (fun (d, f, r, t) -> function
      | Sv.Done _ -> (d + 1, f, r, t)
      | Sv.Failed _ -> (d, f + 1, r, t)
      | Sv.Rejected -> (d, f, r + 1, t)
      | Sv.Timed_out -> (d, f, r, t + 1))
    (0, 0, 0, 0) os

(* hammer a 2-slot queue with non-blocking submits: nothing is lost or
   duplicated — every request resolves, the counts add up, and the
   overload shows up as explicit rejections *)
let test_queue_saturation () =
  let stmts = workload_stmts 8 555 in
  let pool =
    Sv.create
      ~config:{ Sv.default_config with Sv.workers = 2; queue_depth = 2 }
      db
  in
  let se = Sv.session pool in
  let total = 120 in
  let handles =
    List.init total (fun i -> Sv.submit pool se (List.nth stmts (i mod 8)))
  in
  let outcomes = List.map Sv.await handles in
  Sv.shutdown pool;
  let rp = Sv.report pool in
  let d, f, r, t = outcome_counts outcomes in
  Alcotest.(check int) "every request resolved" total (d + f + r + t);
  Alcotest.(check int) "pool counted every submission" total rp.Sv.rp_submitted;
  Alcotest.(check int) "pool accounting identity" total
    (rp.Sv.rp_done + rp.Sv.rp_failed + rp.Sv.rp_rejected + rp.Sv.rp_timed_out);
  Alcotest.(check int) "handle outcomes match pool counters" d rp.Sv.rp_done;
  Alcotest.(check int) "rejections agree" r rp.Sv.rp_rejected;
  Alcotest.(check bool)
    (Printf.sprintf "overload rejects (%d of %d)" r total)
    true (r > 0);
  Alcotest.(check int) "nothing failed" 0 f;
  (* session-level counters see the same accounting *)
  let ss = se.Sv.se_stats in
  Alcotest.(check int) "session submitted" total (Atomic.get ss.Sv.ss_submitted);
  Alcotest.(check int) "session outcomes conserved" total
    (Atomic.get ss.Sv.ss_done + Atomic.get ss.Sv.ss_failed
    + Atomic.get ss.Sv.ss_rejected + Atomic.get ss.Sv.ss_timed_out)

(* a vanishing deadline: the first request may sneak through, everything
   behind it ages out in the queue and times out without executing *)
let test_deadline_times_out () =
  let stmts = workload_stmts 4 556 in
  let pool =
    Sv.create
      ~config:
        {
          Sv.default_config with
          Sv.workers = 1;
          queue_depth = 64;
          deadline_s = 1e-9;
        }
      db
  in
  let se = Sv.session pool in
  let total = 20 in
  let handles =
    List.init total (fun i -> Sv.submit pool se (List.nth stmts (i mod 4)))
  in
  let outcomes = List.map Sv.await handles in
  Sv.shutdown pool;
  let d, f, r, t = outcome_counts outcomes in
  Alcotest.(check int) "every request resolved" total (d + f + r + t);
  Alcotest.(check int) "nothing failed" 0 f;
  Alcotest.(check int) "nothing rejected" 0 r;
  Alcotest.(check bool)
    (Printf.sprintf "queued requests age out (%d timed out)" t)
    true
    (t >= total - 1)

(* ------------------------------------------------------------------ *)
(* Shared accounting under concurrency                                  *)
(* ------------------------------------------------------------------ *)

(* 4 domains hammer one sharded query store: execution counts, rows and
   meter sums are conserved exactly (the lost-update test) *)
let test_store_concurrent_exactness () =
  let store = Qs.create ~capacity:64 ~shards:8 () in
  let names = [| "a"; "b" |] in
  let domains = 4 and per_domain = 1000 and fps = 10 in
  let ds =
    Array.init domains (fun _ ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              ignore
                (Qs.observe store ~fp:(i mod fps) ~key:(i mod fps)
                   ~text:(fun () -> Printf.sprintf "q%d" (i mod fps))
                   ~outcome:(if i mod 3 = 0 then "miss" else "hit")
                   ~rows:2 ~exec_s:1e-6 ~parse_s:1e-7 ~meter_names:names
                   ~meter:[| 1; 3 |] ~vec_pipelines:1 ~row_pipelines:0
                   ~txs:[ ("JPD", true) ] ~qerrs:[ 1.5 ])
            done))
  in
  Array.iter Domain.join ds;
  let es = Qs.entries store in
  let total = domains * per_domain in
  Alcotest.(check int) "one entry per fingerprint" fps (Qs.length store);
  Alcotest.(check int) "executions conserved" total
    (List.fold_left (fun acc e -> acc + e.Qs.qe_execs) 0 es);
  Alcotest.(check int) "rows conserved" (2 * total)
    (List.fold_left (fun acc e -> acc + e.Qs.qe_rows) 0 es);
  Alcotest.(check int) "meter fields conserved" (3 * total)
    (List.fold_left (fun acc e -> acc + Qs.meter_field e "b") 0 es);
  Alcotest.(check int) "qerr samples conserved" total
    (List.fold_left (fun acc e -> acc + e.Qs.qe_qerr_n) 0 es);
  List.iter
    (fun e ->
      Alcotest.(check int) "latency histogram counts every execution"
        e.Qs.qe_execs
        (Mx.hist_count e.Qs.qe_latency);
      Alcotest.(check int) "soft + hard = execs" e.Qs.qe_execs
        (e.Qs.qe_soft + e.Qs.qe_hard))
    es

(* racing stores of the same key are deduped: the cache holds one entry
   per shape and words/entries accounting survives a concurrent
   hammering exactly *)
let test_cache_accounting_under_contention () =
  let stmts = workload_stmts 10 77 in
  let pool =
    Sv.create ~config:{ Sv.default_config with Sv.workers = 4 } db
  in
  let se = Sv.session pool in
  (* two concurrent passes of the same statements: maximal racing on
     the same keys *)
  let handles =
    List.concat_map
      (fun _ -> List.map (fun s -> Sv.submit_wait pool se s) stmts)
      [ (); () ]
  in
  List.iter (fun h -> ignore (Sv.await h)) handles;
  Sv.shutdown pool;
  let cache = Sv.cache pool in
  let distinct = List.length stmts in
  Alcotest.(check bool)
    (Printf.sprintf "no duplicate entries (%d <= %d)" (Pc.length cache)
       distinct)
    true
    (Pc.length cache <= distinct);
  Alcotest.(check bool) "memory accounted" true (Pc.memory_words cache > 0);
  let st = Pc.stats cache in
  Alcotest.(check int) "no evictions in a roomy cache" 0 st.Pc.evictions

(* 4 domains probe 40 keys through an 8-entry, 4-shard LRU, inserting
   on every miss, so shards evict under contention. Keys share hashes
   (40 keys on 12 hashes), so probes also skip colliding entries. After
   the join the bound holds and every counter balances exactly. *)
let test_lru_concurrent_eviction () =
  let module Lru = Concur.Lru in
  let lru = Lru.create ~capacity:8 ~shards:4 in
  let domains = 4 and per_domain = 2000 and keys = 40 in
  let inserts = Atomic.make 0 and wrong = Atomic.make 0 in
  let value k = Printf.sprintf "v%d" k ^ String.make k '.' in
  let ds =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              let k = ((i * 7) + (d * 13)) mod keys in
              let key = Printf.sprintf "k%d" k and h = k mod 12 in
              match Lru.find lru ~h key with
              | Some v -> if v <> value k then Atomic.incr wrong
              | None ->
                  ignore
                    (Lru.add lru ~h key (fun () ->
                         Atomic.incr inserts;
                         value k))
            done))
  in
  Array.iter Domain.join ds;
  let st = Lru.stats lru and live = Lru.values lru in
  Alcotest.(check int) "probes return their own key's value" 0
    (Atomic.get wrong);
  Alcotest.(check int) "length matches the live values" st.Lru.entries
    (List.length live);
  Alcotest.(check bool)
    (Printf.sprintf "bounded (%d <= 8)" st.Lru.entries)
    true (st.Lru.entries <= 8);
  Alcotest.(check int) "hits + misses = probes" (domains * per_domain)
    (st.Lru.hits + st.Lru.misses);
  Alcotest.(check int) "evictions = inserts - length"
    (Atomic.get inserts - st.Lru.entries)
    st.Lru.evictions;
  Alcotest.(check int) "words = sum over live entries"
    (List.fold_left
       (fun acc v -> acc + Obj.reachable_words (Obj.repr v))
       0 live)
    st.Lru.words

(* The registry is published from the one count of each fact: after a
   partitioned workload through a 4-worker pool at dop 2 and a cache
   too small for its shapes, the executor counters equal the query
   store's sums, the eviction counter equals the cache's own count, and
   the returned-rows counter equals the store's rows. A direct executor
   run publishes nothing: only the service writes the exec_* counters. *)
let test_registry_adds_up () =
  let pdb, pschema =
    SG.build ~families:2 ~sample_frac:0.5 ~row_scale:0.04 ~partitions:4
      ~seed:177 ()
  in
  let counter ?(labels = []) name =
    Mx.counter_value (Mx.counter ~labels Mx.default name)
  in
  let exec_counters () =
    [
      counter ~labels:[ ("engine", "row") ] "exec_pipeline_dispatch_total";
      counter ~labels:[ ("engine", "vector") ] "exec_pipeline_dispatch_total";
      counter "exec_partitions_scanned_total";
      counter "exec_partitions_pruned_total";
    ]
  in
  let before = exec_counters () in
  let evict0 = counter "plan_cache_evictions_total" in
  let rows0 = counter "svc_rows_returned_total" in
  let stmts =
    let g = QG.create ~seed:404 pschema in
    List.map (fun it -> Sv.Ir it.QG.it_query) (QG.workload g 40)
  in
  let svc =
    { Svc.default_config with Svc.capacity = 8; dop = Planner.Parallel.Fixed 2 }
  in
  let pool =
    Sv.create ~config:{ Sv.default_config with Sv.workers = 4; svc } pdb
  in
  let se = Sv.session pool in
  for _ = 1 to 2 do
    ignore (Sv.run_batch pool se stmts)
  done;
  Sv.shutdown pool;
  let rp = Sv.report pool in
  let store = Sv.query_store pool in
  let es = Qs.entries store in
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 es in
  let delta = List.map2 ( - ) (exec_counters ()) before in
  Alcotest.(check int) "no query-store evictions" 0 (Qs.evictions store);
  Alcotest.(check int) "every request done" 80 rp.Sv.rp_done;
  Alcotest.(check (list int))
    "dispatch and partition counters = store and pool sums"
    [
      sum (fun e -> e.Qs.qe_row_pipelines);
      sum (fun e -> e.Qs.qe_vec_pipelines);
      rp.Sv.rp_parts_scanned;
      rp.Sv.rp_parts_pruned;
    ]
    delta;
  Alcotest.(check bool) "exchanges scanned partitions" true
    (rp.Sv.rp_parts_scanned > 0 && rp.Sv.rp_dop_max = 2);
  let evictions = rp.Sv.rp_cache.Pc.evictions in
  Alcotest.(check bool)
    (Printf.sprintf "the small cache evicts (%d)" evictions)
    true (evictions > 0);
  Alcotest.(check int) "eviction counter = cache evictions" evictions
    (counter "plan_cache_evictions_total" - evict0);
  Alcotest.(check int) "rows counter = store rows"
    (sum (fun e -> e.Qs.qe_rows))
    (counter "svc_rows_returned_total" - rows0);
  (* a direct executor run of an exchange plan counts only into its own
     engine stats *)
  let before = exec_counters () in
  let es = Exec.Executor.engine_stats_create () in
  let plan =
    Exec.Plan.Exchange
      {
        child =
          Exec.Plan.Part_scan
            {
              table = "f0_fact0";
              alias = "f";
              filter = [];
              prune = Exec.Plan.Pr_none;
            };
        dop = 2;
      }
  in
  ignore (Exec.Executor.execute ~engine_stats:es pdb plan);
  Alcotest.(check bool) "the exchange ran" true
    (es.Exec.Executor.es_parts_scanned > 0 && es.Exec.Executor.es_dop = 2);
  Alcotest.(check (list int)) "direct execution leaves exec_* unchanged" before
    (exec_counters ())

(* ------------------------------------------------------------------ *)
(* QCheck: concurrent service execs conserve store counts               *)
(* ------------------------------------------------------------------ *)

let classes =
  [ QG.C_spj; QG.C_exists; QG.C_in_multi; QG.C_agg_subq; QG.C_gb_view ]

let gen_input =
  QCheck.make
    ~print:(fun (w, seed) -> Printf.sprintf "%d workers (seed %d)" w seed)
    QCheck.Gen.(pair (int_range 2 4) (int_bound 100000))

let prop_concurrent_execs_conserved =
  QCheck.Test.make ~count:8
    ~name:"N-worker run conserves query-store execution counts" gen_input
    (fun (workers, seed) ->
      let g = QG.create ~seed schema in
      let stmts =
        List.map (fun cls -> Sv.Ir (QG.generate g cls)) classes
      in
      let pool =
        Sv.create ~config:{ Sv.default_config with Sv.workers } db
      in
      let se = Sv.session pool in
      let passes = 3 in
      for _ = 1 to passes do
        ignore (Sv.run_batch pool se stmts)
      done;
      Sv.shutdown pool;
      let total = passes * List.length stmts in
      let execs =
        List.fold_left
          (fun acc e -> acc + e.Qs.qe_execs)
          0
          (Qs.entries (Sv.query_store pool))
      in
      let rp = Sv.report pool in
      execs = total && rp.Sv.rp_done = total
      && rp.Sv.rp_soft_parses + rp.Sv.rp_hard_parses = total)

let () =
  let to_alco = QCheck_alcotest.to_alcotest in
  Alcotest.run "server"
    [
      ( "chan",
        [
          Alcotest.test_case "fifo" `Quick test_chan_fifo;
          Alcotest.test_case "admission" `Quick test_chan_admission;
          Alcotest.test_case "close drains" `Quick test_chan_close_drains;
          Alcotest.test_case "concurrent conservation" `Quick
            test_chan_concurrent_conservation;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "multi-worker == single-worker" `Quick
            test_multiworker_determinism;
          Alcotest.test_case "epoch bump during traffic" `Quick
            test_epoch_bump_during_traffic;
        ] );
      ( "admission",
        [
          Alcotest.test_case "queue saturation" `Quick test_queue_saturation;
          Alcotest.test_case "deadline timeout" `Quick test_deadline_times_out;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "store concurrent exactness" `Quick
            test_store_concurrent_exactness;
          Alcotest.test_case "cache accounting under contention" `Quick
            test_cache_accounting_under_contention;
          Alcotest.test_case "lru eviction under contention" `Quick
            test_lru_concurrent_eviction;
          Alcotest.test_case "registry adds up" `Quick test_registry_adds_up;
        ] );
      ("properties", [ to_alco prop_concurrent_execs_conserved ]);
    ]
