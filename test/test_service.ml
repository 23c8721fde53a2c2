(** Tests for the query service layer ([lib/service]) and its
    supporting analysis rules.

    Properties (QCheck over the random workload generator):

    - parameterizing a query and supplying the extracted literals as
      binds returns the same rows as executing the literal query;
    - a cache hit returns the identical plan and cost annotation as a
      cold compile under the same stats epochs;
    - bumping a table's stats epoch forces recompilation on the next
      probe (Invalidated or, under the cost-delta guard, Revalidated).

    Unit tests cover [:n] bind parsing, the bind-count guard, LRU
    eviction, the per-entry executable form (shared by services over
    one cache, released on eviction), IR015 (negative bind index) and
    TX001 (over-copying). *)

module QG = Workload.Query_gen
module SG = Workload.Schema_gen
module A = Sqlir.Ast
module V = Sqlir.Value
module Fp = Sqlir.Fingerprint
module Walk = Sqlir.Walk
module Svc = Service
module Pc = Service.Plan_cache
module D = Cbqt.Driver

(* tiny database: these tests compile and execute many statements *)
let db, schema =
  SG.build ~families:2 ~sample_frac:0.5 ~row_scale:0.04 ~seed:77 ()

let classes =
  [ QG.C_spj; QG.C_exists; QG.C_in_multi; QG.C_agg_subq; QG.C_gb_view ]

let gen_query =
  QCheck.make
    ~print:(fun (cls, seed) ->
      Printf.sprintf "%s (seed %d)" (QG.class_name cls) seed)
    QCheck.Gen.(pair (oneofl classes) (int_bound 100000))

let query_of (cls, seed) =
  let g = QG.create ~seed schema in
  QG.generate g cls

let norm rows = List.sort (List.compare V.compare_total) rows
let norm_arrays rows = norm (List.map Array.to_list rows)

(** Cold path: full CBQT compile of the literal query, executed with no
    binds. *)
let literal_rows (q : A.query) =
  let res = D.optimize db.Storage.Db.cat q in
  let _, rows, _ =
    Exec.Executor.execute db res.D.res_annotation.Planner.Annotation.an_plan
  in
  norm_arrays rows

let plan_str (ann : Planner.Annotation.t) =
  Fmt.str "%a" (Exec.Plan.pp ~indent:0) ann.Planner.Annotation.an_plan

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* parameterize + execute-with-binds == execute the literal query *)
let prop_parameterize_equivalence =
  QCheck.Test.make ~count:50 ~name:"parameterized execution == literal"
    gen_query (fun input ->
      let q = query_of input in
      let pq, extracted = Fp.parameterize q in
      let res = D.optimize db.Storage.Db.cat pq in
      let _, rows, _ =
        Exec.Executor.execute
          ~binds:(Array.of_list extracted)
          db res.D.res_annotation.Planner.Annotation.an_plan
      in
      norm_arrays rows = literal_rows q)

(* the full service path (peek, parameterize, cache, execute) returns
   the literal query's rows — on the miss AND on the subsequent hit *)
let prop_service_equivalence =
  QCheck.Test.make ~count:50 ~name:"service exec == literal, cold and warm"
    gen_query (fun input ->
      let q = query_of input in
      let svc = Svc.create db in
      let expect = literal_rows q in
      let r1 = Svc.exec_ir svc q [] in
      let r2 = Svc.exec_ir svc q [] in
      r1.Svc.r_outcome = Svc.Miss
      && r2.Svc.r_outcome = Svc.Hit
      && norm_arrays r1.Svc.r_rows = expect
      && norm_arrays r2.Svc.r_rows = expect)

(* under unchanged stats epochs, a hit hands back exactly the plan and
   cost a cold compile of the same parameterized query produces *)
let prop_hit_matches_cold_compile =
  QCheck.Test.make ~count:40 ~name:"cache hit == cold compile"
    gen_query (fun input ->
      let q = query_of input in
      let svc = Svc.create db in
      let r1 = Svc.exec_ir svc q [] in
      let r2 = Svc.exec_ir svc q [] in
      (* reference: compile the peeked parameterized query directly *)
      let peeked, _ = Fp.parameterize q in
      let cold =
        (D.optimize db.Storage.Db.cat peeked).D.res_annotation
      in
      let key = Fp.canonical ~mode:Fp.Generic peeked in
      let h = Fp.hash ~mode:Fp.Generic key in
      let cached =
        match Pc.find (Svc.cache svc) ~h ~key with
        | Some e -> e.Pc.e_ann
        | None -> QCheck.Test.fail_report "probe after hit found no entry"
      in
      r2.Svc.r_outcome = Svc.Hit
      && r1.Svc.r_cost = r2.Svc.r_cost
      && cached.Planner.Annotation.an_cost
         = cold.Planner.Annotation.an_cost
      && plan_str cached = plan_str cold)

(* bumping the stats epoch of any referenced table forces the next
   probe to recompile *)
let prop_epoch_bump_recompiles =
  QCheck.Test.make ~count:40 ~name:"stats-epoch bump recompiles"
    gen_query (fun input ->
      let q = query_of input in
      let svc = Svc.create db in
      let r1 = Svc.exec_ir svc q [] in
      let tables =
        Walk.Sset.elements (Walk.all_tables_query Walk.Sset.empty q)
      in
      match tables with
      | [] -> QCheck.assume_fail ()
      | tb :: _ ->
          Catalog.bump_epoch db.Storage.Db.cat tb;
          let r2 = Svc.exec_ir svc q [] in
          let st = Pc.stats (Svc.cache svc) in
          r1.Svc.r_outcome = Svc.Miss
          && (match r2.Svc.r_outcome with
             | Svc.Invalidated | Svc.Revalidated -> true
             | Svc.Hit | Svc.Miss -> false)
          && st.Pc.invalidations = 1
          (* snapshot refreshed either way: the next probe is a hit *)
          && (Svc.exec_ir svc q []).Svc.r_outcome = Svc.Hit)

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let hr = Tsupport.hr_db ()

let exec_hr svc sql binds =
  Svc.exec svc sql (List.map (fun n -> V.Int n) binds)

let test_explicit_binds () =
  let svc = Svc.create hr in
  let sql = "SELECT e.name FROM employees e WHERE e.salary > :1" in
  let r1 = exec_hr svc sql [ 9000 ] in
  let r0 = exec_hr svc sql [ 0 ] in
  Alcotest.(check bool) "miss then hit" true
    (r1.Svc.r_outcome = Svc.Miss && r0.Svc.r_outcome = Svc.Hit);
  Alcotest.(check bool)
    "threshold 0 returns more rows than 9000" true
    (List.length r0.Svc.r_rows > List.length r1.Svc.r_rows);
  (* a different literal elsewhere still shares the shape *)
  let r =
    exec_hr svc "SELECT e.name FROM employees e WHERE e.salary > :1 AND \
                 e.job_id = 3"
      [ 0 ]
  in
  Alcotest.(check bool) "new shape misses" true (r.Svc.r_outcome = Svc.Miss)

let test_bind_count_guard () =
  let svc = Svc.create hr in
  let sql = "SELECT e.name FROM employees e WHERE e.salary > :1" in
  Alcotest.check_raises "missing bind"
    (Invalid_argument "Service.exec: query references 1 bind(s), 0 given")
    (fun () -> ignore (exec_hr svc sql []));
  Alcotest.check_raises "extra bind"
    (Invalid_argument "Service.exec: query references 1 bind(s), 2 given")
    (fun () -> ignore (exec_hr svc sql [ 1; 2 ]))

let test_bind_parse () =
  let q =
    Sqlparse.Parser.parse_exn hr.Storage.Db.cat
      "SELECT e.name FROM employees e WHERE e.salary > :2 AND e.job_id = :1"
  in
  Alcotest.(check int) "binds_count" 2 (Fp.binds_count q);
  let rejected =
    match
      Sqlparse.Parser.parse_exn hr.Storage.Db.cat
        "SELECT e.name FROM employees e WHERE e.salary > :0"
    with
    | _ -> false
    | exception Sqlparse.Parser.Parse_error _ -> true
  in
  Alcotest.(check bool) "bind :0 rejected" true rejected

let test_lru_eviction () =
  let svc =
    Svc.create ~config:{ Svc.default_config with Svc.capacity = 2 } hr
  in
  let shapes =
    [
      "SELECT e.name FROM employees e WHERE e.salary > 100";
      "SELECT e.name FROM employees e WHERE e.job_id = 1";
      "SELECT d.dept_name FROM departments d WHERE d.loc_id = 100";
    ]
  in
  List.iter (fun sql -> ignore (exec_hr svc sql [])) shapes;
  let st = Pc.stats (Svc.cache svc) in
  Alcotest.(check int) "bounded" 2 (Pc.length (Svc.cache svc));
  Alcotest.(check int) "one eviction" 1 st.Pc.evictions;
  (* the evicted (least recently used) shape now misses again *)
  let r = exec_hr svc (List.hd shapes) [] in
  Alcotest.(check bool) "evicted shape misses" true
    (r.Svc.r_outcome = Svc.Miss)

(* the live cache entry of [sql] (a counted probe) *)
let entry_of svc sql =
  let q = Sqlparse.Parser.parse_exn hr.Storage.Db.cat sql in
  let peeked, _ = Fp.parameterize q in
  let key = Fp.canonical ~mode:Fp.Generic peeked in
  Pc.find (Svc.cache svc) ~h:(Fp.hash ~mode:Fp.Generic key) ~key

let exec_form svc sql =
  match entry_of svc sql with
  | None -> Alcotest.failf "no cache entry for %s" sql
  | Some e -> (
      match Atomic.get e.Pc.e_exec with
      | Some x -> x
      | None -> Alcotest.failf "entry of %s has no executable form" sql)

(* two services over one cache run the one executable form its entry
   holds: the second service builds nothing of its own *)
let test_exec_form_shared () =
  let cache = Pc.create () in
  let s1 = Svc.create ~cache hr and s2 = Svc.create ~cache hr in
  let sql = "SELECT e.name FROM employees e WHERE e.salary > 100" in
  ignore (exec_hr s1 sql []);
  let x1 = exec_form s1 sql in
  let r = exec_hr s2 sql [] in
  Alcotest.(check bool) "second service hits" true (r.Svc.r_outcome = Svc.Hit);
  Alcotest.(check bool) "same executable form" true (exec_form s2 sql == x1)

(* eviction releases the executable form with its entry: once shape A
   is evicted, nothing else keeps A's executable plan reachable *)
let test_evicted_exec_released () =
  let svc =
    Svc.create ~config:{ Svc.default_config with Svc.capacity = 1 } hr
  in
  let a = "SELECT e.name FROM employees e WHERE e.salary > 100" in
  let b = "SELECT d.dept_name FROM departments d WHERE d.loc_id = 100" in
  ignore (exec_hr svc a []);
  let w = Weak.create 1 in
  (* a separate function, so no local of this frame holds the plan *)
  let[@inline never] watch () =
    Weak.set w 0 (Some (exec_form svc a).Pc.x_plan)
  in
  watch ();
  Alcotest.(check bool) "watched while cached" true (Weak.check w 0);
  ignore (exec_hr svc b []);
  Alcotest.(check int) "A evicted" 1 (Pc.stats (Svc.cache svc)).Pc.evictions;
  Gc.full_major ();
  let released = not (Weak.check w 0) in
  (* the service itself must outlive the collection, or its own
     tables would be collected with it *)
  Alcotest.(check int) "B cached" 1 (Pc.length (Svc.cache svc));
  Alcotest.(check bool) "A's executable plan released" true released

let test_memory_accounting () =
  let svc = Svc.create hr in
  ignore (exec_hr svc "SELECT e.name FROM employees e" []);
  Alcotest.(check bool) "memory tracked" true
    (Pc.memory_words (Svc.cache svc) > 0)

let has_rule rule ds =
  List.exists (fun d -> d.Analysis.Diagnostics.d_rule = rule) ds

let test_ir015_negative_bind () =
  let q =
    Sqlparse.Parser.parse_exn hr.Storage.Db.cat
      "SELECT e.name FROM employees e WHERE e.salary > :1"
  in
  let bad = Fp.rewrite (function A.Bind (i, v) -> A.Bind (i - 1, v) | e -> e) q in
  Alcotest.(check bool) "ok query clean" false
    (has_rule "IR015" (Analysis.Ir_check.errors hr.Storage.Db.cat q));
  Alcotest.(check bool) "negative index flagged" true
    (has_rule "IR015" (Analysis.Ir_check.errors hr.Storage.Db.cat bad))

let test_tx001_over_copying () =
  let q =
    Sqlparse.Parser.parse_exn hr.Storage.Db.cat
      "SELECT e.name FROM employees e WHERE e.dept_id IN (SELECT d.dept_id \
       FROM departments d WHERE d.loc_id = 100)"
  in
  Alcotest.(check bool) "identity is clean" false
    (has_rule "TX001" (Analysis.Copy_check.check ~before:q ~after:q));
  (* a full rebuild is structurally equal but physically fresh *)
  let copied = Fp.rewrite (fun e -> e) q in
  Alcotest.(check bool) "rebuild flagged" true
    (has_rule "TX001" (Analysis.Copy_check.check ~before:q ~after:copied))

(* ------------------------------------------------------------------ *)
(* Metrics wiring and the per-fingerprint query store                   *)
(* ------------------------------------------------------------------ *)

module Mx = Obs.Metrics
module Qs = Obs.Query_store

let run_workload ~config ~n ~passes ~seed =
  let svc = Svc.create ~config db in
  let g = QG.create ~seed schema in
  let items = QG.workload g n in
  for _ = 1 to passes do
    List.iter (fun it -> ignore (Svc.exec_ir svc it.QG.it_query [])) items
  done;
  svc

(* same workload + seed => bit-identical store snapshot once the
   wall-clock-derived fields are stripped *)
let test_query_store_determinism () =
  let config = { Svc.default_config with Svc.feedback = true } in
  let snap () =
    let svc = run_workload ~config ~n:15 ~passes:2 ~seed:4242 in
    Obs.Json.to_string (Qs.to_json ~wall:false (Svc.query_store svc))
  in
  let a = snap () and b = snap () in
  Alcotest.(check string) "identical snapshots modulo wall clock" a b;
  (* and the wall fields are genuinely the only difference: with them
     included the documents still parse and agree on entry count *)
  let svc = run_workload ~config ~n:15 ~passes:2 ~seed:4242 in
  match Obs.Json.parse (Obs.Json.to_string (Qs.to_json (Svc.query_store svc))) with
  | Error e -> Alcotest.failf "wall snapshot not valid JSON: %s" e
  | Ok j -> (
      match Obs.Json.member "entries" j with
      | Some (Obs.Json.List es) ->
          Alcotest.(check int)
            "one entry per fingerprint"
            (Qs.length (Svc.query_store svc))
            (List.length es)
      | _ -> Alcotest.fail "no entries array")

(* the store's parse accounting agrees with the service report, and
   analyze-mode feedback populates Q-error *)
let test_query_store_accounting () =
  let config = { Svc.default_config with Svc.feedback = true } in
  let passes = 3 in
  let svc = run_workload ~config ~n:12 ~passes ~seed:99 in
  let entries = Qs.entries (Svc.query_store svc) in
  let r = Svc.report svc in
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 entries in
  Alcotest.(check int)
    "store soft parses = report soft parses" r.Svc.sv_soft_parses
    (sum (fun e -> e.Qs.qe_soft));
  Alcotest.(check int)
    "store hard parses = report hard parses" r.Svc.sv_hard_parses
    (sum (fun e -> e.Qs.qe_hard));
  Alcotest.(check int)
    "every execution lands in the store"
    (r.Svc.sv_soft_parses + r.Svc.sv_hard_parses)
    (sum (fun e -> e.Qs.qe_execs));
  Alcotest.(check bool)
    "feedback populated q-error samples" true
    (List.exists (fun e -> e.Qs.qe_qerr_n > 0) entries);
  List.iter
    (fun e ->
      if e.Qs.qe_qerr_n > 0 then
        Alcotest.(check bool)
          "q-error >= 1" true
          (e.Qs.qe_qerr_max >= 1. && Qs.qerr_mean e >= 1.))
    entries;
  (* top-N ordering: by-time is sorted descending on total time *)
  let top = Qs.top (Svc.query_store svc) Qs.By_time 5 in
  let times = List.map (fun e -> Qs.qe_exec_s e +. Qs.qe_parse_s e) top in
  Alcotest.(check bool)
    "top list sorted descending" true
    (List.sort (fun a b -> compare b a) times = times)

let test_query_store_bounded () =
  let config = { Svc.default_config with Svc.store_capacity = 4 } in
  let svc = run_workload ~config ~n:12 ~passes:1 ~seed:7 in
  let store = Svc.query_store svc in
  Alcotest.(check bool)
    "store bounded by capacity" true
    (Qs.length store <= 4);
  Alcotest.(check bool) "evictions counted" true (Qs.evictions store > 0)

(* two shapes whose fingerprints collide keep separate entries: the
   store verifies the canonical key, not just its hash *)
let test_query_store_collision () =
  let store = Qs.create () in
  let names = [| "work" |] in
  let observe key =
    ignore
      (Qs.observe store ~fp:42 ~key ~text:(fun () -> key) ~outcome:"miss"
         ~rows:1 ~exec_s:0. ~parse_s:0. ~meter_names:names ~meter:[| 1 |]
         ~vec_pipelines:0 ~row_pipelines:1)
  in
  List.iter observe [ "SELECT a"; "SELECT b"; "SELECT c"; "SELECT a" ];
  let execs =
    List.sort compare
      (List.map (fun e -> (e.Qs.qe_text, e.Qs.qe_execs)) (Qs.entries store))
  in
  Alcotest.(check (list (pair string int)))
    "one entry per shape"
    [ ("SELECT a", 2); ("SELECT b", 1); ("SELECT c", 1) ]
    execs

(* an entry accumulates meters positionally, so a caller whose field
   names differ from the entry's is refused *)
let test_query_store_meter_names () =
  let store = Qs.create () in
  let observe names =
    ignore
      (Qs.observe store ~fp:7 ~key:"q" ~text:(fun () -> "q") ~outcome:"hit"
         ~rows:0 ~exec_s:0. ~parse_s:0. ~meter_names:names ~meter:[| 1 |]
         ~vec_pipelines:0 ~row_pipelines:0)
  in
  observe [| "work" |];
  observe [| "work" |];
  Alcotest.check_raises "different meter names"
    (Invalid_argument
       "Query_store.observe: meter fields differ from the entry's")
    (fun () -> observe [| "rows" |]);
  match Qs.entries store with
  | [ e ] ->
      Alcotest.(check int) "refused observation not counted" 2 e.Qs.qe_execs
  | es -> Alcotest.failf "%d entries, expected 1" (List.length es)

let test_registry_wiring () =
  Mx.reset Mx.default;
  let svc = run_workload ~config:Svc.default_config ~n:10 ~passes:2 ~seed:13 in
  let r = Svc.report svc in
  let oc name =
    Mx.counter_value
      (Mx.counter ~labels:[ ("outcome", name) ] Mx.default
         "svc_cache_outcomes_total")
  in
  Alcotest.(check int)
    "hit outcomes = soft parses" r.Svc.sv_soft_parses (oc "hit");
  Alcotest.(check int)
    "hard outcomes = hard parses" r.Svc.sv_hard_parses
    (oc "miss" + oc "invalidated" + oc "revalidated");
  Alcotest.(check bool)
    "rows counter accumulated" true
    (Mx.counter_value (Mx.counter Mx.default "svc_rows_returned_total") >= 0);
  Alcotest.(check int)
    "parse histogram count = soft parses" r.Svc.sv_soft_parses
    (Mx.hist_count
       (Mx.histogram ~labels:[ ("kind", "soft") ] Mx.default
          "svc_parse_seconds"));
  (* satellite: the cache's memory accounting surfaces as a gauge *)
  Alcotest.(check (float 0.))
    "plan-cache memory gauge matches report"
    (float_of_int r.Svc.sv_memory_words)
    (Mx.gauge_value (Mx.gauge Mx.default "plan_cache_memory_words"));
  Alcotest.(check (float 0.))
    "plan-cache entries gauge matches report"
    (float_of_int r.Svc.sv_entries)
    (Mx.gauge_value (Mx.gauge Mx.default "plan_cache_entries"))

let test_metrics_off () =
  Mx.reset Mx.default;
  let config = { Svc.default_config with Svc.metrics = false } in
  let svc = run_workload ~config ~n:8 ~passes:1 ~seed:5 in
  Alcotest.(check int)
    "no query-store accumulation with metrics off" 0
    (Qs.length (Svc.query_store svc));
  Alcotest.(check int)
    "no outcome counters with metrics off" 0
    (Mx.counter_value
       (Mx.counter ~labels:[ ("outcome", "miss") ] Mx.default
          "svc_cache_outcomes_total"))

let () =
  let to_alco = QCheck_alcotest.to_alcotest in
  Alcotest.run "service"
    [
      ( "properties",
        [
          to_alco prop_parameterize_equivalence;
          to_alco prop_service_equivalence;
          to_alco prop_hit_matches_cold_compile;
          to_alco prop_epoch_bump_recompiles;
        ] );
      ( "binds",
        [
          Alcotest.test_case "explicit binds" `Quick test_explicit_binds;
          Alcotest.test_case "bind-count guard" `Quick test_bind_count_guard;
          Alcotest.test_case "bind parsing" `Quick test_bind_parse;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
          Alcotest.test_case "shared executable form" `Quick
            test_exec_form_shared;
          Alcotest.test_case "evicted executable form released" `Quick
            test_evicted_exec_released;
          Alcotest.test_case "memory accounting" `Quick
            test_memory_accounting;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "IR015 negative bind" `Quick
            test_ir015_negative_bind;
          Alcotest.test_case "TX001 over-copying" `Quick
            test_tx001_over_copying;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "query-store determinism" `Quick
            test_query_store_determinism;
          Alcotest.test_case "query-store accounting" `Quick
            test_query_store_accounting;
          Alcotest.test_case "query-store bounded" `Quick
            test_query_store_bounded;
          Alcotest.test_case "query-store collision" `Quick
            test_query_store_collision;
          Alcotest.test_case "query-store meter names" `Quick
            test_query_store_meter_names;
          Alcotest.test_case "registry wiring" `Quick test_registry_wiring;
          Alcotest.test_case "metrics off" `Quick test_metrics_off;
        ] );
    ]
