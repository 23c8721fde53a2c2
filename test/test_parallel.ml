(** Partitioned parallel execution: the determinism bar and the pruning
    soundness rules.

    - {!Exec.Exchange.run_tasks} on its own: helper domains are reused
      across calls, results equal the sequential map, the first failing
      task in task order is re-raised only after every task ran, and
      concurrent callers and nested fan-outs complete.
    - QCheck differential suite: every generated workload query,
      optimized against databases partitioned at {1, 4, 16}, must
      return {e bit-identical} rows (same order, not just the same bag)
      when the DOP post-pass wraps it in exchanges at DOP {1, 2, 4} —
      against the serial plan on the parallel executor {e and} against
      {!Exec.Baseline} on the parallel plan — and the merged meters
      must be independent of the DOP field by field.
    - Pruning: a scan with its prune spec derived from its own filter
      returns exactly the unpruned rows, and the derived spec passes
      the [PL008] disjointness rule; an intentionally {e wrong} prune
      is caught both ways — it is flagged by [PL008] and it observably
      drops rows.
    - [PL009]: exchange shape legality (degree, serial pass-through,
      mismatched partition counts, partitioned scans inside subquery
      plans).
    - Two-phase aggregation: a hand-built hash aggregate equals its
      [Final_agg(Exchange(Partial_agg))] split at DOP {1, 2, 4} in rows
      (against the serial plan) and meters (against {!Exec.Baseline}),
      keyed and keyless, including an exchange with every partition
      pruned.
    - Engine-choice hints: under [Auto], exchange tasks never call the
      caller's [card_of] from a helper domain.
    - Vectorized tasks: on a hand-built fixture (NULL, mixed Int/Float,
      string and date keys, float aggregates, an empty partition, every
      partition pruned), forced Vector and Row agree with
      {!Exec.Baseline} on rows and meters, serially and under exchanges
      at dop 1, 2 and 4, at batch sizes 1, 7 and 256; EXPLAIN ANALYZE
      reports the task nodes as vectorized.
    - Unit coverage for {!Planner.Access_path.derive_prune},
      {!Exec.Prune.survivors}, and the {!Planner.Parallel.apply}
      rewrite shapes (exchange over a chain, two-phase aggregation,
      Auto's startup threshold). *)

module QG = Workload.Query_gen
module SG = Workload.Schema_gen
module D = Cbqt.Driver
module Diag = Analysis.Diagnostics
module P = Exec.Plan
module Par = Planner.Parallel
module M = Exec.Meter
module V = Sqlir.Value
module A = Sqlir.Ast

(* One database per partition count, same families/seed throughout: the
   schema (and therefore the query generator) is identical; only the
   physical layout differs. *)
let mk parts =
  SG.build ~families:2 ~sample_frac:0.5 ~row_scale:0.08 ~partitions:parts
    ~seed:7 ()

let dbs = List.map (fun p -> (p, mk p)) [ 1; 4; 16 ]
let schema = snd (snd (List.hd dbs))

(* the partitioned fixture most tests poke at directly *)
let db4 = fst (List.assoc 4 dbs)
let cat4 = db4.Storage.Db.cat

let all_classes =
  [
    QG.C_spj; QG.C_exists; QG.C_not_exists; QG.C_in_multi; QG.C_not_in;
    QG.C_agg_subq; QG.C_gb_view; QG.C_distinct_view; QG.C_union_factor;
    QG.C_gbp; QG.C_or; QG.C_setop; QG.C_pullup;
  ]

let query_of (cls, seed) =
  let g = QG.create ~seed schema in
  QG.generate g cls

let gen_query =
  QCheck.make
    ~print:(fun (cls, seed) ->
      Printf.sprintf "%s (seed %d)" (QG.class_name cls) seed)
    QCheck.Gen.(pair (oneofl all_classes) (int_bound 100000))

let rows_of rows = List.map Array.to_list rows

(* ------------------------------------------------------------------ *)
(* Exchange.run_tasks: the pool contract                                *)
(* ------------------------------------------------------------------ *)

module Ex = Exec.Exchange

(* burn roughly [n] additions: a task slow enough that others overtake it *)
let spin n =
  let r = ref 0 in
  for i = 1 to n do
    r := !r + i
  done;
  ignore (Sys.opaque_identity !r)

(* Must run before anything else in this process asks for a larger pool:
   at dop 2 only the caller and one helper ever run tasks, however many
   calls are made. A domain spawned per call would show ~400 ids. *)
let test_run_tasks_reuse () =
  let seen = Hashtbl.create 8 in
  for _ = 1 to 200 do
    Ex.run_tasks ~dop:2 ~tasks:(List.init 8 Fun.id) ~f:(fun _ ->
        (Domain.self () :> int))
    |> List.iter (fun (_, d) -> Hashtbl.replace seen d ())
  done;
  let n = Hashtbl.length seen in
  if n > 2 then Alcotest.failf "200 dop-2 calls ran on %d distinct domains" n

let test_run_tasks_sequential () =
  let f t = (t * 7919) lxor (t lsr 1) in
  List.iter
    (fun dop ->
      List.iter
        (fun n ->
          let tasks = List.init n (fun i -> (2 * i) + 1) in
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "dop %d, %d tasks" dop n)
            (List.map (fun t -> (t, f t)) tasks)
            (Ex.run_tasks ~dop ~tasks ~f))
        [ 0; 1; 3; 8; 17 ])
    [ 1; 2; 3; 4 ]

(* Tasks 3 and 5 raise different exceptions; task 3 is slow, so task 5
   usually fails first in time, and tasks 6 and 7 are slower still. The
   raise must name task 3 and, on the parallel path, wait for every
   task. At dop 1 the tasks run inline and stop at task 3. *)
let test_run_tasks_exceptions () =
  let finished = Atomic.make 0 in
  let f t =
    if t = 3 then spin 200_000;
    if t >= 6 then spin 2_000_000;
    Atomic.incr finished;
    if t = 3 then raise Not_found;
    if t = 5 then failwith "task 5";
    t
  in
  let tasks = List.init 8 Fun.id in
  List.iter
    (fun dop ->
      Atomic.set finished 0;
      (match Ex.run_tasks ~dop ~tasks ~f with
      | _ -> Alcotest.failf "dop %d: no exception re-raised" dop
      | exception Not_found -> ()
      | exception e ->
          Alcotest.failf "dop %d: re-raised %s, not task 3's Not_found" dop
            (Printexc.to_string e));
      Alcotest.(check int)
        (Printf.sprintf "dop %d: tasks run before the raise" dop)
        (if dop = 1 then 4 else 8)
        (Atomic.get finished);
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "dop %d: the next call is correct" dop)
        (List.map (fun t -> (t, t * t)) tasks)
        (Ex.run_tasks ~dop ~tasks ~f:(fun t -> t * t)))
    [ 1; 2; 3; 4 ]

let test_run_tasks_concurrent () =
  let caller d () =
    List.for_all
      (fun i ->
        let dop = 2 + ((i + d) mod 3) in
        let tasks = List.init (1 + (((i * 7) + d) mod 17)) (fun k -> k * 3) in
        let f t = (t * t) + d in
        Ex.run_tasks ~dop ~tasks ~f = List.map (fun t -> (t, f t)) tasks)
      (List.init 100 Fun.id)
  in
  let doms = List.init 4 (fun d -> Domain.spawn (caller d)) in
  List.iteri
    (fun d dom ->
      Alcotest.(check bool)
        (Printf.sprintf "caller domain %d: every result correct" d)
        true (Domain.join dom))
    doms

let test_run_tasks_nested () =
  let inner t =
    Ex.run_tasks ~dop:2 ~tasks:(List.init (t + 1) Fun.id) ~f:(fun u -> u + t)
    |> List.fold_left (fun acc (_, v) -> acc + v) 0
  in
  let tasks = List.init 6 Fun.id in
  Alcotest.(check (list (pair int int)))
    "a task that fans out itself completes"
    (List.map (fun t -> (t, inner t)) tasks)
    (Ex.run_tasks ~dop:3 ~tasks ~f:inner)

(* every claimed task observes the tasks still unclaimed behind it *)
let test_run_tasks_queue_depth () =
  let h =
    Obs.Metrics.histogram Obs.Metrics.default "exec_exchange_queue_depth"
  in
  let c0 = Obs.Metrics.hist_count h and s0 = Obs.Metrics.hist_sum h in
  ignore (Ex.run_tasks ~dop:2 ~tasks:(List.init 8 Fun.id) ~f:Fun.id);
  Alcotest.(check int) "one observation per task" 8
    (Obs.Metrics.hist_count h - c0);
  Alcotest.(check (float 1e-9)) "depths 7 + 6 + ... + 0" 28.
    (Obs.Metrics.hist_sum h -. s0)

(* ------------------------------------------------------------------ *)
(* Differential: serial == parallel == baseline at every DOP            *)
(* ------------------------------------------------------------------ *)

(* how many (database, plan) pairs the differential actually exercised —
   guards against the suite passing vacuously because every generated
   query failed to optimize *)
let differential_covered = ref 0

let prop_parallel_differential =
  QCheck.Test.make ~count:30
    ~name:
      "serial == parallel == baseline rows, meters dop-invariant (parts x \
       dop matrix)"
    gen_query
    (fun input ->
      let q = query_of input in
      List.for_all
        (fun (parts, (db, _)) ->
          let cat = db.Storage.Db.cat in
          match (D.optimize cat q).D.res_annotation.Planner.Annotation.an_plan
          with
          | exception _ -> true
          | plan ->
              incr differential_covered;
              let _, ser_rows, _ = Exec.Executor.execute db plan in
              let ser_rows = rows_of ser_rows in
              let meters =
                List.map
                  (fun dop ->
                    let pp = Par.apply cat ~dop:(Par.Fixed dop) plan in
                    let _, prows, pm = Exec.Executor.execute db pp in
                    let _, brows, bm = Exec.Baseline.execute db pp in
                    if rows_of prows <> ser_rows then
                      QCheck.Test.fail_reportf
                        "parts=%d dop=%d: parallel rows differ from serial"
                        parts dop;
                    if rows_of brows <> ser_rows then
                      QCheck.Test.fail_reportf
                        "parts=%d dop=%d: baseline rows differ from serial"
                        parts dop;
                    if M.to_fields pm <> M.to_fields bm then
                      QCheck.Test.fail_reportf
                        "parts=%d dop=%d: executor/baseline meters differ"
                        parts dop;
                    M.to_fields pm)
                  [ 1; 2; 4 ]
              in
              (match meters with
              | m0 :: rest ->
                  if not (List.for_all (( = ) m0) rest) then
                    QCheck.Test.fail_reportf
                      "parts=%d: merged meter depends on the dop" parts
              | [] -> ());
              true)
        dbs)

(* ------------------------------------------------------------------ *)
(* Pruning: derived prunes are sound, transparent, and PL008-clean      *)
(* ------------------------------------------------------------------ *)

let fact = "f0_fact0"
let fcol c = A.Col { A.c_alias = "f"; A.c_col = c }
let spec4 = Option.get (Catalog.part_spec cat4 fact)

let pscan filter prune =
  P.Part_scan { table = fact; alias = "f"; filter; prune }

let exec_rows db p =
  let _, rows, _ = Exec.Executor.execute db p in
  rows_of rows

let prop_prune_preserves_results =
  QCheck.Test.make ~count:100
    ~name:"derived prune never changes results and passes PL008"
    QCheck.(int_bound 3000)
    (fun v ->
      let filter = [ A.Cmp (A.Eq, fcol "mid_id", A.Const (V.Int v)) ] in
      let prune = Planner.Access_path.derive_prune spec4 ~alias:"f" filter in
      (match prune with
      | P.Pr_eq _ -> ()
      | _ -> QCheck.Test.fail_reportf "expected Pr_eq from an eq conjunct");
      let pruned = pscan filter prune in
      if exec_rows db4 pruned <> exec_rows db4 (pscan filter P.Pr_none) then
        QCheck.Test.fail_reportf "pruning changed results for mid_id = %d" v;
      let ds = Analysis.Plan_check.check cat4 pruned in
      if Diag.has_rule "PL008" (Diag.errors ds) then
        QCheck.Test.fail_reportf "PL008 fired on a derived prune";
      true)

(* a range-partitioned fact exists in the generated families (odd fact
   indexes partition on [created]); exercise range pruning end to end
   on whichever one the seed produced, if any *)
let range_fact =
  List.find_map
    (fun ti ->
      match Catalog.part_spec cat4 ti.SG.ti_name with
      | Some ps when ps.Catalog.ps_scheme = `Range -> Some ti.SG.ti_name
      | _ -> None)
    schema.SG.all_tables

let prop_range_prune_preserves_results =
  QCheck.Test.make ~count:100 ~name:"range prune never changes results"
    QCheck.(pair (int_range 9900 12100) (int_bound 600))
    (fun (lo, width) ->
      match range_fact with
      | None -> true (* this seed generated no odd-indexed fact *)
      | Some table ->
          let ps = Option.get (Catalog.part_spec cat4 table) in
          let filter =
            [
              A.Between
                ( fcol ps.Catalog.ps_col,
                  A.Const (V.Date lo),
                  A.Const (V.Date (lo + width)) );
            ]
          in
          let prune =
            Planner.Access_path.derive_prune ps ~alias:"f" filter
          in
          let mk prune = P.Part_scan { table; alias = "f"; filter; prune } in
          (match prune with
          | P.Pr_range _ -> ()
          | _ ->
              QCheck.Test.fail_reportf "expected Pr_range from BETWEEN");
          if exec_rows db4 (mk prune) <> exec_rows db4 (mk P.Pr_none) then
            QCheck.Test.fail_reportf
              "range pruning changed results for [%d, %d]" lo (lo + width);
          true)

(* the mutation test: a prune routing on the wrong value must (a) be
   flagged by PL008 and (b) observably drop rows *)
let test_wrong_prune_caught () =
  (* a key value actually present in the data, so the divergence shows *)
  let rel = Storage.Db.relation db4 fact in
  let kcol = Storage.Relation.col_index rel "mid_id" in
  let v =
    match rel.Storage.Relation.r_rows.(0).(kcol) with
    | V.Int v -> v
    | _ -> Alcotest.fail "unexpected key type"
  in
  (* a wrong value that routes to a different partition *)
  let route w = Catalog.part_route spec4 (V.Int w) in
  let w =
    let rec go w = if route w <> route v then w else go (w + 1) in
    go (v + 1)
  in
  let filter = [ A.Cmp (A.Eq, fcol "mid_id", A.Const (V.Int v)) ] in
  let good = pscan filter (P.Pr_eq (A.Const (V.Int v))) in
  let bad = pscan filter (P.Pr_eq (A.Const (V.Int w))) in
  Alcotest.(check bool) "good prune is PL008-clean" false
    (Diag.has_rule "PL008" (Diag.errors (Analysis.Plan_check.check cat4 good)));
  Alcotest.(check bool) "wrong prune flagged by PL008" true
    (Diag.has_rule "PL008" (Diag.errors (Analysis.Plan_check.check cat4 bad)));
  let full = exec_rows db4 (pscan filter P.Pr_none) in
  Alcotest.(check bool) "good prune returns every matching row" true
    (exec_rows db4 good = full);
  Alcotest.(check bool) "matching rows exist" true (full <> []);
  Alcotest.(check bool) "wrong prune observably drops rows" true
    (exec_rows db4 bad <> full)

(* ------------------------------------------------------------------ *)
(* PL009: exchange shape legality                                       *)
(* ------------------------------------------------------------------ *)

let test_pl009_shapes () =
  let scan = pscan [] P.Pr_none in
  let errors p = Diag.errors (Analysis.Plan_check.check cat4 p) in
  let all p = Analysis.Plan_check.check cat4 p in
  Alcotest.(check bool) "dop < 1 is an error" true
    (Diag.has_rule "PL009" (errors (P.Exchange { child = scan; dop = 0 })));
  Alcotest.(check bool) "well-formed exchange is clean" false
    (Diag.has_rule "PL009" (errors (P.Exchange { child = scan; dop = 2 })));
  (* no partitioned scan below: serial pass-through, warning only *)
  let unpart =
    P.Exchange
      {
        child = P.Table_scan { table = fact; alias = "f"; filter = [] };
        dop = 2;
      }
  in
  Alcotest.(check bool) "serial pass-through warns" true
    (Diag.has_rule "PL009" (all unpart));
  Alcotest.(check bool) "serial pass-through is not an error" false
    (Diag.has_rule "PL009" (errors unpart));
  (* a partitioned scan reachable only through a subquery plan would be
     restricted by the enclosing exchange task: error *)
  let subq =
    P.Exchange
      {
        child =
          P.Subq_filter
            {
              child = scan;
              preds = [ P.SP_exists { negated = false; plan = scan } ];
            };
        dop = 2;
      }
  in
  Alcotest.(check bool) "partitioned scan in subquery plan is an error" true
    (Diag.has_rule "PL009" (errors subq))

(* ------------------------------------------------------------------ *)
(* derive_prune / survivors units                                       *)
(* ------------------------------------------------------------------ *)

let test_derive_prune () =
  let dp filter = Planner.Access_path.derive_prune spec4 ~alias:"f" filter in
  let c v = A.Const (V.Int v) in
  (match dp [ A.Cmp (A.Eq, fcol "mid_id", c 5) ] with
  | P.Pr_eq e -> Alcotest.(check bool) "eq operand" true (e = c 5)
  | _ -> Alcotest.fail "eq conjunct should give Pr_eq");
  Alcotest.(check bool) "other-column eq gives Pr_none" true
    (dp [ A.Cmp (A.Eq, fcol "m1", c 5) ] = P.Pr_none);
  Alcotest.(check bool) "hash scheme cannot range-prune" true
    (dp [ A.Cmp (A.Ge, fcol "mid_id", c 5) ] = P.Pr_none);
  match range_fact with
  | None -> ()
  | Some table ->
      let ps = Option.get (Catalog.part_spec cat4 table) in
      let key = fcol ps.Catalog.ps_col in
      let dp filter = Planner.Access_path.derive_prune ps ~alias:"f" filter in
      (match dp [ A.Cmp (A.Ge, key, c 10100); A.Cmp (A.Lt, key, c 10900) ]
       with
      | P.Pr_range (P.R_incl lo, P.R_excl hi) ->
          Alcotest.(check bool) "range bounds" true
            (lo = c 10100 && hi = c 10900)
      | _ -> Alcotest.fail "ge + lt should give an incl/excl range");
      match dp [ A.Between (key, c 10100, c 10900) ] with
      | P.Pr_range (P.R_incl _, P.R_incl _) -> ()
      | _ -> Alcotest.fail "BETWEEN should give an incl/incl range"

let test_survivors () =
  let value_of = Exec.Prune.value_of ~binds:[||] in
  let all = List.init spec4.Catalog.ps_n Fun.id in
  Alcotest.(check (list int)) "Pr_none keeps every partition" all
    (Exec.Prune.survivors ~value_of spec4 P.Pr_none);
  let v = V.Int 5 in
  Alcotest.(check (list int)) "hash eq keeps the routed partition"
    [ Catalog.part_route spec4 v ]
    (Exec.Prune.survivors ~value_of spec4 (P.Pr_eq (A.Const v)));
  (* an unresolvable operand must keep every partition: pruning may
     only ever narrow on solid ground *)
  Alcotest.(check (list int)) "unresolvable eq keeps every partition" all
    (Exec.Prune.survivors ~value_of spec4 (P.Pr_eq (fcol "mid_id")));
  (* key = NULL is unsatisfiable under 3VL: nothing survives *)
  Alcotest.(check (list int)) "null eq prunes everything" []
    (Exec.Prune.survivors ~value_of spec4 (P.Pr_eq (A.Const V.Null)))

(* ------------------------------------------------------------------ *)
(* Parallel.apply rewrite shapes                                        *)
(* ------------------------------------------------------------------ *)

let test_apply_shapes () =
  let scan = P.Table_scan { table = fact; alias = "f"; filter = [] } in
  (* a chain becomes an exchange over a partitioned scan *)
  (match Par.apply cat4 ~dop:(Par.Fixed 2) scan with
  | P.Exchange { child = P.Part_scan { table; _ }; dop } ->
      Alcotest.(check string) "scan table" fact table;
      Alcotest.(check bool) "dop clamped to >= 1" true (dop >= 1)
  | p -> Alcotest.failf "expected Exchange(Part_scan), got %s" (P.to_string p));
  (* hash aggregation over a chain splits into partial/final *)
  let agg =
    P.Aggregate
      {
        child = scan;
        strategy = `Hash;
        alias = "g";
        keys = [ (fcol "status_c", "k") ];
        aggs = [ ("s", A.Sum, Some (fcol "m1"), false) ];
      }
  in
  (match Par.apply cat4 ~dop:(Par.Fixed 2) agg with
  | P.Final_agg
      { child = P.Exchange { child = P.Partial_agg _; _ }; keys; aggs; _ } ->
      Alcotest.(check (list string)) "final keys" [ "k" ] keys;
      Alcotest.(check int) "final aggs" 1 (List.length aggs)
  | p ->
      Alcotest.failf "expected Final_agg(Exchange(Partial_agg)), got %s"
        (P.to_string p));
  (* Serial leaves the plan physically untouched *)
  Alcotest.(check bool) "Serial is identity" true
    (Par.apply cat4 ~dop:Par.Serial agg == agg);
  (* Auto keeps tiny regions serial: these scaled-down facts are far
     below the startup threshold *)
  Alcotest.(check bool) "Auto stays serial below startup_rows" true
    (Par.apply cat4 ~dop:Par.Auto agg == agg);
  (* an unpartitioned table cannot be parallelized *)
  let dim = P.Table_scan { table = "f0_dim0"; alias = "d"; filter = [] } in
  Alcotest.(check bool) "unpartitioned scan untouched" true
    (Par.apply cat4 ~dop:(Par.Fixed 4) dim == dim)

(* a hand-rolled exchange: engine stats report the partition economics,
   the requested dop, and the engine choices of the task pipelines
   (every pipeline vectorizes under [Auto] at threshold 0) *)
let test_exchange_engine_stats () =
  (* unpruned: every partition is a task, so the requested dop is the
     effective dop *)
  let es = Exec.Executor.engine_stats_create () in
  let full = P.Exchange { child = pscan [] P.Pr_none; dop = 3 } in
  let _, rows, _ =
    Exec.Executor.execute ~engine_stats:es ~vector_threshold:0. db4 full
  in
  Alcotest.(check int) "all partitions scanned" spec4.Catalog.ps_n
    es.Exec.Executor.es_parts_scanned;
  Alcotest.(check int) "dop recorded" 3 es.Exec.Executor.es_dop;
  Alcotest.(check bool) "task pipelines vectorize" true
    (es.Exec.Executor.es_vector > 0);
  Alcotest.(check bool) "rows identical to serial" true
    (rows_of rows = exec_rows db4 (pscan [] P.Pr_none));
  (* eq-pruned: one task left, so the effective dop collapses to 1 *)
  let filter = [ A.Cmp (A.Eq, fcol "mid_id", A.Const (V.Int 5)) ] in
  let prune = Planner.Access_path.derive_prune spec4 ~alias:"f" filter in
  let es = Exec.Executor.engine_stats_create () in
  let pruned = P.Exchange { child = pscan filter prune; dop = 3 } in
  let _, rows, _ =
    Exec.Executor.execute ~engine_stats:es ~vector_threshold:0. db4 pruned
  in
  Alcotest.(check int) "scanned + pruned = all partitions"
    spec4.Catalog.ps_n
    (es.Exec.Executor.es_parts_scanned + es.Exec.Executor.es_parts_pruned);
  Alcotest.(check int) "eq prune scans one partition" 1
    es.Exec.Executor.es_parts_scanned;
  Alcotest.(check int) "one task caps the effective dop" 1
    es.Exec.Executor.es_dop;
  Alcotest.(check bool) "the one task's pipeline vectorizes" true
    (es.Exec.Executor.es_vector > 0);
  Alcotest.(check bool) "pruned rows identical to unpruned" true
    (rows_of rows = exec_rows db4 (pscan filter P.Pr_none))

(* ------------------------------------------------------------------ *)
(* Two-phase aggregation                                                *)
(* ------------------------------------------------------------------ *)

(* A hand-built hash aggregate against its two-phase split,
   Final_agg(Exchange(Partial_agg)), at dop 1, 2 and 4: every aggregate
   function over a nullable argument, keyed and keyless, and over an
   exchange whose every partition is pruned away ([mid_id = NULL]).
   Rows must equal the serial plan's, meters must equal the baseline
   engine's on the same parallel plan. The keyless, all-pruned case
   pins the combine of zero partial rows: COUNTs 0, everything else
   NULL. *)
let test_two_phase_agg () =
  (* [m1] where [code < 100], NULL elsewhere *)
  let arg =
    Some
      (A.Case
         ([ (A.Cmp (A.Lt, fcol "code", A.Const (V.Int 100)), fcol "m1") ], None))
  in
  let aggs =
    [
      ("n", A.Count_star, None, false);
      ("c", A.Count, arg, false);
      ("s", A.Sum, arg, false);
      ("lo", A.Min, arg, false);
      ("hi", A.Max, arg, false);
      ("av", A.Avg, arg, false);
    ]
  in
  let agg keys filter =
    P.Aggregate
      {
        child = P.Table_scan { table = fact; alias = "f"; filter };
        strategy = `Hash;
        alias = "g";
        keys;
        aggs;
      }
  in
  let keyed = [ (fcol "status_c", "k") ] in
  let none = [ A.Cmp (A.Eq, fcol "mid_id", A.Const V.Null) ] in
  let cases =
    [
      ("keyed", agg keyed [], false);
      ("keyless", agg [] [], false);
      ("keyed, all pruned", agg keyed none, true);
      ("keyless, all pruned", agg [] none, true);
    ]
  in
  List.iter
    (fun (name, serial, pruned) ->
      let ser = exec_rows db4 serial in
      List.iter
        (fun dop ->
          let what = Printf.sprintf "%s, dop %d" name dop in
          let pp = Par.apply cat4 ~dop:(Par.Fixed dop) serial in
          (match pp with
          | P.Final_agg
              { child = P.Exchange { child = P.Partial_agg _; _ }; _ } ->
              ()
          | p -> Alcotest.failf "%s: not split: %s" what (P.to_string p));
          let es = Exec.Executor.engine_stats_create () in
          let _, rows, m = Exec.Executor.execute ~engine_stats:es db4 pp in
          let _, _, bm = Exec.Baseline.execute db4 pp in
          Alcotest.(check bool) (what ^ ": rows equal serial") true
            (rows_of rows = ser);
          Alcotest.(check (list (pair string int)))
            (what ^ ": meter equals baseline") (M.to_fields bm) (M.to_fields m);
          if pruned then
            Alcotest.(check int) (what ^ ": no partition scanned") 0
              es.Exec.Executor.es_parts_scanned)
        [ 1; 2; 4 ])
    cases;
  (* the aggregates must see NULLs, or the cases prove little: some
     group counts fewer arguments than rows *)
  Alcotest.(check bool) "some argument is NULL" true
    (List.exists
       (function _ :: n :: c :: _ -> n <> c | _ -> false)
       (exec_rows db4 (agg keyed [])));
  Alcotest.(check bool) "keyless all-pruned row" true
    (exec_rows db4 (agg [] none)
    = [ [ V.Int 0; V.Int 0; V.Null; V.Null; V.Null; V.Null ] ])

(* ------------------------------------------------------------------ *)
(* Vectorized exchange tasks: the grammar-v2 differential               *)
(* ------------------------------------------------------------------ *)

(* A hand-built fixture the generated schema does not cover: range
   partitions on [id] with partition 1 empty, an int key with NULLs
   (typed path), a key column mixing Int and Float (generic path: Int 1
   and Float 1.0 are one group), a string and a date key with NULLs,
   and a nullable float to aggregate. *)
let vt_db =
  let cat = Catalog.create () in
  let col name nullable ty =
    { Catalog.c_name = name; c_ty = ty; c_nullable = nullable }
  in
  Catalog.add_table cat
    {
      Catalog.t_name = "vt";
      t_cols =
        [
          col "id" false V.T_int; col "ki" true V.T_int;
          col "mx" true V.T_float; col "s" true V.T_str;
          col "dt" true V.T_date; col "f" true V.T_float; col "v" false V.T_int;
        ];
      t_pkey = [ "id" ];
      t_fkeys = [];
      t_uniques = [];
    };
  let row id =
    [|
      V.Int id;
      (if id mod 7 = 0 then V.Null else V.Int (id mod 5));
      (match id mod 6 with
      | 0 -> V.Null
      | 1 -> V.Float 1.0
      | 2 -> V.Int 1
      | 3 -> V.Float 2.5
      | 4 -> V.Int 3
      | _ -> V.Float 3.0);
      (if id mod 9 = 0 then V.Null else V.Str [| "a"; "b"; "c" |].(id mod 3));
      (if id mod 11 = 0 then V.Null else V.Date (18000 + (id mod 4)));
      (if id mod 4 = 0 then V.Null
       else V.Float ((float_of_int id *. 0.37) -. 20.));
      V.Int (id * 3 mod 17);
    |]
  in
  let ids = List.init 60 Fun.id @ List.init 120 (fun i -> 120 + i) in
  let db = Storage.Db.create cat in
  Storage.Db.load db
    (Storage.Relation.create ~name:"vt"
       ~schema:[ "id"; "ki"; "mx"; "s"; "dt"; "f"; "v" ]
       (List.map row ids));
  Storage.Db.partition_table db ~name:"vt"
    {
      Catalog.ps_col = "id";
      ps_scheme = `Range;
      ps_n = 4;
      ps_bounds = [| V.Int 60; V.Int 120; V.Int 180 |];
    };
  db

let vcol c = A.Col { A.c_alias = "t"; A.c_col = c }
let vt_spec = Option.get (Catalog.part_spec vt_db.Storage.Db.cat "vt")
let vt_scan filter = P.Table_scan { table = "vt"; alias = "t"; filter }

let vt_pscan filter =
  P.Part_scan
    {
      table = "vt";
      alias = "t";
      filter;
      prune = Planner.Access_path.derive_prune vt_spec ~alias:"t" filter;
    }

let vt_aggs =
  let a name agg arg = (name, agg, Some (vcol arg), false) in
  [
    ("n", A.Count_star, None, false); a "cf" A.Count "f"; a "sf" A.Sum "f";
    a "af" A.Avg "f"; a "lf" A.Min "f"; a "hf" A.Max "f"; a "sv" A.Sum "v";
    a "av" A.Avg "v"; a "lv" A.Min "v"; a "hv" A.Max "v";
  ]

(* a serial aggregate and its two-phase split at [dop], the shape
   {!Planner.Parallel.apply} builds, with the dop not clamped to the
   host's cores *)
let vt_agg ?(strategy = `Hash) keys filter =
  P.Aggregate
    { child = vt_scan filter; strategy; alias = "g"; keys; aggs = vt_aggs }

let vt_split keys filter dop =
  P.Final_agg
    {
      child =
        P.Exchange
          {
            child =
              P.Partial_agg
                {
                  child = vt_pscan filter;
                  alias = "g";
                  keys;
                  aggs = List.map (fun (n, a, e, _) -> (n, a, e)) vt_aggs;
                };
            dop;
          };
      alias = "g";
      keys = List.map snd keys;
      aggs = List.map (fun (n, a, _, _) -> (n, a)) vt_aggs;
    }

(* Forced Vector and Row against {!Exec.Baseline}, on the serial plan
   and its exchange form at dop 1, 2 and 4, at batch sizes 1, 7 and
   256: rows equal in order, meters equal field by field, and the
   parallel rows equal the serial ones — except the float SUM and AVG,
   which the two-phase split adds up in another order. An exchange with
   any task must really vectorize inside it. *)
let test_vector_tasks_differential () =
  let none = [ A.Cmp (A.Eq, vcol "id", A.Const V.Null) ] in
  let some = [ A.Cmp (A.Gt, vcol "v", A.Const (V.Int 4)) ] in
  let floaty = [ A.Cmp (A.Gt, vcol "f", A.Const (V.Float 0.)) ] in
  let key c = [ (vcol c, "k") ] in
  let aggs =
    List.concat_map
      (fun (kname, keys) ->
        List.map
          (fun (fname, filter) ->
            ( Printf.sprintf "%s, %s" kname fname,
              vt_agg keys filter,
              fun dop -> vt_split keys filter dop ))
          [
            ("all", []); ("v > 4", some); ("f > 0", floaty);
            ("all pruned", none);
          ])
      [
        ("int key", key "ki"); ("mixed key", key "mx"); ("string key", key "s");
        ("date key", key "dt");
        ( "expression key",
          [ (A.Binop (A.Add, vcol "v", A.Const (V.Int 1)), "k") ] );
        ("keyless", []);
      ]
  in
  let pipes =
    List.map
      (fun (name, filter, wrap) ->
        ( name,
          wrap (vt_scan filter),
          fun dop -> P.Exchange { child = wrap (vt_pscan filter); dop } ))
      [
        ("pipe", some, Fun.id);
        ("pipe, all pruned", none, Fun.id);
        ( "project",
          floaty,
          fun c ->
            P.Project
              {
                child = c;
                alias = "p";
                items =
                  [
                    (vcol "s", "s");
                    (A.Binop (A.Mul, vcol "f", A.Const (V.Float 2.)), "f2");
                  ];
              } );
      ]
  in
  let sort_agg =
    let p = vt_agg ~strategy:`Sort (key "ki") some in
    ("int key, sort strategy", p, fun _ -> p)
  in
  let fields m = M.to_fields m in
  let order_exact plan rows =
    let keep =
      Array.map
        (fun (_, c) -> c <> "sf" && c <> "af")
        (P.layout plan vt_db.Storage.Db.cat)
    in
    List.map (List.filteri (fun i _ -> keep.(i))) rows
  in
  List.iter
    (fun (name, serial, par) ->
      let serial_rows =
        order_exact serial
          (rows_of (let _, r, _ = Exec.Baseline.execute vt_db serial in r))
      in
      List.iter
        (fun (what, plan, parallel) ->
          let _, brows, bm = Exec.Baseline.execute vt_db plan in
          let brows = rows_of brows in
          if parallel then
            Alcotest.(check bool) (what ^ ": rows equal serial") true
              (order_exact plan brows = serial_rows);
          List.iter
            (fun batch_size ->
              List.iter
                (fun engine ->
                  let what =
                    Printf.sprintf "%s, %s, batch %d" what
                      (Exec.Executor.engine_name engine) batch_size
                  in
                  let es = Exec.Executor.engine_stats_create () in
                  let _, rows, m =
                    Exec.Executor.execute ~engine ~batch_size ~engine_stats:es
                      vt_db plan
                  in
                  Alcotest.(check bool) (what ^ ": rows equal baseline") true
                    (rows_of rows = brows);
                  Alcotest.(check (list (pair string int)))
                    (what ^ ": meter equals baseline") (fields bm) (fields m);
                  if
                    engine = Exec.Executor.Vector && parallel
                    && es.Exec.Executor.es_parts_scanned > 0
                  then
                    Alcotest.(check bool) (what ^ ": tasks vectorize") true
                      (es.Exec.Executor.es_vector > 0))
                [ Exec.Executor.Vector; Exec.Executor.Row ])
            [ 1; 7; 256 ])
        (("serial " ^ name, serial, false)
        :: List.map
             (fun dop -> (Printf.sprintf "%s, dop %d" name dop, par dop, true))
             [ 1; 2; 4 ]))
    ((sort_agg :: aggs) @ pipes);
  (* the fixture exercises what it claims to *)
  let groups keys =
    List.map List.hd (exec_rows vt_db (vt_agg keys []))
  in
  Alcotest.(check bool) "a NULL int key group" true
    (List.mem V.Null (groups (key "ki")));
  Alcotest.(check (list string)) "Int 1 and Float 1.0 group together"
    [ "NULL"; "1"; "2.5"; "3" ]
    (List.map (Fmt.to_to_string V.pp) (groups (key "mx")));
  Alcotest.(check int) "partition 1 is empty" 0
    (Storage.Relation.part_rows (Storage.Db.relation vt_db "vt") 1)

(* EXPLAIN ANALYZE attributes the task nodes below an exchange to the
   vectorized engine, and the combine above it to the row engine. *)
let test_vector_tasks_explain () =
  let plan = vt_split [ (vcol "ki", "k") ] [] 2 in
  let ex = Cbqt.Explain.analyze ~engine:Exec.Executor.Vector vt_db plan in
  let engine_of pred =
    (List.find (fun o -> pred o.Cbqt.Explain.op_plan) ex.Cbqt.Explain.ex_ops)
      .Cbqt.Explain.op_engine
  in
  Alcotest.(check string) "partial aggregate is vector" "vector"
    (engine_of (function P.Partial_agg _ -> true | _ -> false));
  Alcotest.(check string) "partition scan is vector" "vector"
    (engine_of (function P.Part_scan _ -> true | _ -> false));
  Alcotest.(check string) "final aggregate is row" "row"
    (engine_of (function P.Final_agg _ -> true | _ -> false))

(* ------------------------------------------------------------------ *)
(* Engine-choice hints under exchange tasks                             *)
(* ------------------------------------------------------------------ *)

let rec has_exchange p =
  (match p with P.Exchange _ -> true | _ -> false)
  || List.exists has_exchange (P.children p)

(* Exchange tasks inherit the caller's [card_of] and force the Row
   engine, so under [Auto] the hints are read only where the engine
   choice is made outside the exchange: on the calling domain, never on
   a helper. Rows equal the serial plan's (same order), meters equal the
   same plan's at dop 1. *)
let test_exchange_card_of_domain () =
  let me = Domain.self () in
  let calls = Atomic.make 0 and foreign = Atomic.make 0 in
  let plans = ref 0 in
  List.iter
    (fun cls ->
      for seed = 0 to 3 do
        match
          (D.optimize cat4 (query_of (cls, seed))).D.res_annotation
            .Planner.Annotation.an_plan
        with
        | exception _ -> ()
        | plan ->
            let pp = Par.apply cat4 ~dop:(Par.Fixed 2) plan in
            if has_exchange pp then begin
              incr plans;
              let hints = Planner.Plan_est.pipeline_hints cat4 pp in
              let card_of p =
                Atomic.incr calls;
                if Domain.self () <> me then Atomic.incr foreign;
                hints p
              in
              let what =
                Printf.sprintf "%s seed %d" (QG.class_name cls) seed
              in
              let _, rows, m =
                Exec.Executor.execute ~engine:Exec.Executor.Auto ~card_of db4 pp
              in
              let p1 = Par.apply cat4 ~dop:(Par.Fixed 1) plan in
              let _, _, m1 = Exec.Executor.execute db4 p1 in
              Alcotest.(check bool) (what ^ ": rows equal serial") true
                (rows_of rows = exec_rows db4 plan);
              Alcotest.(check (list (pair string int)))
                (what ^ ": meter equals dop 1") (M.to_fields m1) (M.to_fields m)
            end
      done)
    all_classes;
  Alcotest.(check bool) "some plan has an exchange" true (!plans > 0);
  Alcotest.(check bool) "hints consulted" true (Atomic.get calls > 0);
  Alcotest.(check int) "no hint read on a helper domain" 0
    (Atomic.get foreign)

(* ------------------------------------------------------------------ *)
(* Vectorized hash join: forced engines agree                           *)
(* ------------------------------------------------------------------ *)

(* Probe tables [p<kind>] and build tables [b<kind>] of the columns
   (id, k, v, w), every one hash-partitioned 4 ways on its join key [k],
   so {!Planner.Parallel.apply} co-locates any join of two of them on
   [k]. Keys repeat (duplicate build keys) and are NULL every 7th row;
   [bz] is empty. Kinds: int, date and string keys, and Int/Float
   mixtures — Int x equals Float x, and the build side also holds
   non-integral floats that match nothing. *)
let jn_db =
  let cat = Catalog.create () in
  let col name nullable ty =
    { Catalog.c_name = name; c_ty = ty; c_nullable = nullable }
  in
  let db = Storage.Db.create cat in
  let table name ty rows =
    Catalog.add_table cat
      {
        Catalog.t_name = name;
        t_cols =
          [
            col "id" false V.T_int; col "k" true ty; col "v" false V.T_int;
            col "w" true V.T_str;
          ];
        t_pkey = [ "id" ];
        t_fkeys = [];
        t_uniques = [];
      };
    Storage.Db.load db
      (Storage.Relation.create ~name ~schema:[ "id"; "k"; "v"; "w" ]
         (List.map
            (fun (i, k) ->
              [|
                V.Int i; k; V.Int (i * 7 mod 23);
                (if i mod 5 = 0 then V.Null else V.Str (string_of_int (i mod 4)));
              |])
            rows));
    Storage.Db.partition_table db ~name
      { Catalog.ps_col = "k"; ps_scheme = `Hash; ps_n = 4; ps_bounds = [||] }
  in
  let keyed n key = List.init n (fun i -> (i, if i mod 7 = 3 then V.Null else key i)) in
  let x i = i mod 9 in
  table "pi" V.T_int (keyed 40 (fun i -> V.Int (x i)));
  table "bi" V.T_int (keyed 30 (fun i -> V.Int (x (i * 5))));
  table "pd" V.T_date (keyed 40 (fun i -> V.Date (18000 + x i)));
  table "bd" V.T_date (keyed 30 (fun i -> V.Date (18000 + x (i * 5))));
  table "ps" V.T_str (keyed 40 (fun i -> V.Str (string_of_int (x i))));
  table "bs" V.T_str (keyed 30 (fun i -> V.Str (string_of_int (x (i * 5)))));
  table "pm" V.T_float
    (keyed 40 (fun i ->
         if i mod 2 = 0 then V.Int (x i) else V.Float (float_of_int (x i))));
  table "bm" V.T_float
    (keyed 30 (fun i ->
         match i mod 3 with
         | 0 -> V.Float (float_of_int (x (i * 5)))
         | 1 -> V.Int (x (i * 5))
         | _ -> V.Float (float_of_int (x i) +. 0.5)));
  table "bz" V.T_int [];
  Storage.Stats_gather.analyze db;
  db

let jcol a c = A.Col { A.c_alias = a; A.c_col = c }

(* (probe, build) table pairs: one per key kind, Int against an Int/Float
   mixture (typed images of different types), and an empty build side *)
let jn_pairs =
  [ ("pi", "bi"); ("pd", "bd"); ("ps", "bs"); ("pm", "bm"); ("pi", "bm"); ("pi", "bz") ]

type jn_case = {
  jc_pair : string * string;
  jc_pfilter : bool;  (** probe keeps [v > 10] *)
  jc_bfilter : int;  (** build: none, [v > 5], or [v > 1000] (empty) *)
  jc_filter_node : bool;  (** filters as [Filter] nodes, not scan filters *)
  jc_swap : bool;  (** the key equality written build = probe *)
  jc_project : bool;
}

let jn_plan c =
  let gt alias n = [ A.Cmp (A.Gt, jcol alias "v", A.Const (V.Int n)) ] in
  let side t alias preds =
    if c.jc_filter_node && preds <> [] then
      P.Filter { child = P.Table_scan { table = t; alias; filter = [] }; preds }
    else P.Table_scan { table = t; alias; filter = preds }
  in
  let pt, bt = c.jc_pair in
  let key = (jcol "l" "k", jcol "r" "k") in
  let join =
    P.Join
      {
        meth = P.Hash;
        role = P.Inner;
        left = side pt "l" (if c.jc_pfilter then gt "l" 10 else []);
        right =
          side bt "r"
            (match c.jc_bfilter with
            | 0 -> []
            | 1 -> gt "r" 5
            | _ -> gt "r" 1000);
        cond =
          [
            (if c.jc_swap then A.Cmp (A.Eq, snd key, fst key)
             else A.Cmp (A.Eq, fst key, snd key));
          ];
      }
  in
  if not c.jc_project then join
  else
    P.Project
      {
        child = join;
        alias = "o";
        items =
          [
            (jcol "l" "id", "lid"); (jcol "r" "w", "rw");
            (A.Binop (A.Add, jcol "l" "v", jcol "r" "v"), "s");
            (A.Const (V.Int 7), "c"); (jcol "r" "k", "rk");
          ];
      }

let gen_jn_case =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "%s-%s pfilter=%b bfilter=%d filter_node=%b swap=%b project=%b"
        (fst c.jc_pair) (snd c.jc_pair) c.jc_pfilter c.jc_bfilter
        c.jc_filter_node c.jc_swap c.jc_project)
    QCheck.Gen.(
      map
        (fun ((pair, pf, bf), (fnode, swap, project)) ->
          {
            jc_pair = pair;
            jc_pfilter = pf;
            jc_bfilter = bf;
            jc_filter_node = fnode;
            jc_swap = swap;
            jc_project = project;
          })
        (pair
           (triple (oneofl jn_pairs) bool (oneofl [ 0; 0; 1; 2 ]))
           (triple bool bool bool)))

let rec plan_nodes p = p :: List.concat_map plan_nodes (P.children p)

let rec hash_join_of p =
  match p with
  | P.Join { meth = P.Hash; _ } -> Some p
  | _ -> List.find_map hash_join_of (P.children p)

(* cases whose join ran vectorized inside an exchange task *)
let jn_in_tasks = ref 0

(* Forced Row, forced Vector and Auto (threshold 0) return the same
   rows in the same order, the same meter and the same analyze-mode
   calls, rows and meter per node — equal to {!Exec.Baseline}'s rows and
   meter too — on the serial join and on its [Parallel.apply] form at
   dop 2. Forced Vector runs the join itself vectorized whenever both
   inputs are scan chains, and counts one dispatch per chain. *)
let prop_vector_join_differential =
  QCheck.Test.make ~count:150 ~name:"vectorized hash join matches row engine"
    gen_jn_case (fun c ->
      let cat = jn_db.Storage.Db.cat in
      let serial = jn_plan c in
      List.for_all
        (fun plan ->
          let _, brows, bm = Exec.Baseline.execute jn_db plan in
          let run engine =
            let es = Exec.Executor.engine_stats_create () in
            let _, rows, m, stat_of =
              Exec.Executor.execute_analyzed ~engine ~vector_threshold:0.
                ~engine_stats:es jn_db plan
            in
            let _, rows', m' =
              Exec.Executor.execute ~engine ~vector_threshold:0. jn_db plan
            in
            let stats =
              List.map
                (fun p ->
                  Option.map
                    (fun st ->
                      ( st.Exec.Executor.ns_calls,
                        st.Exec.Executor.ns_rows,
                        M.to_fields st.Exec.Executor.ns_meter ))
                    (stat_of p))
                (plan_nodes plan)
            in
            if rows_of rows <> rows_of rows' || M.to_fields m <> M.to_fields m'
            then QCheck.Test.fail_report "analyze mode changed rows or meter";
            ((rows_of rows, M.to_fields m, stats), es, stat_of)
          in
          let row, _, _ = run Exec.Executor.Row in
          let vec, es, stat_of = run Exec.Executor.Vector in
          let auto, _, _ = run Exec.Executor.Auto in
          let (rrows, rmeter, _) = row in
          (* the join vectorizes exactly when both inputs are chains *)
          let join = Option.get (hash_join_of plan) in
          let chains =
            List.for_all
              (function P.Exchange _ -> false | _ -> true)
              (P.children join)
          in
          let engine =
            (Option.get (stat_of join)).Exec.Executor.ns_engine
          in
          if chains && plan != serial then incr jn_in_tasks;
          if chains && engine <> "vector" then
            QCheck.Test.fail_report "join did not vectorize";
          if chains && plan == serial && es.Exec.Executor.es_vector <> 2 then
            QCheck.Test.fail_reportf "%d vector dispatches for one join"
              es.Exec.Executor.es_vector;
          rrows = rows_of brows && rmeter = M.to_fields bm && vec = row
          && auto = row)
        [ serial; Par.apply cat ~dop:(Par.Fixed 2) serial ])

(* analytic_scan's costliest shape, on an 8-way partitioned schema:
   under Auto with the planner's hints, serially and at dop 2, the
   fact-mid HASH JOIN itself runs vectorized, not only its scans. *)
let test_analytic_join_vectorizes () =
  let db, _ =
    SG.build ~families:1 ~sample_frac:0.15 ~row_scale:1. ~partitions:8
      ~seed:2006 ()
  in
  let cat = db.Storage.Db.cat in
  let q =
    Sqlparse.Parser.parse_exn cat
      "SELECT f.id, m.status FROM f0_fact0 f, f0_mid m WHERE f.mid_id = m.id \
       AND f.m2 < 1500"
  in
  let plan = (D.optimize cat q).D.res_annotation.Planner.Annotation.an_plan in
  let serial_rows = exec_rows db plan in
  List.iter
    (fun (what, p) ->
      let join =
        match hash_join_of p with
        | Some j -> j
        | None -> Alcotest.failf "%s: no HASH JOIN in %s" what (P.to_string p)
      in
      let card_of = Planner.Plan_est.pipeline_hints cat p in
      let _, rows, _, stat_of =
        Exec.Executor.execute_analyzed ~engine:Exec.Executor.Auto ~card_of db p
      in
      Alcotest.(check bool) (what ^ ": rows equal serial") true
        (rows_of rows = serial_rows);
      Alcotest.(check string) (what ^ ": HASH JOIN engine") "vector"
        (match stat_of join with
        | Some st -> st.Exec.Executor.ns_engine
        | None -> "not executed"))
    [ ("serial", plan); ("dop 2", Par.apply cat ~dop:(Par.Fixed 2) plan) ]

let () =
  Alcotest.run "parallel"
    [
      (* first: the reuse test needs a pool no larger than one helper *)
      ( "run_tasks",
        [
          Alcotest.test_case "domain reuse" `Quick test_run_tasks_reuse;
          Alcotest.test_case "sequential results" `Quick
            test_run_tasks_sequential;
          Alcotest.test_case "exception contract" `Quick
            test_run_tasks_exceptions;
          Alcotest.test_case "concurrent callers" `Quick
            test_run_tasks_concurrent;
          Alcotest.test_case "nested fan-out" `Quick test_run_tasks_nested;
          Alcotest.test_case "queue depth histogram" `Quick
            test_run_tasks_queue_depth;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_parallel_differential;
          Alcotest.test_case "differential coverage" `Slow (fun () ->
              if !differential_covered < 30 then
                Alcotest.failf
                  "differential exercised only %d (db, plan) pairs"
                  !differential_covered);
          QCheck_alcotest.to_alcotest prop_prune_preserves_results;
          QCheck_alcotest.to_alcotest prop_range_prune_preserves_results;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "wrong prune caught" `Quick
            test_wrong_prune_caught;
          Alcotest.test_case "derive_prune" `Quick test_derive_prune;
          Alcotest.test_case "survivors" `Quick test_survivors;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "PL009 exchange legality" `Quick
            test_pl009_shapes;
          Alcotest.test_case "Parallel.apply rewrites" `Quick
            test_apply_shapes;
          Alcotest.test_case "exchange engine stats" `Quick
            test_exchange_engine_stats;
          Alcotest.test_case "two-phase aggregation" `Quick
            test_two_phase_agg;
          Alcotest.test_case "exchange hints stay on the caller" `Quick
            test_exchange_card_of_domain;
        ] );
      ( "vectorized",
        [
          Alcotest.test_case "forced engines agree with baseline" `Quick
            test_vector_tasks_differential;
          Alcotest.test_case "EXPLAIN ANALYZE engine of task nodes" `Quick
            test_vector_tasks_explain;
        ] );
      ( "vector join",
        [
          QCheck_alcotest.to_alcotest prop_vector_join_differential;
          Alcotest.test_case "joins run vectorized inside tasks" `Quick
            (fun () ->
              if !jn_in_tasks = 0 then
                Alcotest.fail "no join vectorized inside an exchange task");
          Alcotest.test_case "analytic_scan join is vectorized" `Quick
            test_analytic_join_vectorizes;
        ] );
    ]
