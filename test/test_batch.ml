(** Differential tests for the block-at-a-time executor.

    Three oracles pin the batch engine:
    - {!Refeval}: every generated workload query, optimized and executed
      through the batch executor, must return the same bag of rows as
      the IR-level reference evaluator.
    - {!Exec.Baseline}: the list-at-a-time engine the batch executor
      replaced, kept as a differential oracle — rows {e and} meter
      totals must match field by field.
    - Batch-size invariance: results, meter totals (including TIS/NL
      cache-hit counts) and per-node EXPLAIN ANALYZE stats must be
      identical for batch sizes 1, 2, 7, 256 and 1024.

    The columnar sections extend the same discipline to the vectorized
    engine: forced-engine runs (Baseline vs Row vs Vector) must agree
    on rows and every meter field across batch sizes, selection-vector
    representation (dense vs sparse) must be unobservable, the
    {!Exec.Colbatch} null bitmaps must roundtrip rows coming out of
    null-extending outer joins, and column images must not keep a
    dropped database's rows alive. *)

module QG = Workload.Query_gen
module SG = Workload.Schema_gen
module D = Cbqt.Driver
module M = Exec.Meter
module Plan = Exec.Plan
module V = Sqlir.Value

let db, schema = SG.build ~families:2 ~sample_frac:0.5 ~row_scale:0.08 ~seed:7 ()
let cat = db.Storage.Db.cat

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

let plan_of q = (D.optimize cat q).D.res_annotation.Planner.Annotation.an_plan

let norm rows =
  List.sort (List.compare V.compare_total) (List.map Array.to_list rows)

(* every plan node, root first *)
let rec nodes p = p :: List.concat_map nodes (Plan.children p)

(* ------------------------------------------------------------------ *)
(* Batch executor vs the reference evaluator                            *)
(* ------------------------------------------------------------------ *)

let prop_batch_matches_refeval =
  QCheck.Test.make ~count:60 ~name:"batch executor matches refeval" gen_query
    (fun input ->
      let q = query_of input in
      match (plan_of q, Refeval.eval db q) with
      | plan, reference ->
          let _, rows, _ = Exec.Executor.execute db plan in
          norm rows = List.sort (List.compare V.compare_total) reference.Refeval.rows
      | exception _ -> QCheck.assume_fail ())

(* ------------------------------------------------------------------ *)
(* Batch executor vs the list-at-a-time baseline                        *)
(* ------------------------------------------------------------------ *)

let prop_batch_matches_baseline =
  QCheck.Test.make ~count:60
    ~name:"batch executor matches baseline rows and meter" gen_query
    (fun input ->
      let q = query_of input in
      match plan_of q with
      | plan ->
          let _, brows, bm = Exec.Baseline.execute db plan in
          let _, xrows, xm = Exec.Executor.execute db plan in
          (* same rows in the same order: both engines are deterministic
             transliterations of the same operator semantics *)
          List.map Array.to_list brows = List.map Array.to_list xrows
          && M.to_fields bm = M.to_fields xm
      | exception _ -> QCheck.assume_fail ())

(* ------------------------------------------------------------------ *)
(* Batch-size invariance                                                *)
(* ------------------------------------------------------------------ *)

let sizes = [ 1; 2; 7; 256; 1024 ]

let analyzed_snapshot plan batch_size =
  let _, rows, meter, lookup =
    Exec.Executor.execute_analyzed ~batch_size db plan
  in
  let stats =
    List.map
      (fun p ->
        match lookup p with
        | None -> None
        | Some st ->
            Some
              ( st.Exec.Executor.ns_calls,
                st.Exec.Executor.ns_rows,
                M.to_fields st.Exec.Executor.ns_meter ))
      (nodes plan)
  in
  (List.map Array.to_list rows, M.to_fields meter, stats)

let prop_batch_size_invariant =
  QCheck.Test.make ~count:40
    ~name:"batch size never changes rows, meter, or analyze stats" gen_query
    (fun input ->
      let q = query_of input in
      match plan_of q with
      | plan ->
          let reference = analyzed_snapshot plan 256 in
          List.for_all (fun s -> analyzed_snapshot plan s = reference) sizes
      | exception _ -> QCheck.assume_fail ())

(* ------------------------------------------------------------------ *)
(* Unit: cache-hit counts across batch sizes on a correlated plan        *)
(* ------------------------------------------------------------------ *)

let test_cache_hits_across_sizes () =
  (* a correlated NOT EXISTS exercises the TIS subquery cache; the hit
     count is part of the meter and must not depend on the batch size *)
  let g = QG.create ~seed:42 schema in
  let q = QG.generate g QG.C_not_exists in
  let plan = plan_of q in
  let counts =
    List.map
      (fun batch_size ->
        let _, _, m = Exec.Executor.execute ~batch_size db plan in
        (m.M.subq_execs, m.M.subq_cache_hits, m.M.key_build))
      sizes
  in
  match counts with
  | [] -> assert false
  | c0 :: rest ->
      List.iteri
        (fun i c ->
          Alcotest.(check (triple int int int))
            (Printf.sprintf "size %d: subq execs/hits/key_build"
               (List.nth sizes (i + 1)))
            c0 c)
        rest

(* ------------------------------------------------------------------ *)
(* Columnar engine: forced-engine differential across batch sizes       *)
(* ------------------------------------------------------------------ *)

(* the test tables are all below the Auto cardinality threshold, so the
   vectorized path must be forced to execute at all here *)
let vec_sizes = [ 1; 7; 256; 1024 ]

let prop_forced_engines_agree =
  QCheck.Test.make ~count:60
    ~name:"forced row/vector engines match Baseline rows and meter" gen_query
    (fun input ->
      let q = query_of input in
      match plan_of q with
      | plan ->
          let _, brows, bm = Exec.Baseline.execute db plan in
          let brows = List.map Array.to_list brows
          and bfields = M.to_fields bm in
          List.for_all
            (fun batch_size ->
              List.for_all
                (fun engine ->
                  let _, rows, m =
                    Exec.Executor.execute ~engine ~batch_size db plan
                  in
                  List.map Array.to_list rows = brows
                  && M.to_fields m = bfields)
                [ Exec.Executor.Row; Exec.Executor.Vector ])
            vec_sizes
      | exception _ -> QCheck.assume_fail ())

(* ------------------------------------------------------------------ *)
(* Columnar engine: selection-vector representation invariance          *)
(* ------------------------------------------------------------------ *)

let analyzed_vec_snapshot plan batch_size =
  let _, rows, meter, lookup =
    Exec.Executor.execute_analyzed ~engine:Exec.Executor.Vector ~batch_size db
      plan
  in
  let stats =
    List.map
      (fun p ->
        Option.map
          (fun st ->
            ( st.Exec.Executor.ns_calls,
              st.Exec.Executor.ns_rows,
              st.Exec.Executor.ns_engine,
              st.Exec.Executor.ns_sel_in,
              M.to_fields st.Exec.Executor.ns_meter ))
          (lookup p))
      (nodes plan)
  in
  (List.map Array.to_list rows, M.to_fields meter, stats)

let prop_selection_vector_invariance =
  QCheck.Test.make ~count:40
    ~name:"dense and sparse selection vectors are indistinguishable"
    gen_query (fun input ->
      let q = query_of input in
      match plan_of q with
      | plan ->
          let with_sparse sparse f =
            Exec.Vector.force_sparse := sparse;
            Fun.protect ~finally:(fun () -> Exec.Vector.force_sparse := false) f
          in
          List.for_all
            (fun batch_size ->
              let dense = with_sparse false (fun () ->
                  analyzed_vec_snapshot plan batch_size)
              and sparse = with_sparse true (fun () ->
                  analyzed_vec_snapshot plan batch_size)
              in
              dense = sparse)
            vec_sizes
      | exception _ -> QCheck.assume_fail ())

(* ------------------------------------------------------------------ *)
(* Columnar engine: hybrid choice is observable in engine stats          *)
(* ------------------------------------------------------------------ *)

let test_hybrid_choice () =
  let g = QG.create ~seed:11 schema in
  let q = QG.generate g QG.C_spj in
  let plan = plan_of q in
  let run ~vector_threshold =
    let es = Exec.Executor.engine_stats_create () in
    ignore (Exec.Executor.execute ~vector_threshold ~engine_stats:es db plan);
    es
  in
  (* threshold 0: every eligible pipeline vectorizes *)
  let es = run ~vector_threshold:0. in
  Alcotest.(check bool) "some pipeline vectorizes at threshold 0" true
    (es.Exec.Executor.es_vector > 0);
  (* huge threshold: the tiny test tables all stay on the row path *)
  let es = run ~vector_threshold:1e12 in
  Alcotest.(check int) "no pipeline vectorizes at huge threshold" 0
    es.Exec.Executor.es_vector;
  Alcotest.(check bool) "row pipelines counted" true
    (es.Exec.Executor.es_row > 0)

(* ------------------------------------------------------------------ *)
(* Null bitmap roundtrip under outer joins                              *)
(* ------------------------------------------------------------------ *)

(** Rows from a null-extending LEFT OUTER JOIN, columnarized, must
    roundtrip exactly: [Colbatch.get] rebuilds every cell and
    [Colbatch.is_null] agrees with [Value.is_null]. Executing the join
    once with an always-false condition (every left row null-extended)
    and once with an always-true one (no nulls), then concatenating,
    yields columns whose bitmaps mix set and clear bits. *)
let test_null_bitmap_outer_join () =
  let module A = Sqlir.Ast in
  let t1, t2 =
    let names =
      Hashtbl.fold (fun n _ acc -> n :: acc) db.Storage.Db.rels []
      |> List.sort String.compare
    in
    match names with a :: b :: _ -> (a, b) | _ -> assert false
  in
  let scan t alias = Plan.Table_scan { table = t; alias; filter = [] } in
  let join cond =
    Plan.Join
      {
        meth = Plan.Nested_loop;
        role = Plan.Left_outer;
        left = scan t1 "a";
        right = scan t2 "b";
        cond;
      }
  in
  let rows_of plan =
    let _, rows, _ = Exec.Executor.execute db plan in
    rows
  in
  let rows =
    Array.of_list (rows_of (join [ A.False ]) @ rows_of (join [ A.True ]))
  in
  Alcotest.(check bool) "sample has rows" true (Array.length rows > 0);
  let width = Array.length rows.(0) in
  let cb = Exec.Colbatch.of_rows rows ~width in
  let some_null = ref false
  and some_value = ref false in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          if V.is_null v then some_null := true else some_value := true;
          Alcotest.(check bool)
            (Printf.sprintf "is_null (%d,%d)" i j)
            (V.is_null v)
            (Exec.Colbatch.is_null cb ~row:i ~col:j);
          if V.compare_total v (Exec.Colbatch.get cb ~row:i ~col:j) <> 0 then
            Alcotest.failf "roundtrip mismatch at (%d,%d)" i j)
        row)
    rows;
  Alcotest.(check bool) "join produced null-extended cells" true !some_null;
  Alcotest.(check bool) "join produced non-null cells" true !some_value

(* ------------------------------------------------------------------ *)
(* Meter: per-column-vector allocation accounting                       *)
(* ------------------------------------------------------------------ *)

let test_vec_alloc_accounting () =
  let n = 100 and width = 3 in
  let rows =
    Array.init n (fun i ->
        [| V.Int i; V.Float (float_of_int i); V.Str (string_of_int i) |])
  in
  let w0 = Atomic.get M.vec_alloc_words in
  ignore (Exec.Colbatch.of_rows rows ~width);
  let dw = Atomic.get M.vec_alloc_words - w0 in
  (* at least one word per slot per column, plus the null bitmaps *)
  let bitmap_words = ((n + 7) / 8 + (Sys.word_size / 8) - 1) / (Sys.word_size / 8) in
  Alcotest.(check int) "words charged for a 3-column image"
    ((width * n) + (width * bitmap_words))
    dw;
  Alcotest.(check int) "bytes view is words scaled"
    (dw * (Sys.word_size / 8))
    (M.vec_alloc_bytes () - (w0 * (Sys.word_size / 8)))

(* ------------------------------------------------------------------ *)
(* Columnar images die with their database                              *)
(* ------------------------------------------------------------------ *)

(* A vectorized pipeline builds column images of the table it scans;
   once the database is dropped, nothing may keep its rows alive. *)
let test_images_die_with_db () =
  let module A = Sqlir.Ast in
  let rows = Weak.create 1 in
  let run () =
    let db, _ =
      SG.build ~families:1 ~sample_frac:0.5 ~row_scale:0.05 ~seed:3 ()
    in
    let rel = Storage.Db.relation db "f0_fact0" in
    Weak.set rows 0 (Some rel.Storage.Relation.r_rows);
    let m1 = A.Col { A.c_alias = "f"; A.c_col = "m1" } in
    let plan =
      Plan.Table_scan
        {
          table = "f0_fact0";
          alias = "f";
          filter = [ A.Cmp (A.Gt, m1, A.Const (V.Int 0)) ];
        }
    in
    let es = Exec.Executor.engine_stats_create () in
    ignore
      (Exec.Executor.execute ~engine:Exec.Executor.Vector ~engine_stats:es db
         plan);
    es.Exec.Executor.es_vector
  in
  Alcotest.(check int) "the pipeline vectorized" 1
    ((Sys.opaque_identity run) ());
  Gc.full_major ();
  Alcotest.(check bool) "the dropped database's rows are collected" true
    (Weak.get rows 0 = None)

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "batch"
    [
      ( "differential",
        qsuite
          [
            prop_batch_matches_refeval;
            prop_batch_matches_baseline;
            prop_batch_size_invariant;
          ] );
      ( "columnar",
        qsuite [ prop_forced_engines_agree; prop_selection_vector_invariance ]
        @ [
            Alcotest.test_case "hybrid engine choice in stats" `Quick
              test_hybrid_choice;
            Alcotest.test_case "null bitmap roundtrip under outer join" `Quick
              test_null_bitmap_outer_join;
            Alcotest.test_case "per-column-vector allocation accounting"
              `Quick test_vec_alloc_accounting;
            Alcotest.test_case "images die with their database" `Quick
              test_images_die_with_db;
          ] );
      ( "caching",
        [
          Alcotest.test_case "cache hits across batch sizes" `Quick
            test_cache_hits_across_sizes;
        ] );
    ]
