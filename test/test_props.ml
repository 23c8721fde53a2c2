(** Property-based tests (QCheck, registered via QCheck_alcotest).

    The heavyweight properties drive randomly generated queries through
    the full pipeline and compare against the reference evaluator:
    for any query [q] the workload generator can produce and any
    configuration, [execute (optimize (transform q)) = refeval q] as a
    multiset. Lighter properties cover the B-tree, SQL value semantics,
    selectivity bounds, and the state-space search invariants of
    Section 3.2. *)

module QG = Workload.Query_gen
module SG = Workload.Schema_gen
module V = Sqlir.Value

(* a deliberately tiny database: the reference evaluator used as the
   oracle is exponential in join width *)
let db, schema =
  SG.build ~families:2 ~sample_frac:0.5 ~row_scale:0.04 ~seed:99 ()

(* ------------------------------------------------------------------ *)
(* Full-pipeline equivalence on random queries                          *)
(* ------------------------------------------------------------------ *)

let all_classes =
  [
    QG.C_spj; QG.C_exists; QG.C_not_exists; QG.C_in_multi; QG.C_not_in;
    QG.C_agg_subq; QG.C_gb_view; QG.C_distinct_view; QG.C_union_factor;
    QG.C_gbp; QG.C_or; QG.C_setop; QG.C_pullup;
  ]

let gen_query =
  QCheck.make
    ~print:(fun (cls, seed) ->
      Printf.sprintf "%s (seed %d)" (QG.class_name cls) seed)
    QCheck.Gen.(
      pair (oneofl all_classes) (int_bound 100000))

let query_of (cls, seed) =
  let g = QG.create ~seed schema in
  QG.generate g cls

let rows_equal_ref (plan : Exec.Plan.t) (reference : Refeval.result) =
  let _, rows, _ = Exec.Executor.execute db plan in
  let norm r = List.sort (List.compare V.compare_total) r in
  norm (List.map Array.to_list rows) = norm reference.Refeval.rows

let prop_cbqt_equivalence =
  QCheck.Test.make ~count:60 ~name:"cbqt pipeline preserves semantics"
    gen_query (fun input ->
      let q = query_of input in
      let reference = Refeval.eval db q in
      let res = Cbqt.Driver.optimize db.Storage.Db.cat q in
      rows_equal_ref res.Cbqt.Driver.res_annotation.Planner.Annotation.an_plan
        reference)

let prop_heuristic_equivalence =
  QCheck.Test.make ~count:40 ~name:"heuristic pipeline preserves semantics"
    gen_query (fun input ->
      let q = query_of input in
      let reference = Refeval.eval db q in
      let res =
        Cbqt.Driver.optimize ~config:Cbqt.Driver.heuristic_config
          db.Storage.Db.cat q
      in
      rows_equal_ref res.Cbqt.Driver.res_annotation.Planner.Annotation.an_plan
        reference)

let prop_plain_optimizer_equivalence =
  QCheck.Test.make ~count:40 ~name:"untransformed optimizer preserves semantics"
    gen_query (fun input ->
      let q = query_of input in
      let reference = Refeval.eval db q in
      let opt = Planner.Optimizer.create db.Storage.Db.cat in
      let ann = Planner.Optimizer.optimize opt q in
      rows_equal_ref ann.Planner.Annotation.an_plan reference)

(* the cost-based transformations, as the driver searches them *)
let transformations =
  Transform.
    [
      Unnest_view.tx; Gb_view_merge.tx; Jppd.tx; Gb_placement.tx;
      Join_factor.tx; Predicate_pullup.tx; Setop_to_join.tx; Or_expansion.tx;
    ]

(* the single-object masks of [tx] over [q], as (bit, mask) pairs *)
let single_bits (tx : Transform.Tx.t) cat q =
  let n = List.length (tx.discover cat q) in
  List.init n (fun i -> (i, List.init n (fun j -> j = i)))

(* every individual cost-based transformation preserves semantics under
   the reference evaluator, for every object mask bit on its own, and
   every object is a real rewrite: its mask never returns the input *)
let prop_each_transformation =
  QCheck.Test.make ~count:80
    ~name:"each cost-based transformation preserves semantics per object"
    gen_query (fun input ->
      let q = query_of input in
      let cat = db.Storage.Db.cat in
      let reference = Refeval.eval db q in
      List.for_all
        (fun (tx : Transform.Tx.t) ->
          List.for_all
            (fun (i, mask) ->
              let q' = tx.apply_mask cat q mask in
              (q' != q
              || QCheck.Test.fail_reportf "%s bit %d left the query unchanged"
                   tx.name i)
              && Refeval.rows_equal reference (Refeval.eval db q'))
            (single_bits tx cat q))
        transformations)

let prop_heuristic_transforms =
  QCheck.Test.make ~count:80
    ~name:"heuristic transformations preserve semantics" gen_query
    (fun input ->
      let q = query_of input in
      let cat = db.Storage.Db.cat in
      let reference = Refeval.eval db q in
      List.for_all
        (fun f -> Refeval.rows_equal reference (Refeval.eval db (f cat q)))
        [
          Transform.Unnest_merge.apply;
          Transform.Join_elim.apply;
          Transform.Predicate_move.apply;
          Transform.Group_prune.apply;
          Transform.View_merge_spj.apply;
        ])

(* ------------------------------------------------------------------ *)
(* Immutability, dirty sets, and incremental-costing equivalence        *)
(* ------------------------------------------------------------------ *)

(* the IR is immutable and transformations are sharing-preserving
   rewrites: applying any transformation must leave the input tree
   bit-identical (this is what lets the driver cost states without
   deep-copying) *)
let prop_transformations_immutable =
  QCheck.Test.make ~count:80
    ~name:"transformations never mutate their input" gen_query (fun input ->
      let q = query_of input in
      let cat = db.Storage.Db.cat in
      let before = Sqlir.Pp.fingerprint q in
      List.iter
        (fun (tx : Transform.Tx.t) ->
          List.iter
            (fun (_, mask) -> ignore (tx.apply_mask cat q mask))
            (single_bits tx cat q);
          ignore (Transform.Tx.apply_all tx cat q))
        transformations;
      List.iter
        (fun f -> ignore (f cat q))
        [
          Transform.Unnest_merge.apply;
          Transform.Join_elim.apply;
          Transform.Predicate_move.apply;
          Transform.Group_prune.apply;
          Transform.View_merge_spj.apply;
        ];
      String.equal before (Sqlir.Pp.fingerprint q))

(* the ?touched accumulator must cover every block of the output that
   is not physically shared with the input — the dirty-set protocol the
   optimizer's identity cache relies on for incremental costing *)
let prop_touched_covers_dirty =
  QCheck.Test.make ~count:80
    ~name:"?touched covers every identity-fresh block of the output"
    gen_query (fun input ->
      let q = query_of input in
      let cat = db.Storage.Db.cat in
      let module Sset = Sqlir.Walk.Sset in
      List.for_all
        (fun (tx : Transform.Tx.t) ->
          List.for_all
            (fun (i, mask) ->
              let touched = ref Sset.empty in
              let q' = tx.apply_mask ~touched cat q mask in
              let dirty = Transform.Tx.dirty_blocks q q' in
              Sset.subset dirty !touched
              ||
              (QCheck.Test.fail_reportf
                 "%s bit %d: dirty %s not covered by touched %s" tx.name i
                 (String.concat "," (Sset.elements dirty))
                 (String.concat "," (Sset.elements !touched))))
            (single_bits tx cat q))
        transformations)

(* gensym counters ($agg7, $win3) depend on how many blocks the
   optimizer walked, which annotation reuse legitimately changes; strip
   the counter digits before comparing plans *)
let normalize_plan s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  let isprefix p =
    !i + String.length p <= n && String.sub s !i (String.length p) = p
  in
  while !i < n do
    if isprefix "$agg" || isprefix "$win" then (
      Buffer.add_string b (String.sub s !i 4);
      i := !i + 4;
      while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
        incr i
      done)
    else (
      Buffer.add_char b s.[!i];
      incr i)
  done;
  Buffer.contents b

(* cost-annotation reuse must be a pure optimization: with the caches
   off the driver re-optimizes every block of every state from scratch
   and must still produce bit-identical costs, the same winning masks,
   and the same physical plan *)
let prop_memo_equivalence =
  QCheck.Test.make ~count:40
    ~name:"annotation reuse never changes costs, masks, or plans"
    gen_query (fun input ->
      let q = query_of input in
      let cat = db.Storage.Db.cat in
      let run memo =
        Cbqt.Driver.optimize
          ~config:{ Cbqt.Driver.default_config with memo }
          cat q
      in
      let a = run true and b = run false in
      let plan r =
        normalize_plan
          (Fmt.str "%a" (Exec.Plan.pp ~indent:0)
             r.Cbqt.Driver.res_annotation.Planner.Annotation.an_plan)
      in
      let masks r =
        List.map
          (fun s -> (s.Cbqt.Driver.sr_name, s.Cbqt.Driver.sr_chosen))
          r.Cbqt.Driver.res_report.Cbqt.Driver.rp_steps
      in
      a.Cbqt.Driver.res_report.Cbqt.Driver.rp_final_cost
      = b.Cbqt.Driver.res_report.Cbqt.Driver.rp_final_cost
      && masks a = masks b
      && String.equal (plan a) (plan b))

(* ------------------------------------------------------------------ *)
(* B-tree vs naive scan                                                 *)
(* ------------------------------------------------------------------ *)

let prop_btree_eq =
  QCheck.Test.make ~count:200 ~name:"btree find_eq = naive filter"
    QCheck.(pair (small_list (int_bound 50)) (int_bound 50))
    (fun (values, probe) ->
      let bt = Storage.Btree.create ~cols:[ "k" ] ~unique:false in
      List.iteri (fun i v -> Storage.Btree.insert bt [ V.Int v ] i) values;
      let expected =
        List.filteri (fun _ _ -> true) values
        |> List.mapi (fun i v -> (i, v))
        |> List.filter (fun (_, v) -> v = probe)
        |> List.map fst
      in
      List.sort compare (Storage.Btree.find_eq bt [ V.Int probe ])
      = List.sort compare expected)

let prop_btree_range =
  QCheck.Test.make ~count:200 ~name:"btree range = naive filter"
    QCheck.(triple (small_list (int_bound 100)) (int_bound 100) (int_bound 100))
    (fun (values, a, b) ->
      let lo = min a b and hi = max a b in
      let bt = Storage.Btree.create ~cols:[ "k" ] ~unique:false in
      List.iteri (fun i v -> Storage.Btree.insert bt [ V.Int v ] i) values;
      let got, _ =
        Storage.Btree.range bt ~prefix:[]
          ~lo:(Storage.Btree.Incl (V.Int lo))
          ~hi:(Storage.Btree.Excl (V.Int hi))
      in
      let expected =
        List.mapi (fun i v -> (i, v)) values
        |> List.filter (fun (_, v) -> v >= lo && v < hi)
        |> List.map fst
      in
      List.sort compare got = List.sort compare expected)

(* ------------------------------------------------------------------ *)
(* Value semantics                                                      *)
(* ------------------------------------------------------------------ *)

let gen_value =
  QCheck.Gen.(
    oneof
      [
        return V.Null;
        map (fun i -> V.Int i) (int_range (-50) 50);
        map (fun f -> V.Float (float_of_int f /. 4.)) (int_range (-50) 50);
        map (fun s -> V.Str s) (oneofl [ "a"; "b"; "zz" ]);
        map (fun d -> V.Date d) (int_range 0 100);
      ])

let arb_value = QCheck.make ~print:V.to_string gen_value

let prop_compare_total_order =
  QCheck.Test.make ~count:500 ~name:"compare_total is a total order"
    (QCheck.triple arb_value arb_value arb_value) (fun (a, b, c) ->
      let ( <= ) x y = V.compare_total x y <= 0 in
      (* antisymmetry + transitivity on this triple *)
      (if a <= b && b <= a then V.compare_total a b = 0 else true)
      && if a <= b && b <= c then a <= c else true)

let prop_sql_compare_null =
  QCheck.Test.make ~count:200 ~name:"comparisons with NULL are UNKNOWN"
    arb_value (fun v ->
      V.compare_sql V.Null v = None && V.compare_sql v V.Null = None)

let prop_arith_null =
  QCheck.Test.make ~count:200 ~name:"arithmetic with NULL is NULL" arb_value
    (fun v ->
      List.for_all
        (fun op ->
          V.is_null (V.arith op V.Null v) && V.is_null (V.arith op v V.Null))
        [ `Add; `Sub; `Mul; `Div ])

(* ------------------------------------------------------------------ *)
(* Selectivity bounds                                                   *)
(* ------------------------------------------------------------------ *)

let prop_selectivity_bounds =
  QCheck.Test.make ~count:100 ~name:"selectivities lie in (0, 1]"
    gen_query (fun input ->
      let q = query_of input in
      match q with
      | Sqlir.Ast.Block b ->
          let env =
            Cost.Info.of_table db.Storage.Db.cat
              ~table:(List.hd (Catalog.table_names db.Storage.Db.cat))
              ~alias:"x"
          in
          List.for_all
            (fun p ->
              let s = Cost.Selectivity.pred_sel env p in
              s > 0. && s <= 1.)
            b.Sqlir.Ast.where
      | _ -> true)

(* ------------------------------------------------------------------ *)
(* Search invariants (Section 3.2)                                      *)
(* ------------------------------------------------------------------ *)

let gen_costfn =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
    QCheck.Gen.(pair (int_range 1 6) (int_bound 10000))

let costfn seed mask =
  (* deterministic pseudo-random cost per state *)
  float_of_int
    (Hashtbl.hash (seed, mask) mod 1000)

let prop_search_state_counts =
  QCheck.Test.make ~count:200 ~name:"strategy state counts (2^N / N+1 / 2)"
    gen_costfn (fun (n, seed) ->
      let f = costfn seed in
      let ex = Cbqt.Search.run Cbqt.Search.Exhaustive n f in
      let li = Cbqt.Search.run Cbqt.Search.Linear n f in
      let tp = Cbqt.Search.run Cbqt.Search.Two_pass n f in
      let it = Cbqt.Search.run Cbqt.Search.Iterative n f in
      ex.Cbqt.Search.r_states = 1 lsl n
      && li.r_states <= n + 1
      && tp.r_states = 2
      && it.r_states >= 2
      && it.r_states <= 1 lsl n)

let prop_exhaustive_optimal =
  QCheck.Test.make ~count:200 ~name:"exhaustive finds the global optimum"
    gen_costfn (fun (n, seed) ->
      let f = costfn seed in
      let ex = Cbqt.Search.run Cbqt.Search.Exhaustive n f in
      let all = Cbqt.Search.all_masks n in
      let best = List.fold_left (fun acc m -> Float.min acc (f m)) infinity all in
      ex.Cbqt.Search.r_best_cost = best)

let prop_strategies_dominated_by_exhaustive =
  QCheck.Test.make ~count:200
    ~name:"cheaper strategies never beat exhaustive" gen_costfn
    (fun (n, seed) ->
      let f = costfn seed in
      let ex = Cbqt.Search.run Cbqt.Search.Exhaustive n f in
      List.for_all
        (fun s ->
          (Cbqt.Search.run s n f).Cbqt.Search.r_best_cost
          >= ex.Cbqt.Search.r_best_cost)
        [ Cbqt.Search.Linear; Cbqt.Search.Two_pass; Cbqt.Search.Iterative ])

let prop_searches_never_worse_than_baseline =
  QCheck.Test.make ~count:200 ~name:"every strategy is >= the (0,...) state"
    gen_costfn (fun (n, seed) ->
      let f = costfn seed in
      let base = f (Cbqt.Search.zeros n) in
      List.for_all
        (fun s -> (Cbqt.Search.run s n f).Cbqt.Search.r_best_cost <= base)
        [
          Cbqt.Search.Exhaustive; Cbqt.Search.Linear; Cbqt.Search.Two_pass;
          Cbqt.Search.Iterative;
        ])

let () =
  let to_alco = QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "pipeline equivalence",
        [
          to_alco prop_cbqt_equivalence;
          to_alco prop_heuristic_equivalence;
          to_alco prop_plain_optimizer_equivalence;
          to_alco prop_each_transformation;
          to_alco prop_heuristic_transforms;
        ] );
      ( "incremental costing",
        [
          to_alco prop_transformations_immutable;
          to_alco prop_touched_covers_dirty;
          to_alco prop_memo_equivalence;
        ] );
      ( "btree",
        [ to_alco prop_btree_eq; to_alco prop_btree_range ] );
      ( "values",
        [
          to_alco prop_compare_total_order;
          to_alco prop_sql_compare_null;
          to_alco prop_arith_null;
        ] );
      ("selectivity", [ to_alco prop_selectivity_bounds ]);
      ( "search",
        [
          to_alco prop_search_state_counts;
          to_alco prop_exhaustive_optimal;
          to_alco prop_strategies_dominated_by_exhaustive;
          to_alco prop_searches_never_worse_than_baseline;
        ] );
    ]
