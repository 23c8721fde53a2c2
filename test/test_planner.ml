(** Physical optimizer tests: every optimized plan must return exactly
    what the reference evaluator returns, and plan-shape expectations
    (index choice, join constraints, TIS handling) are asserted on
    representative queries. *)

open Sqlir
module A = Ast
module V = Value
module Plan = Exec.Plan
module Opt = Planner.Optimizer
open Tsupport

let db = lazy (hr_db ())

let check q = ignore (check_against_ref (Lazy.force db) q)

let test_single_table () =
  check
    (q
       ~select:[ si (c "e" "name") "name"; si (c "e" "salary") "salary" ]
       ~from:[ tbl "employees" "e" ]
       ~where:[ c "e" "salary" >% i 6000 ]
       ())

let test_point_lookup_uses_index () =
  let db = Lazy.force db in
  let query =
    q
      ~select:[ si (c "e" "name") "name" ]
      ~from:[ tbl "employees" "e" ]
      ~where:[ c "e" "emp_id" =% i 1005 ]
      ()
  in
  let _, ann, _ = check_against_ref db query in
  let rec has_index_scan = function
    | Plan.Index_scan { index = "emp_pk"; _ } -> true
    | Plan.Project { child; _ } | Plan.Filter { child; _ } -> has_index_scan child
    | _ -> false
  in
  Alcotest.(check bool) "uses emp_pk" true (has_index_scan ann.Planner.Annotation.an_plan)

let test_two_way_join () =
  check
    (q
       ~select:[ si (c "e" "name") "n"; si (c "d" "dept_name") "dn" ]
       ~from:[ tbl "employees" "e"; tbl "departments" "d" ]
       ~where:[ c "e" "dept_id" =% c "d" "dept_id" ]
       ())

let test_three_way_join_with_filters () =
  check
    (q
       ~select:[ si (c "e" "name") "n"; si (c "l" "city") "city" ]
       ~from:[ tbl "employees" "e"; tbl "departments" "d"; tbl "locations" "l" ]
       ~where:
         [
           c "e" "dept_id" =% c "d" "dept_id";
           c "d" "loc_id" =% c "l" "loc_id";
           c "l" "country_id" =% s "US";
           c "e" "salary" >% i 4000;
         ]
       ())

let test_left_outer_join () =
  check
    (q
       ~select:[ si (c "e" "name") "n"; si (c "d" "dept_name") "dn" ]
       ~from:
         [
           tbl "employees" "e";
           tbl ~kind:A.J_left
             ~cond:[ c "e" "dept_id" =% c "d" "dept_id" ]
             "departments" "d";
         ]
       ())

let test_semijoin_entry () =
  check
    (q
       ~select:[ si (c "d" "dept_name") "dn" ]
       ~from:
         [
           tbl "departments" "d";
           tbl ~kind:A.J_semi
             ~cond:[ c "d" "dept_id" =% c "e" "dept_id"; c "e" "salary" >% i 6000 ]
             "employees" "e";
         ]
       ())

let test_antijoin_entry () =
  check
    (q
       ~select:[ si (c "d" "dept_name") "dn" ]
       ~from:
         [
           tbl "departments" "d";
           tbl ~kind:A.J_anti
             ~cond:[ c "d" "dept_id" =% c "e" "dept_id"; c "e" "salary" >% i 7500 ]
             "employees" "e";
         ]
       ())

let test_group_by () =
  check
    (q
       ~select:
         [
           si (c "e" "dept_id") "dept_id";
           si (A.Agg (A.Avg, Some (c "e" "salary"), false)) "avg_sal";
           si (A.Agg (A.Count_star, None, false)) "cnt";
         ]
       ~from:[ tbl "employees" "e" ]
       ~group_by:[ c "e" "dept_id" ]
       ())

let test_group_by_having () =
  check
    (q
       ~select:
         [
           si (c "e" "dept_id") "dept_id";
           si (A.Agg (A.Max, Some (c "e" "salary"), false)) "mx";
         ]
       ~from:[ tbl "employees" "e" ]
       ~group_by:[ c "e" "dept_id" ]
       ~having:[ A.Agg (A.Count_star, None, false) >% i 5 ]
       ())

let test_scalar_aggregate () =
  check
    (q
       ~select:[ si (A.Agg (A.Avg, Some (c "e" "salary"), false)) "avg_sal" ]
       ~from:[ tbl "employees" "e" ]
       ())

let test_distinct () =
  check
    (q ~distinct:true
       ~select:[ si (c "e" "dept_id") "dept_id" ]
       ~from:[ tbl "employees" "e" ]
       ())

let test_order_limit () =
  let db = Lazy.force db in
  let query =
    q
      ~select:[ si (c "e" "name") "n"; si (c "e" "salary") "s" ]
      ~from:[ tbl "employees" "e" ]
      ~order_by:[ (c "e" "salary", A.Desc) ]
      ~limit:5 ()
  in
  (* check_against_ref ignores order; additionally verify the ordering *)
  let rows, _, _ = check_against_ref db query in
  let sals = List.map (fun r -> r.(1)) rows in
  let sorted = List.sort (fun a b -> V.compare_total b a) sals in
  Alcotest.(check bool) "ordered desc" true (sals = sorted);
  Alcotest.(check int) "limit 5" 5 (List.length rows)

let test_correlated_exists_tis () =
  check
    (q
       ~select:[ si (c "d" "dept_name") "dn" ]
       ~from:[ tbl "departments" "d" ]
       ~where:
         [
           A.Exists
             (q
                ~select:[ si (i 1) "one" ]
                ~from:[ tbl "employees" "e" ]
                ~where:
                  [ c "e" "dept_id" =% c "d" "dept_id"; c "e" "salary" >% i 6000 ]
                ());
         ]
       ())

let test_not_in_tis_nulls () =
  (* NOT IN over a column with NULLs: classic trap; subquery returns
     some NULL dept_ids so nothing qualifies *)
  check
    (q
       ~select:[ si (c "d" "dept_name") "dn" ]
       ~from:[ tbl "departments" "d" ]
       ~where:
         [
           A.Not_in_subq
             ( [ c "d" "dept_id" ],
               q
                 ~select:[ si (c "e" "dept_id") "dept_id" ]
                 ~from:[ tbl "employees" "e" ]
                 () );
         ]
       ())

let test_scalar_subquery_correlated () =
  (* Q1's first subquery shape: salary above department average *)
  check
    (q
       ~select:[ si (c "e1" "name") "n" ]
       ~from:[ tbl "employees" "e1" ]
       ~where:
         [
           A.Cmp_subq
             ( A.Gt,
               c "e1" "salary",
               None,
               q
                 ~select:[ si (A.Agg (A.Avg, Some (c "e2" "salary"), false)) "a" ]
                 ~from:[ tbl "employees" "e2" ]
                 ~where:[ c "e2" "dept_id" =% c "e1" "dept_id" ]
                 () );
         ]
       ())

let test_any_all_subqueries () =
  check
    (q
       ~select:[ si (c "d" "dept_name") "dn" ]
       ~from:[ tbl "departments" "d" ]
       ~where:
         [
           A.Cmp_subq
             ( A.Lt,
               c "d" "dept_id",
               Some A.Q_all,
               q
                 ~select:[ si (c "e" "dept_id") "x" ]
                 ~from:[ tbl "employees" "e" ]
                 ~where:[ A.Not (A.Is_null (c "e" "dept_id")) ]
                 () );
         ]
       ());
  check
    (q
       ~select:[ si (c "d" "dept_name") "dn" ]
       ~from:[ tbl "departments" "d" ]
       ~where:
         [
           A.Cmp_subq
             ( A.Ge,
               c "d" "dept_id",
               Some A.Q_any,
               q
                 ~select:[ si (c "e" "job_id") "x" ]
                 ~from:[ tbl "employees" "e" ]
                 () );
         ]
       ())

let test_inline_view () =
  check
    (q
       ~select:[ si (c "v" "dept_id") "dept_id"; si (c "v" "avg_sal") "avg_sal" ]
       ~from:
         [
           view
             (q
                ~select:
                  [
                    si (c "e" "dept_id") "dept_id";
                    si (A.Agg (A.Avg, Some (c "e" "salary"), false)) "avg_sal";
                  ]
                ~from:[ tbl "employees" "e" ]
                ~group_by:[ c "e" "dept_id" ]
                ())
             "v";
         ]
       ~where:[ c "v" "avg_sal" >% i 5000 ]
       ())

let test_view_joined_to_table () =
  check
    (q
       ~select:[ si (c "d" "dept_name") "dn"; si (c "v" "avg_sal") "avg_sal" ]
       ~from:
         [
           tbl "departments" "d";
           view
             (q
                ~select:
                  [
                    si (c "e" "dept_id") "dept_id";
                    si (A.Agg (A.Avg, Some (c "e" "salary"), false)) "avg_sal";
                  ]
                ~from:[ tbl "employees" "e" ]
                ~group_by:[ c "e" "dept_id" ]
                ())
             "v";
         ]
       ~where:[ c "d" "dept_id" =% c "v" "dept_id" ]
       ())

let test_correlated_view_jppd_shape () =
  (* a view whose WHERE references a sibling table: the planner must
     place it on the right of a nested-loop after the sibling *)
  let db = Lazy.force db in
  let query =
    q
      ~select:[ si (c "d" "dept_name") "dn"; si (c "v" "cnt") "cnt" ]
      ~from:
        [
          tbl "departments" "d";
          view
            (q
               ~select:[ si (A.Agg (A.Count_star, None, false)) "cnt" ]
               ~from:[ tbl "employees" "e" ]
               ~where:[ c "e" "dept_id" =% c "d" "dept_id" ]
               ())
            "v";
        ]
      ()
  in
  let _, ann, _ = check_against_ref db query in
  let rec top_join = function
    | Plan.Project { child; _ } | Plan.Filter { child; _ } -> top_join child
    | Plan.Join { meth; _ } -> Some meth
    | _ -> None
  in
  Alcotest.(check bool) "correlated view joined by NL" true
    (top_join ann.Planner.Annotation.an_plan = Some Plan.Nested_loop)

let test_union_all_query () =
  check
    (A.Setop
       ( A.Union_all,
         q
           ~select:[ si (c "e" "name") "n"; si (c "e" "dept_id") "d" ]
           ~from:[ tbl "employees" "e" ]
           ~where:[ c "e" "salary" >% i 7000 ]
           (),
         q
           ~select:[ si (c "e2" "name") "n"; si (c "e2" "dept_id") "d" ]
           ~from:[ tbl "employees" "e2" ]
           ~where:[ c "e2" "salary" <% i 3500 ]
           () ))

let test_minus_intersect () =
  let mk op =
    A.Setop
      ( op,
        q
          ~select:[ si (c "e" "dept_id") "d" ]
          ~from:[ tbl "employees" "e" ]
          (),
        q
          ~select:[ si (c "d" "dept_id") "d" ]
          ~from:[ tbl "departments" "d" ]
          ~where:[ c "d" "dept_id" <% i 13 ]
          () )
  in
  check (mk A.Minus);
  check (mk A.Intersect);
  check (mk A.Union)

let test_window_in_select () =
  check
    (q
       ~select:
         [
           si (c "j" "emp_id") "emp_id";
           si
             (A.Win
                ( A.Count_star,
                  None,
                  {
                    A.w_pby = [ c "j" "dept_id" ];
                    w_oby = [ (c "j" "start_date", A.Asc) ];
                  } ))
             "rcnt";
         ]
       ~from:[ tbl "job_history" "j" ]
       ())

let test_expression_select () =
  check
    (q
       ~select:
         [
           si (A.Binop (A.Add, c "e" "salary", i 100)) "sal_plus";
           si
             (A.Case
                ( [ (c "e" "salary" >% i 6000, s "high") ],
                  Some (s "low") ))
             "band";
         ]
       ~from:[ tbl "employees" "e" ]
       ~where:[ A.Between (c "e" "salary", i 3000, i 7000) ]
       ())

let test_in_list_and_or () =
  check
    (q
       ~select:[ si (c "e" "name") "n" ]
       ~from:[ tbl "employees" "e" ]
       ~where:
         [
           A.In_list (c "e" "job_id", [ V.Int 1; V.Int 3; V.Int 5 ]);
           A.Or (c "e" "salary" <% i 4000, c "e" "salary" >% i 7000);
         ]
       ())

let test_semijoin_distinct_alternative () =
  (* semijoin departments ⋉ employees on dept_id: employees has only 7
     distinct dept values, so the optimizer may evaluate the
     distinct-inner-join variant; whatever it picks must stay correct *)
  let db = Lazy.force db in
  let query =
    q
      ~select:[ si (c "d" "dept_name") "dn" ]
      ~from:
        [
          tbl "departments" "d";
          tbl ~kind:A.J_semi
            ~cond:[ c "d" "dept_id" =% c "e" "dept_id" ]
            "employees" "e";
        ]
      ()
  in
  let _, ann, _ = check_against_ref db query in
  (* the chosen plan is either a semijoin or an inner join against a
     DISTINCT view — assert it is one of the two shapes *)
  let rec shapes p =
    match p with
    | Plan.Join { role = Plan.Semi; _ } -> [ `Semi ]
    | Plan.Distinct _ -> [ `Distinct ]
    | Plan.Join { left; right; _ } -> shapes left @ shapes right
    | Plan.Project { child; _ }
    | Plan.Filter { child; _ }
    | Plan.Subq_filter { child; _ }
    | Plan.Sort { child; _ }
    | Plan.Limit { child; _ } ->
        shapes child
    | _ -> []
  in
  Alcotest.(check bool) "semijoin or distinct variant" true
    (shapes ann.Planner.Annotation.an_plan <> [])

let test_cost_positive_and_rows_estimated () =
  let db = Lazy.force db in
  let opt = Opt.create db.Storage.Db.cat in
  let ann =
    Opt.optimize opt
      (q
         ~select:[ si (c "e" "name") "n" ]
         ~from:[ tbl "employees" "e" ]
         ~where:[ c "e" "salary" >% i 6000 ]
         ())
  in
  Alcotest.(check bool) "cost positive" true (ann.Planner.Annotation.an_cost > 0.);
  Alcotest.(check bool) "rows within table bound" true
    (ann.an_rows <= 40. && ann.an_rows >= 0.5)

let test_annotation_cache_reuse () =
  let db = Lazy.force db in
  let cache = Hashtbl.create 16 in
  let opt = Opt.create ~annot_cache:cache db.Storage.Db.cat in
  let query =
    q
      ~select:[ si (c "e" "name") "n" ]
      ~from:[ tbl "employees" "e" ]
      ~where:
        [
          A.Exists
            (q
               ~select:[ si (i 1) "one" ]
               ~from:[ tbl "departments" "d" ]
               ~where:[ c "d" "dept_id" =% c "e" "dept_id" ]
               ());
        ]
      ()
  in
  let a1 = Opt.optimize opt query in
  let blocks_first = Opt.blocks_optimized opt in
  let a2 = Opt.optimize opt query in
  Alcotest.(check int) "no new blocks on re-optimization" blocks_first
    (Opt.blocks_optimized opt);
  Alcotest.(check bool) "cache hits recorded" true (Opt.cache_hits opt > 0);
  Alcotest.(check (float 0.001)) "same cost" a1.Planner.Annotation.an_cost
    a2.Planner.Annotation.an_cost

let test_greedy_join_many_tables () =
  (* a 12-table chain forces the greedy fallback (dp_threshold = 9);
     results must still match the reference evaluator *)
  let cat = Catalog.create () in
  let n = 12 in
  for i = 0 to n - 1 do
    Catalog.add_table cat
      {
        t_name = Printf.sprintf "c%d" i;
        t_cols =
          [
            { Catalog.c_name = "id"; c_ty = V.T_int; c_nullable = false };
            { Catalog.c_name = "nxt"; c_ty = V.T_int; c_nullable = false };
            { Catalog.c_name = "w"; c_ty = V.T_int; c_nullable = false };
          ];
        t_pkey = [ "id" ];
        t_fkeys = [];
        t_uniques = [];
      };
    Catalog.add_index cat
      {
        ix_name = Printf.sprintf "c%d_pk" i;
        ix_table = Printf.sprintf "c%d" i;
        ix_cols = [ "id" ];
        ix_unique = true;
      }
  done;
  let db = Storage.Db.create cat in
  for i = 0 to n - 1 do
    Storage.Db.load db
      (Storage.Relation.create ~name:(Printf.sprintf "c%d" i)
         ~schema:[ "id"; "nxt"; "w" ]
         (List.init 20 (fun r ->
              [| V.Int r; V.Int ((r + 3) mod 20); V.Int (r * 7 mod 13) |])))
  done;
  Storage.Stats_gather.analyze db;
  let froms = List.init n (fun i -> tbl (Printf.sprintf "c%d" i) (Printf.sprintf "t%d" i)) in
  let joins =
    List.init (n - 1) (fun i ->
        c (Printf.sprintf "t%d" i) "nxt" =% c (Printf.sprintf "t%d" (i + 1)) "id")
  in
  let query =
    q
      ~select:[ si (c "t0" "id") "a"; si (c (Printf.sprintf "t%d" (n - 1)) "w") "b" ]
      ~from:froms
      ~where:(joins @ [ c "t0" "w" >% i 5 ])
      ()
  in
  let opt = Opt.create cat in
  let ann = Opt.optimize opt query in
  let _, rows, _ = Exec.Executor.execute db ann.Planner.Annotation.an_plan in
  (* the chain joins are bijections (nxt = (id+3) mod 20), so exactly
     one output row per c0 row passing w > 5, where w = id*7 mod 13;
     that holds for 10 of the 20 ids. (The reference evaluator is
     exponential on a 12-table chain, so the oracle is analytic here.) *)
  Alcotest.(check int) "greedy plan row count" 10 (List.length rows)

let test_cost_cap_aborts () =
  let db = Lazy.force db in
  let opt = Opt.create db.Storage.Db.cat in
  Opt.set_cost_cap opt (Some 0.0001);
  Alcotest.check_raises "cost cap" Opt.Cost_cap_exceeded (fun () ->
      ignore
        (Opt.optimize opt
           (q
              ~select:[ si (c "e" "name") "n" ]
              ~from:[ tbl "employees" "e" ]
              ())))

(* ------------------------------------------------------------------ *)
(* Join enumeration: DP against brute force                             *)
(* ------------------------------------------------------------------ *)

module Ap = Planner.Access_path
module Ctx = Planner.Opt_ctx
module Sset = Walk.Sset

(* the integer columns of each HR table, join and filter candidates *)
let hr_int_cols =
  [|
    ("locations", [| "loc_id" |]);
    ("departments", [| "dept_id"; "loc_id" |]);
    ("employees", [| "emp_id"; "dept_id"; "mgr_id"; "salary"; "job_id" |]);
    ("job_history", [| "emp_id"; "job_id"; "dept_id" |]);
  |]

(* One generated FROM entry: table, join role (semi/anti/outer entries
   carry an ON condition on an earlier entry, hence a prerequisite),
   a WHERE join to an earlier inner entry, and an optional filter. *)
type gen_entry = {
  g_table : int;
  g_kind : A.jkind;
  g_link : int * int * int;  (** earlier entry, its column, own column *)
  g_filter : (int * int) option;  (** own column, lower bound *)
}

let gen_entries =
  let open QCheck.Gen in
  int_range 2 6 >>= fun n ->
  list_repeat n
    (quad (int_bound 3)
       (frequencyl
          [
            (5, A.J_inner); (1, A.J_semi); (1, A.J_anti); (1, A.J_anti_na);
            (1, A.J_left);
          ])
       (triple (int_bound 5) (int_bound 4) (int_bound 4))
       (opt (pair (int_bound 4) (int_bound 5000))))
  >|= List.mapi (fun i (g_table, kind, (j, cj, ci), g_filter) ->
          {
            g_table;
            g_kind = (if i = 0 then A.J_inner else kind);
            g_link = (j mod max 1 i, cj, ci);
            g_filter;
          })

let print_entries es =
  String.concat ", "
    (List.mapi
       (fun i e ->
         let kind =
           match e.g_kind with
           | A.J_inner -> "inner"
           | A.J_semi -> "semi"
           | A.J_anti -> "anti"
           | A.J_anti_na -> "anti-na"
           | A.J_left -> "left"
         in
         let j, _, _ = e.g_link in
         Printf.sprintf "t%d:%s %s->t%d%s" i (fst hr_int_cols.(e.g_table)) kind
           j
           (if e.g_filter = None then "" else " filtered"))
       es)

(* The DP's inputs for a generated block, built the way
   [Block_cost.optimize_block_core] builds them for base tables. *)
let dp_inputs t (es : gen_entry list) =
  let alias i = Printf.sprintf "t%d" i in
  let col_of i k =
    let cols = snd hr_int_cols.((List.nth es i).g_table) in
    c (alias i) cols.(k mod Array.length cols)
  in
  let local = Sset.of_list (List.mapi (fun i _ -> alias i) es) in
  let infos =
    List.mapi
      (fun i e ->
        Ctx.table_info t ~table:(fst hr_int_cols.(e.g_table)) ~alias:(alias i))
      es
  in
  let env = Ctx.merge_env (Cost.Info.empty :: infos) in
  let join_preds =
    List.concat
      (List.mapi
         (fun i e ->
           let j, cj, ci = e.g_link in
           if i > 0 && e.g_kind = A.J_inner
              && (List.nth es j).g_kind = A.J_inner
           then [ col_of i ci =% col_of j cj ]
           else [])
         es)
  in
  let entries =
    List.mapi
      (fun i e ->
        let j, cj, ci = e.g_link in
        let cond =
          if e.g_kind = A.J_inner then [] else [ col_of i ci =% col_of j cj ]
        in
        let singles =
          match e.g_filter with
          | Some (k, lo) -> [ col_of i k >% A.Const (V.Int lo) ]
          | None -> []
        in
        let info = List.nth infos i in
        {
          Ap.e_idx = i;
          e_alias = alias i;
          e_kind = e.g_kind;
          e_cond = cond;
          e_source = Ap.E_table (fst hr_int_cols.(e.g_table));
          e_info = info;
          e_rows = info.Cost.Info.ri_rows;
          e_single = singles;
          e_single_sel = Cost.Selectivity.conj_sel env singles;
          e_prereq =
            (if e.g_kind = A.J_inner then Sset.empty
             else Sset.singleton (alias j));
        })
      es
  in
  (local, env, join_preds, Array.of_list entries)

(* Every admissible left-deep order, each step keeping the cheapest
   join method, built from the same [initial_partial]/[extend] the DP
   uses. Returns the cheapest final cost and whether every subset got
   one row estimate whatever order joined it. *)
let brute_force t ~local ~env ~join_preds (entries : Ap.entry array) =
  let outer = Cost.Info.empty in
  let best = ref infinity in
  let rows : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let rows_agree = ref true in
  let seen (p : Ap.partial) =
    match Hashtbl.find_opt rows p.Ap.p_set with
    | Some r ->
        if Float.abs (r -. p.Ap.p_rows) > 1e-9 *. Float.max 1. r then
          rows_agree := false
    | None -> Hashtbl.replace rows p.Ap.p_set p.Ap.p_rows
  in
  let rec walk (lp : Ap.partial) remaining =
    seen lp;
    if remaining = [] then best := Float.min !best lp.Ap.p_cost
    else
      List.iter
        (fun (e : Ap.entry) ->
          if Ap.can_follow e lp.Ap.p_aliases then
            match Ap.extend t ~env ~local ~join_preds lp e with
            | [] -> ()
            | p :: ps ->
                let cheapest =
                  List.fold_left
                    (fun (a : Ap.partial) (b : Ap.partial) ->
                      if b.Ap.p_cost < a.Ap.p_cost then b else a)
                    p ps
                in
                walk cheapest (List.filter (fun x -> x != e) remaining))
        remaining
  in
  let all = Array.to_list entries in
  List.iter
    (fun e ->
      if Ap.can_start e then
        walk (Ap.initial_partial t ~outer ~env ~local e)
          (List.filter (fun x -> x != e) all))
    all;
  (!best, !rows_agree)

(* The join enumeration before each round was limited to the subsets
   of its own size: every round re-extends every entry of the table.
   Kept as the reference the one-extension-per-subset loop must match
   plan for plan. *)
let dp_join_every_round t ~outer ~env ~local ~(entries : Ap.entry array)
    ~join_preds =
  let n = Array.length entries in
  let best : (int, Ap.partial) Hashtbl.t = Hashtbl.create 64 in
  let consider (p : Ap.partial) =
    match Hashtbl.find_opt best p.Ap.p_set with
    | Some q when q.Ap.p_cost <= p.Ap.p_cost -> ()
    | _ -> Hashtbl.replace best p.Ap.p_set p
  in
  Array.iter
    (fun e ->
      if Ap.can_start e then
        consider (Ap.initial_partial t ~outer ~env ~local e))
    entries;
  for _size = 1 to n - 1 do
    let snapshot = Hashtbl.fold (fun k v acc -> (k, v) :: acc) best [] in
    List.iter
      (fun (set, lp) ->
        Array.iter
          (fun (e : Ap.entry) ->
            if set land Ap.bit e.Ap.e_idx = 0 && Ap.can_follow e lp.Ap.p_aliases
            then List.iter consider (Ap.extend t ~env ~local ~join_preds lp e))
          entries)
      snapshot
  done;
  Hashtbl.find best ((1 lsl n) - 1)

let gen_block = QCheck.make ~print:print_entries gen_entries

let run_dp es =
  let t = Ctx.create (Lazy.force db).Storage.Db.cat in
  let local, env, join_preds, entries = dp_inputs t es in
  let dp =
    Planner.Join_enum.dp_join t ~outer:Cost.Info.empty ~env ~local ~entries
      ~join_preds
  in
  (t, local, env, join_preds, entries, dp)

(* Best-per-subset DP is exact when a subset's row estimate does not
   depend on its join order. Outer joins ([max] of input and join
   rows) and the half-row floor on estimates break that; there the DP
   may miss the cheapest order but can never beat it. *)
let prop_dp_equals_brute_force =
  QCheck.Test.make ~count:150 ~name:"dp_join = brute force over orders"
    gen_block (fun es ->
      let t, local, env, join_preds, entries, dp = run_dp es in
      let bf, rows_agree = brute_force t ~local ~env ~join_preds entries in
      let d = dp.Ap.p_cost and tol = 1e-9 *. Float.max 1. (Float.abs bf) in
      if rows_agree && Float.abs (d -. bf) > tol then
        QCheck.Test.fail_reportf "dp cost %.17g, brute force %.17g" d bf;
      if d < bf -. tol then
        QCheck.Test.fail_reportf "dp cost %.17g beats brute force %.17g" d bf;
      true)

let prop_dp_equals_every_round =
  QCheck.Test.make ~count:150 ~name:"dp_join = every-round reference"
    gen_block (fun es ->
      let t, local, env, join_preds, entries, dp = run_dp es in
      let r =
        dp_join_every_round t ~outer:Cost.Info.empty ~env ~local ~entries
          ~join_preds
      in
      if
        dp.Ap.p_cost <> r.Ap.p_cost
        || Plan.fingerprint dp.Ap.p_plan <> Plan.fingerprint r.Ap.p_plan
      then
        QCheck.Test.fail_reportf "dp %.17g %s, reference %.17g %s"
          dp.Ap.p_cost (Plan.to_string dp.Ap.p_plan) r.Ap.p_cost
          (Plan.to_string r.Ap.p_plan);
      true)

let () =
  Alcotest.run "planner"
    [
      ( "basic",
        [
          Alcotest.test_case "single table" `Quick test_single_table;
          Alcotest.test_case "point lookup via index" `Quick
            test_point_lookup_uses_index;
          Alcotest.test_case "two-way join" `Quick test_two_way_join;
          Alcotest.test_case "three-way join" `Quick test_three_way_join_with_filters;
          Alcotest.test_case "left outer" `Quick test_left_outer_join;
          Alcotest.test_case "semijoin" `Quick test_semijoin_entry;
          Alcotest.test_case "antijoin" `Quick test_antijoin_entry;
          Alcotest.test_case "semi-distinct variant" `Quick
            test_semijoin_distinct_alternative;
          Alcotest.test_case "expressions" `Quick test_expression_select;
          Alcotest.test_case "in-list / or" `Quick test_in_list_and_or;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "group by" `Quick test_group_by;
          Alcotest.test_case "having" `Quick test_group_by_having;
          Alcotest.test_case "scalar agg" `Quick test_scalar_aggregate;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "order+limit" `Quick test_order_limit;
          Alcotest.test_case "window" `Quick test_window_in_select;
        ] );
      ( "subqueries",
        [
          Alcotest.test_case "correlated EXISTS" `Quick test_correlated_exists_tis;
          Alcotest.test_case "NOT IN with nulls" `Quick test_not_in_tis_nulls;
          Alcotest.test_case "correlated scalar" `Quick
            test_scalar_subquery_correlated;
          Alcotest.test_case "ANY/ALL" `Quick test_any_all_subqueries;
        ] );
      ( "views and setops",
        [
          Alcotest.test_case "inline group-by view" `Quick test_inline_view;
          Alcotest.test_case "view joined to table" `Quick test_view_joined_to_table;
          Alcotest.test_case "correlated view via NL" `Quick
            test_correlated_view_jppd_shape;
          Alcotest.test_case "union all" `Quick test_union_all_query;
          Alcotest.test_case "minus/intersect/union" `Quick test_minus_intersect;
        ] );
      ( "framework hooks",
        [
          Alcotest.test_case "cost and rows" `Quick test_cost_positive_and_rows_estimated;
          Alcotest.test_case "annotation reuse" `Quick test_annotation_cache_reuse;
          Alcotest.test_case "greedy join (12 tables)" `Quick
            test_greedy_join_many_tables;
          Alcotest.test_case "cost cut-off" `Quick test_cost_cap_aborts;
        ] );
      ( "join enumeration",
        List.map QCheck_alcotest.to_alcotest
          [ prop_dp_equals_brute_force; prop_dp_equals_every_round ] );
    ]
