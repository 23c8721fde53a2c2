(** Transformation tests.

    Every transformation must preserve semantics: the reference
    evaluator must return the same multiset for the original and the
    transformed query, and the transformed query must also optimize and
    execute to the same result. Shape assertions check that each
    transformation actually did what the paper describes. *)

open Sqlir
module A = Ast
module V = Value
open Tsupport

let db = lazy (hr_db ())
let cat () = (Lazy.force db).Storage.Db.cat

let parse sql = Sqlparse.Parser.parse_exn (cat ()) sql

(** Transformed and original queries agree under the reference
    evaluator AND under optimize+execute. *)
let check_equiv ?(msg = "equivalence") (q : A.query) (q' : A.query) =
  let db = Lazy.force db in
  let r = Refeval.eval db q in
  let r' = Refeval.eval db q' in
  if not (Refeval.rows_equal r r') then
    Alcotest.failf "%s (refeval):@.original: %s@.transformed: %s@.got %d vs %d rows"
      msg (Pp.query_to_string q) (Pp.query_to_string q')
      (List.length r.Refeval.rows) (List.length r'.Refeval.rows);
  ignore (check_against_ref ~msg:(msg ^ " (exec)") db q')

let blocks_of q =
  let n = ref 0 in
  ignore (Transform.Tx.map_blocks_bottom_up (fun b -> incr n; b) q);
  !n

(* ------------------------------------------------------------------ *)
(* Heuristic: subquery merge                                            *)
(* ------------------------------------------------------------------ *)

let test_merge_exists_semijoin () =
  let q =
    parse
      "SELECT d.dept_name FROM departments d WHERE EXISTS (SELECT e.emp_id \
       FROM employees e WHERE e.dept_id = d.dept_id AND e.salary > 7000)"
  in
  let q' = Transform.Unnest_merge.apply (cat ()) q in
  (match q' with
  | A.Block b ->
      Alcotest.(check int) "two FROM entries" 2 (List.length b.A.from);
      Alcotest.(check bool) "semijoin entry" true
        (List.exists (fun fe -> fe.A.fe_kind = A.J_semi) b.A.from)
  | _ -> Alcotest.fail "expected block");
  check_equiv ~msg:"EXISTS merge" q q'

let test_merge_not_in_null_aware () =
  let q =
    parse
      "SELECT d.dept_name FROM departments d WHERE d.dept_id NOT IN (SELECT \
       e.dept_id FROM employees e WHERE e.salary > 7900)"
  in
  let q' = Transform.Unnest_merge.apply (cat ()) q in
  (match q' with
  | A.Block b ->
      Alcotest.(check bool) "null-aware antijoin (dept_id nullable)" true
        (List.exists (fun fe -> fe.A.fe_kind = A.J_anti_na) b.A.from)
  | _ -> Alcotest.fail "expected block");
  check_equiv ~msg:"NOT IN merge" q q'

let test_merge_not_in_non_null_plain_anti () =
  (* emp_id is non-nullable on both sides: plain antijoin suffices *)
  let q =
    parse
      "SELECT e.name FROM employees e WHERE e.emp_id NOT IN (SELECT j.emp_id \
       FROM job_history j WHERE j.start_date > DATE 11000)"
  in
  let q' = Transform.Unnest_merge.apply (cat ()) q in
  (match q' with
  | A.Block b ->
      Alcotest.(check bool) "plain antijoin" true
        (List.exists (fun fe -> fe.A.fe_kind = A.J_anti) b.A.from)
  | _ -> Alcotest.fail "expected block");
  check_equiv ~msg:"NOT IN non-null merge" q q'

let test_merge_any_all () =
  let q_any =
    parse
      "SELECT d.dept_name FROM departments d WHERE d.dept_id >= ANY (SELECT \
       e.job_id + 9 FROM employees e WHERE e.salary > 5000)"
  in
  check_equiv ~msg:"ANY merge" q_any
    (Transform.Unnest_merge.apply (cat ()) q_any);
  let q_all =
    parse
      "SELECT d.dept_name FROM departments d WHERE d.dept_id < ALL (SELECT \
       e.job_id * 10 FROM employees e)"
  in
  check_equiv ~msg:"ALL merge" q_all
    (Transform.Unnest_merge.apply (cat ()) q_all)

let test_merge_skips_or () =
  (* subqueries under OR must not be touched *)
  let q =
    parse
      "SELECT d.dept_name FROM departments d WHERE d.dept_id = 10 OR EXISTS \
       (SELECT e.emp_id FROM employees e WHERE e.dept_id = d.dept_id)"
  in
  Alcotest.(check int) "no merge" 0 (Transform.Unnest_merge.count (cat ()) q)

(* ------------------------------------------------------------------ *)
(* Cost-based: unnesting with inline views                              *)
(* ------------------------------------------------------------------ *)

let q1_sql =
  "SELECT e1.name, j.job_id FROM employees e1, job_history j WHERE e1.emp_id \
   = j.emp_id AND j.start_date > DATE 10400 AND e1.salary > (SELECT \
   AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e1.dept_id) AND \
   e1.dept_id IN (SELECT d.dept_id FROM departments d, locations l WHERE \
   d.loc_id = l.loc_id AND l.country_id = 'US')"

let test_unnest_view_objects () =
  let q = parse q1_sql in
  let objs = Transform.Unnest_view.objects (cat ()) q in
  Alcotest.(check int) "Q1 has two unnestable subqueries" 2 (List.length objs)

let test_unnest_view_states () =
  (* all four states of Q1 must be semantically equal (Table 1's state
     space) *)
  let q = parse q1_sql in
  List.iter
    (fun mask ->
      let q' = Transform.Unnest_view.apply_mask (cat ()) q mask in
      check_equiv
        ~msg:
          (Printf.sprintf "Q1 state (%s)"
             (String.concat ","
                (List.map (fun b -> if b then "1" else "0") mask)))
        q q')
    [ [ false; false ]; [ true; false ]; [ false; true ]; [ true; true ] ]

let test_unnest_agg_generates_gb_view () =
  let q = parse q1_sql in
  let q' = Transform.Unnest_view.apply_mask (cat ()) q [ true; false ] in
  match q' with
  | A.Block b ->
      let views =
        List.filter
          (fun fe ->
            match fe.A.fe_source with A.S_view _ -> true | _ -> false)
          b.A.from
      in
      Alcotest.(check int) "one inline view" 1 (List.length views);
      (match (List.hd views).A.fe_source with
      | A.S_view (A.Block vb) ->
          Alcotest.(check bool) "view groups by correlation column" true
            (vb.A.group_by <> [])
      | _ -> Alcotest.fail "expected block view")
  | _ -> Alcotest.fail "expected block"

let test_unnest_multitable_exists () =
  let q =
    parse
      "SELECT e.name FROM employees e WHERE EXISTS (SELECT 1 one FROM \
       departments d, locations l WHERE d.loc_id = l.loc_id AND l.country_id \
       = 'US' AND d.dept_id = e.dept_id)"
  in
  Alcotest.(check int) "one object" 1
    (List.length (Transform.Unnest_view.objects (cat ()) q));
  let q' = Transform.Unnest_view.apply_all (cat ()) q in
  (match q' with
  | A.Block b ->
      Alcotest.(check bool) "semi-joined view" true
        (List.exists
           (fun fe ->
             fe.A.fe_kind = A.J_semi
             && match fe.A.fe_source with A.S_view _ -> true | _ -> false)
           b.A.from)
  | _ -> Alcotest.fail "expected block");
  check_equiv ~msg:"multi-table EXISTS" q q'

let test_unnest_multitable_not_in () =
  let q =
    parse
      "SELECT e.name FROM employees e WHERE e.dept_id NOT IN (SELECT \
       d.dept_id FROM departments d, locations l WHERE d.loc_id = l.loc_id \
       AND l.country_id = 'DE')"
  in
  let q' = Transform.Unnest_view.apply_all (cat ()) q in
  check_equiv ~msg:"multi-table NOT IN" q q'

let test_unnest_count_bug_excluded () =
  (* COUNT scalar subqueries must not be unnested (count bug) *)
  let q =
    parse
      "SELECT d.dept_name FROM departments d WHERE 3 > (SELECT COUNT(*) FROM \
       employees e WHERE e.dept_id = d.dept_id AND e.salary > 7500)"
  in
  Alcotest.(check int) "no objects" 0
    (List.length (Transform.Unnest_view.objects (cat ()) q))

(* ------------------------------------------------------------------ *)
(* Cost-based: group-by / distinct view merging                         *)
(* ------------------------------------------------------------------ *)

let test_gb_view_merge_q10_q11 () =
  (* Q10 shape: unnest Q1's aggregate subquery, then merge the view *)
  let q10 = Transform.Unnest_view.apply_mask (cat ()) (parse q1_sql) [ true; false ] in
  let objs = Transform.Gb_view_merge.objects (cat ()) q10 in
  Alcotest.(check int) "one mergeable view" 1 (List.length objs);
  let q11 = Transform.Gb_view_merge.apply_all (cat ()) q10 in
  (match q11 with
  | A.Block b ->
      Alcotest.(check bool) "merged block has group by" true (b.A.group_by <> []);
      Alcotest.(check bool) "merged block has having" true (b.A.having <> []);
      Alcotest.(check bool) "no view left" true
        (List.for_all
           (fun fe ->
             match fe.A.fe_source with A.S_table _ -> true | _ -> false)
           b.A.from)
  | _ -> Alcotest.fail "expected block");
  check_equiv ~msg:"Q10 -> Q11" q10 q11

let test_distinct_view_merge_q18 () =
  let q12 =
    parse
      "SELECT e1.name, v.dept_id FROM employees e1, (SELECT DISTINCT \
       d.dept_id FROM departments d, locations l WHERE d.loc_id = l.loc_id \
       AND l.country_id IN ('UK','US')) v WHERE e1.dept_id = v.dept_id AND \
       e1.salary > 4000"
  in
  let objs = Transform.Gb_view_merge.objects (cat ()) q12 in
  Alcotest.(check int) "distinct view object" 1 (List.length objs);
  let q18 = Transform.Gb_view_merge.apply_all (cat ()) q12 in
  check_equiv ~msg:"Q12 -> Q18 (distinct merge)" q12 q18

(* ------------------------------------------------------------------ *)
(* Cost-based: join predicate pushdown                                  *)
(* ------------------------------------------------------------------ *)

let test_jppd_distinct_to_semi_q13 () =
  let q12 =
    parse
      "SELECT e1.name FROM employees e1, (SELECT DISTINCT d.dept_id FROM \
       departments d, locations l WHERE d.loc_id = l.loc_id AND l.country_id \
       IN ('UK','US')) v WHERE e1.dept_id = v.dept_id AND e1.salary > 4000"
  in
  Alcotest.(check int) "jppd object" 1
    (List.length (Transform.Jppd.objects (cat ()) q12));
  let q13 = Transform.Jppd.apply_all (cat ()) q12 in
  (match q13 with
  | A.Block b ->
      let v =
        List.find
          (fun fe ->
            match fe.A.fe_source with A.S_view _ -> true | _ -> false)
          b.A.from
      in
      Alcotest.(check bool) "semijoin conversion" true (v.A.fe_kind = A.J_semi);
      (match v.A.fe_source with
      | A.S_view (A.Block vb) ->
          Alcotest.(check bool) "distinct removed" false vb.A.distinct;
          Alcotest.(check bool) "view now correlated" true
            (Walk.is_correlated (A.Block vb))
      | _ -> Alcotest.fail "expected view")
  | _ -> Alcotest.fail "expected block");
  check_equiv ~msg:"Q12 -> Q13 (jppd)" q12 q13

let test_jppd_groupby_removal () =
  let q =
    parse
      "SELECT d.dept_name, v.avg_sal FROM departments d, (SELECT e.dept_id, \
       AVG(e.salary) avg_sal FROM employees e GROUP BY e.dept_id) v WHERE \
       d.dept_id = v.dept_id AND d.loc_id = 100"
  in
  let q' = Transform.Jppd.apply_all (cat ()) q in
  (match q' with
  | A.Block b -> (
      let v =
        List.find
          (fun fe ->
            match fe.A.fe_source with A.S_view _ -> true | _ -> false)
          b.A.from
      in
      match v.A.fe_source with
      | A.S_view (A.Block vb) ->
          Alcotest.(check bool) "group by removed" true (vb.A.group_by = []);
          Alcotest.(check bool) "correlation pushed" true
            (Walk.is_correlated (A.Block vb))
      | _ -> Alcotest.fail "expected view")
  | _ -> Alcotest.fail "expected block");
  check_equiv ~msg:"jppd group-by removal" q q'

let test_jppd_union_all_view () =
  let q =
    parse
      "SELECT d.dept_name, v.emp_id FROM departments d, (SELECT e.emp_id, \
       e.dept_id FROM employees e WHERE e.salary > 7000 UNION ALL SELECT \
       j.emp_id, j.dept_id FROM job_history j WHERE j.start_date > DATE \
       11000) v WHERE d.dept_id = v.dept_id AND d.loc_id = 101"
  in
  Alcotest.(check int) "union-all view is a jppd object" 1
    (List.length (Transform.Jppd.objects (cat ()) q));
  check_equiv ~msg:"jppd into union all" q
    (Transform.Jppd.apply_all (cat ()) q)

(* ------------------------------------------------------------------ *)
(* Cost-based: group-by placement                                       *)
(* ------------------------------------------------------------------ *)

let test_gbp_eager_aggregation () =
  let q =
    parse
      "SELECT d.dept_name, SUM(e.salary) total, COUNT(*) cnt FROM employees \
       e, departments d WHERE e.dept_id = d.dept_id GROUP BY d.dept_name"
  in
  let objs = Transform.Gb_placement.objects (cat ()) q in
  Alcotest.(check bool) "at least one gbp target" true (List.length objs >= 1);
  let q' = Transform.Gb_placement.apply_all (cat ()) q in
  (match q' with
  | A.Block b ->
      Alcotest.(check bool) "contains pre-aggregating view" true
        (List.exists
           (fun fe ->
             match fe.A.fe_source with
             | A.S_view (A.Block vb) -> vb.A.group_by <> []
             | _ -> false)
           b.A.from)
  | _ -> Alcotest.fail "expected block");
  check_equiv ~msg:"eager aggregation" q q'

let test_gbp_avg_decomposition () =
  let q =
    parse
      "SELECT d.loc_id, AVG(e.salary) a, MIN(e.salary) mn, MAX(e.salary) mx, \
       COUNT(e.mgr_id) c FROM employees e, departments d WHERE e.dept_id = \
       d.dept_id GROUP BY d.loc_id"
  in
  check_equiv ~msg:"AVG/MIN/MAX/COUNT decomposition" q
    (Transform.Gb_placement.apply_all (cat ()) q)

let test_gbp_skips_distinct_agg () =
  let q =
    parse
      "SELECT d.dept_name, COUNT(DISTINCT e.job_id) c FROM employees e, \
       departments d WHERE e.dept_id = d.dept_id GROUP BY d.dept_name"
  in
  Alcotest.(check int) "distinct agg not decomposable" 0
    (List.length (Transform.Gb_placement.objects (cat ()) q))

(* ------------------------------------------------------------------ *)
(* Cost-based: join factorization                                       *)
(* ------------------------------------------------------------------ *)

let test_join_factorization_q15 () =
  let q14 =
    parse
      "SELECT e.name, d.dept_name FROM employees e, departments d WHERE \
       e.dept_id = d.dept_id AND e.salary > 7000 UNION ALL SELECT e.name, \
       d.dept_name FROM employees e, departments d WHERE e.dept_id = \
       d.dept_id AND e.salary < 3400"
  in
  let objs = Transform.Join_factor.objects (cat ()) q14 in
  Alcotest.(check bool) "departments is factorable" true
    (List.mem "factor(departments)" objs);
  let idx =
    match List.mapi (fun i o -> (o, i)) objs |> List.assoc_opt "factor(departments)" with
    | Some i -> i
    | None -> Alcotest.fail "missing object"
  in
  let mask = List.mapi (fun i _ -> i = idx) objs in
  let q15 = Transform.Join_factor.apply_mask (cat ()) q14 mask in
  (match q15 with
  | A.Block b ->
      Alcotest.(check int) "table + union-all view" 2 (List.length b.A.from)
  | _ -> Alcotest.fail "expected factored block");
  check_equiv ~msg:"Q14 -> Q15" q14 q15

let test_join_factorization_correlated_variant () =
  (* different single-table predicates on the common table: the paper's
     "next release" variant factors it with the predicates left inside
     the (now correlated) UNION ALL view *)
  let q =
    parse
      "SELECT e.name FROM employees e, departments d WHERE e.dept_id = \
       d.dept_id AND d.loc_id = 100 UNION ALL SELECT e.name FROM employees \
       e, departments d WHERE e.dept_id = d.dept_id AND d.loc_id = 101"
  in
  let objs = Transform.Join_factor.objects (cat ()) q in
  Alcotest.(check bool) "departments factorable (correlated)" true
    (List.mem "factor(departments)" objs);
  let mask = List.map (fun o -> o = "factor(departments)") objs in
  let q' = Transform.Join_factor.apply_mask (cat ()) q mask in
  (match q' with
  | A.Block b -> (
      Alcotest.(check int) "table + view" 2 (List.length b.A.from);
      match
        List.find_map
          (fun fe ->
            match fe.A.fe_source with A.S_view v -> Some v | _ -> None)
          b.A.from
      with
      | Some v -> Alcotest.(check bool) "view correlated" true (Walk.is_correlated v)
      | None -> Alcotest.fail "no view")
  | _ -> Alcotest.fail "expected factored block");
  check_equiv ~msg:"correlated factorization" q q'

let test_join_factorization_opaque_preds () =
  (* a non-separable predicate (mixing both tables inside one side)
     blocks pullout but not the correlated variant *)
  let q =
    parse
      "SELECT e.name FROM employees e, departments d WHERE e.dept_id + \
       d.loc_id > 110 AND e.salary > 7000 UNION ALL SELECT e.name FROM \
       employees e, departments d WHERE e.dept_id + d.loc_id > 110 AND \
       e.salary < 3400"
  in
  let objs = Transform.Join_factor.objects (cat ()) q in
  Alcotest.(check bool) "factorable via correlated" true
    (List.mem "factor(departments)" objs);
  let mask = List.map (fun o -> o = "factor(departments)") objs in
  check_equiv ~msg:"opaque-pred factorization" q
    (Transform.Join_factor.apply_mask (cat ()) q mask)

(* ------------------------------------------------------------------ *)
(* Cost-based: predicate pullup                                         *)
(* ------------------------------------------------------------------ *)

let test_predicate_pullup () =
  let q =
    parse
      "SELECT v.name FROM (SELECT e.name, e.emp_id FROM employees e WHERE \
       expensive_check(e.emp_id, 1) ORDER BY e.salary DESC) v WHERE ROWNUM \
       <= 5"
  in
  let objs = Transform.Predicate_pullup.objects (cat ()) q in
  Alcotest.(check int) "one expensive predicate" 1 (List.length objs);
  let q' = Transform.Predicate_pullup.apply_all (cat ()) q in
  (match q' with
  | A.Block b ->
      Alcotest.(check bool) "predicate now in parent" true
        (List.exists Transform.Predicate_pullup.pred_expensive b.A.where)
  | _ -> Alcotest.fail "expected block");
  check_equiv ~msg:"predicate pullup" q q'

let test_pullup_needs_rownum () =
  let q =
    parse
      "SELECT v.name FROM (SELECT e.name FROM employees e WHERE \
       expensive_check(e.emp_id, 1) ORDER BY e.salary DESC) v"
  in
  Alcotest.(check int) "no rownum, no object" 0
    (List.length (Transform.Predicate_pullup.objects (cat ()) q))

(* ------------------------------------------------------------------ *)
(* Cost-based: set operators into joins                                 *)
(* ------------------------------------------------------------------ *)

let test_setop_to_join () =
  let minus =
    parse
      "SELECT e.dept_id FROM employees e MINUS SELECT d.dept_id FROM \
       departments d WHERE d.dept_id < 13"
  in
  Alcotest.(check int) "minus object" 1
    (List.length (Transform.Setop_to_join.objects (cat ()) minus));
  check_equiv ~msg:"MINUS -> antijoin" minus
    (Transform.Setop_to_join.apply_all (cat ()) minus);
  let inter =
    parse
      "SELECT e.dept_id FROM employees e INTERSECT SELECT d.dept_id FROM \
       departments d"
  in
  check_equiv ~msg:"INTERSECT -> semijoin" inter
    (Transform.Setop_to_join.apply_all (cat ()) inter)

let test_setop_null_matching () =
  (* employees.dept_id contains NULLs; MINUS/INTERSECT treat NULL = NULL *)
  let inter =
    parse
      "SELECT e.dept_id FROM employees e INTERSECT SELECT e2.dept_id FROM \
       employees e2 WHERE e2.salary > 7000"
  in
  check_equiv ~msg:"INTERSECT with NULLs" inter
    (Transform.Setop_to_join.apply_all (cat ()) inter);
  let minus =
    parse
      "SELECT e.dept_id FROM employees e MINUS SELECT e2.dept_id FROM \
       employees e2 WHERE e2.salary > 3500"
  in
  check_equiv ~msg:"MINUS with NULLs" minus
    (Transform.Setop_to_join.apply_all (cat ()) minus)

(* ------------------------------------------------------------------ *)
(* Cost-based: OR expansion                                             *)
(* ------------------------------------------------------------------ *)

let test_or_expansion () =
  let q =
    parse
      "SELECT e.name FROM employees e, departments d WHERE e.dept_id = \
       d.dept_id AND (e.salary > 7500 OR d.loc_id = 102)"
  in
  Alcotest.(check int) "one disjunction" 1
    (List.length (Transform.Or_expansion.objects (cat ()) q));
  let q' = Transform.Or_expansion.apply_all (cat ()) q in
  (match q' with
  | A.Setop (A.Union_all, _, _) -> ()
  | _ -> Alcotest.fail "expected union all");
  check_equiv ~msg:"OR expansion" q q'

let test_or_expansion_unknown_disjunct () =
  (* mgr_id IS NULL for some rows: the first disjunct evaluates to
     UNKNOWN there, and LNNVL must keep such rows in the second branch *)
  let q =
    parse
      "SELECT e.name FROM employees e WHERE e.mgr_id > 1003 OR e.salary > \
       7000"
  in
  check_equiv ~msg:"OR expansion with UNKNOWN" q
    (Transform.Or_expansion.apply_all (cat ()) q)

let test_or_expansion_preserves_duplicates () =
  (* overlapping disjuncts: rows satisfying both must appear once *)
  let q =
    parse
      "SELECT e.name FROM employees e WHERE e.salary > 4000 OR e.job_id = 3"
  in
  check_equiv ~msg:"OR expansion duplicates" q
    (Transform.Or_expansion.apply_all (cat ()) q)

let test_or_expansion_in_outer_join_condition () =
  (* the disjunction sits in a subquery of a LEFT JOIN ON condition:
     mask application must reach every block discovery reaches *)
  let q =
    parse
      "SELECT d.dept_name FROM departments d LEFT JOIN locations l ON \
       l.loc_id = d.loc_id AND EXISTS (SELECT e.emp_id FROM employees e \
       WHERE e.dept_id = d.dept_id AND (e.salary > 7500 OR e.mgr_id = 1001))"
  in
  let objs = Transform.Or_expansion.objects (cat ()) q in
  Alcotest.(check (list string)) "one object" [ "qb1:or-expand" ] objs;
  let q' = Transform.Or_expansion.apply_mask (cat ()) q [ true ] in
  if q' == q then Alcotest.fail "bit 0 left the query unchanged";
  (* only the reference half of [check_equiv]: the planner does not
     lower subquery predicates in an outer join's ON condition, so
     neither tree can be optimized and executed *)
  let db = Lazy.force db in
  if not (Refeval.rows_equal (Refeval.eval db q) (Refeval.eval db q')) then
    Alcotest.failf "OR expansion under ON:@.%s" (Pp.query_to_string q')

(* ------------------------------------------------------------------ *)
(* Heuristic: join elimination                                          *)
(* ------------------------------------------------------------------ *)

let test_join_elim_fk () =
  let q =
    parse
      "SELECT e.name, e.salary FROM employees e, departments d WHERE \
       e.dept_id = d.dept_id"
  in
  let q' = Transform.Join_elim.apply (cat ()) q in
  (match q' with
  | A.Block b ->
      Alcotest.(check int) "departments eliminated" 1 (List.length b.A.from);
      (* dept_id is nullable: IS NOT NULL must have been added *)
      Alcotest.(check bool) "not-null guard added" true
        (List.exists
           (fun p -> match p with A.Not (A.Is_null _) -> true | _ -> false)
           b.A.where)
  | _ -> Alcotest.fail "expected block");
  check_equiv ~msg:"Q4 -> Q6" q q'

let test_join_elim_outer_unique () =
  let q =
    parse
      "SELECT e.name, e.salary FROM employees e LEFT OUTER JOIN departments \
       d ON e.dept_id = d.dept_id"
  in
  let q' = Transform.Join_elim.apply (cat ()) q in
  (match q' with
  | A.Block b -> Alcotest.(check int) "departments eliminated" 1 (List.length b.A.from)
  | _ -> Alcotest.fail "expected block");
  check_equiv ~msg:"Q5 -> Q6" q q'

let test_join_elim_blocked_by_reference () =
  (* d.dept_name is selected: join cannot be eliminated *)
  let q =
    parse
      "SELECT e.name, d.dept_name FROM employees e, departments d WHERE \
       e.dept_id = d.dept_id"
  in
  let q' = Transform.Join_elim.apply (cat ()) q in
  match q' with
  | A.Block b -> Alcotest.(check int) "no elimination" 2 (List.length b.A.from)
  | _ -> Alcotest.fail "expected block"

(* ------------------------------------------------------------------ *)
(* Heuristic: predicate move-around / group pruning                     *)
(* ------------------------------------------------------------------ *)

let test_predicate_pushdown_into_view () =
  let q =
    parse
      "SELECT v.dept_id, v.avg_sal FROM (SELECT e.dept_id, AVG(e.salary) \
       avg_sal FROM employees e GROUP BY e.dept_id) v WHERE v.dept_id = 12 \
       AND v.avg_sal > 4000"
  in
  let q' = Transform.Predicate_move.apply (cat ()) q in
  (match q' with
  | A.Block b -> (
      match (List.hd b.A.from).A.fe_source with
      | A.S_view (A.Block vb) ->
          Alcotest.(check bool) "group-key pred pushed to WHERE" true
            (vb.A.where <> []);
          Alcotest.(check bool) "agg pred pushed to HAVING" true
            (vb.A.having <> [])
      | _ -> Alcotest.fail "expected view")
  | _ -> Alcotest.fail "expected block");
  check_equiv ~msg:"predicate pushdown" q q'

let test_predicate_push_through_window_pby () =
  (* Q7 -> Q8: predicate on the PARTITION BY column pushes below the
     window function *)
  let q =
    parse
      "SELECT v.emp_id, v.rc FROM (SELECT j.emp_id, j.dept_id, COUNT(*) OVER \
       (PARTITION BY j.dept_id ORDER BY j.start_date) rc FROM job_history j) \
       v WHERE v.dept_id = 12"
  in
  let q' = Transform.Predicate_move.apply (cat ()) q in
  (match q' with
  | A.Block b -> (
      match (List.hd b.A.from).A.fe_source with
      | A.S_view (A.Block vb) ->
          Alcotest.(check bool) "pushed below window" true (vb.A.where <> [])
      | _ -> Alcotest.fail "expected view")
  | _ -> Alcotest.fail "expected block");
  check_equiv ~msg:"Q7 -> Q8" q q'

let test_predicate_not_pushed_through_window_oby () =
  (* predicate on a non-PBY column must NOT be pushed below the window *)
  let q =
    parse
      "SELECT v.emp_id, v.rc FROM (SELECT j.emp_id, j.dept_id, COUNT(*) OVER \
       (PARTITION BY j.dept_id ORDER BY j.start_date) rc FROM job_history j) \
       v WHERE v.emp_id = 1003"
  in
  let q' = Transform.Predicate_move.apply (cat ()) q in
  (match q' with
  | A.Block b -> (
      match (List.hd b.A.from).A.fe_source with
      | A.S_view (A.Block vb) ->
          Alcotest.(check bool) "not pushed" true (vb.A.where = [])
      | _ -> Alcotest.fail "expected view")
  | _ -> Alcotest.fail "expected block");
  check_equiv ~msg:"window oby barrier" q q'

let test_transitive_predicates () =
  let q =
    parse
      "SELECT e.name FROM employees e, departments d WHERE e.dept_id = \
       d.dept_id AND d.dept_id = 12"
  in
  let q' = Transform.Predicate_move.apply (cat ()) q in
  (match q' with
  | A.Block b ->
      Alcotest.(check bool) "derived e.dept_id = 12" true
        (List.exists
           (fun p ->
             match p with
             | A.Cmp (A.Eq, A.Col { A.c_alias = "e"; c_col = "dept_id" }, A.Const _) ->
                 true
             | _ -> false)
           b.A.where)
  | _ -> Alcotest.fail "expected block");
  check_equiv ~msg:"transitive" q q'

let test_group_prune () =
  let q =
    parse
      "SELECT v.dept_id, v.cnt FROM (SELECT e.dept_id, e.job_id, COUNT(*) \
       cnt, MAX(e.salary) mx FROM employees e WHERE e.job_id = 3 GROUP BY \
       e.dept_id, e.job_id) v WHERE v.dept_id > 10"
  in
  let q' = Transform.Group_prune.apply (cat ()) q in
  (match q' with
  | A.Block b -> (
      match (List.hd b.A.from).A.fe_source with
      | A.S_view (A.Block vb) ->
          Alcotest.(check int) "constant group key pruned" 1
            (List.length vb.A.group_by);
          Alcotest.(check bool) "unreferenced mx pruned" true
            (not
               (List.exists
                  (fun si -> String.equal si.A.si_name "mx")
                  vb.A.select))
      | _ -> Alcotest.fail "expected view")
  | _ -> Alcotest.fail "expected block");
  check_equiv ~msg:"group pruning" q q'

(* ------------------------------------------------------------------ *)
(* Heuristic: SPJ view merging                                          *)
(* ------------------------------------------------------------------ *)

let test_spj_view_merge () =
  let q =
    parse
      "SELECT v.name, d.dept_name FROM (SELECT e.name, e.dept_id FROM \
       employees e WHERE e.salary > 5000) v, departments d WHERE v.dept_id = \
       d.dept_id"
  in
  let q' = Transform.View_merge_spj.apply (cat ()) q in
  Alcotest.(check int) "one block after merge" 1 (blocks_of q');
  check_equiv ~msg:"SPJ merge" q q'

let test_spj_merge_single_table_semi () =
  (* heuristic subquery merge produces a single-table semi view shape *)
  let q =
    parse
      "SELECT e.name FROM employees e SEMI JOIN (SELECT d.dept_id FROM \
       departments d WHERE d.loc_id = 100) v ON e.dept_id = v.dept_id"
  in
  let q' = Transform.View_merge_spj.apply (cat ()) q in
  (match q' with
  | A.Block b ->
      Alcotest.(check bool) "view replaced by table" true
        (List.for_all
           (fun fe ->
             match fe.A.fe_source with A.S_table _ -> true | _ -> false)
           b.A.from)
  | _ -> Alcotest.fail "expected block");
  check_equiv ~msg:"single-table semi merge" q q'

(* The fixpoint of predicate move-around as it was decided before: by
   comparing the printed forms of a round's input and output. *)
let predicate_move_printed_reference (q : A.query) : A.query =
  let module PM = Transform.Predicate_move in
  let round q =
    Transform.Tx.map_blocks_bottom_up
      (fun b ->
        let extra = PM.transitive_preds b in
        let b =
          if extra = [] then b else { b with A.where = b.A.where @ extra }
        in
        PM.push_block b)
      q
  in
  let rec fix n q =
    if n = 0 then q
    else
      let q' = round q in
      if Pp.fingerprint q' = Pp.fingerprint q then q else fix (n - 1) q'
  in
  fix 4 q

let all_classes =
  Workload.Query_gen.
    [
      C_spj; C_exists; C_not_exists; C_in_multi; C_not_in; C_agg_subq;
      C_gb_view; C_distinct_view; C_union_factor; C_gbp; C_or; C_setop;
      C_pullup;
    ]

(* The generator filters only non-join columns of base tables, which
   gives predicate move-around nothing to do. Add, in every top-level
   block, a constant filter on each equi-join column (transitive
   generation) and on the first output of each view (pushdown). *)
let rec with_move_candidates (q : A.query) : A.query =
  match q with
  | A.Setop (op, l, r) ->
      A.Setop (op, with_move_candidates l, with_move_candidates r)
  | A.Block b ->
      let k = A.Const (V.Int 7) in
      let on_join_cols =
        List.filter_map
          (function
            | A.Cmp (A.Eq, (A.Col _ as a), A.Col _) -> Some (A.Cmp (A.Gt, a, k))
            | _ -> None)
          b.A.where
      in
      let on_views =
        List.filter_map
          (fun fe ->
            match fe.A.fe_source with
            | A.S_view v when fe.A.fe_kind = A.J_inner -> (
                match A.query_select_names v with
                | name :: _ -> Some (A.Cmp (A.Gt, c fe.A.fe_alias name, k))
                | [] -> None)
            | _ -> None)
          b.A.from
      in
      A.Block { b with A.where = b.A.where @ on_join_cols @ on_views }

(* every generated class at 12 seeds, as generated, after the heuristic
   steps that run before predicate move-around in [Cbqt.Driver], and both
   with added move candidates *)
let test_predicate_move_fixpoint_reference () =
  let module QG = Workload.Query_gen in
  let db, schema =
    Workload.Schema_gen.build ~families:2 ~row_scale:0.05 ~seed:2006 ()
  in
  let cat = db.Storage.Db.cat in
  let moved = ref 0 in
  List.iter
    (fun cls ->
      for seed = 1 to 12 do
        let q = QG.generate (QG.create ~seed schema) cls in
        let pre =
          Transform.Join_elim.apply cat (Transform.View_merge_spj.apply cat q)
        in
        List.iter
          (fun q ->
            let got = Transform.Predicate_move.apply cat q in
            let want = predicate_move_printed_reference q in
            if got != q then incr moved;
            Alcotest.(check string)
              (Printf.sprintf "%s seed %d" (QG.class_name cls) seed)
              (Pp.query_to_string want) (Pp.query_to_string got))
          [ q; pre; with_move_candidates q; with_move_candidates pre ]
      done)
    all_classes;
  Alcotest.(check bool) "some queries had predicates moved" true (!moved > 0)

(* The generator's [pred-move] class is the workload-side arena of
   predicate move-around: most of its queries change under
   [Predicate_move.apply], and Refeval returns the same rows before and
   after. *)
let test_pred_move_class () =
  let module QG = Workload.Query_gen in
  let db, schema =
    Workload.Schema_gen.build ~families:2 ~row_scale:0.05 ~seed:2006 ()
  in
  let cat = db.Storage.Db.cat in
  let n = 24 in
  let moved = ref 0 and nonempty = ref 0 in
  for seed = 1 to n do
    let q = QG.generate (QG.create ~seed schema) QG.C_pred_move in
    let q' = Transform.Predicate_move.apply cat q in
    if q' != q then incr moved;
    let r = Refeval.eval db q in
    if r.Refeval.rows <> [] then incr nonempty;
    Alcotest.(check bool) (Printf.sprintf "seed %d: same rows" seed) true
      (Refeval.rows_equal r (Refeval.eval db q'))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "most queries change (%d of %d)" !moved n)
    true
    (2 * !moved > n);
  Alcotest.(check bool) "some query returns rows" true (!nonempty > 0)

let () =
  Alcotest.run "transform"
    [
      ( "unnest-merge",
        [
          Alcotest.test_case "EXISTS -> semijoin" `Quick test_merge_exists_semijoin;
          Alcotest.test_case "NOT IN null-aware" `Quick test_merge_not_in_null_aware;
          Alcotest.test_case "NOT IN plain anti" `Quick
            test_merge_not_in_non_null_plain_anti;
          Alcotest.test_case "ANY/ALL" `Quick test_merge_any_all;
          Alcotest.test_case "skips OR" `Quick test_merge_skips_or;
        ] );
      ( "unnest-view",
        [
          Alcotest.test_case "Q1 objects" `Quick test_unnest_view_objects;
          Alcotest.test_case "Q1 all states" `Quick test_unnest_view_states;
          Alcotest.test_case "agg -> gb view" `Quick test_unnest_agg_generates_gb_view;
          Alcotest.test_case "multi-table EXISTS" `Quick test_unnest_multitable_exists;
          Alcotest.test_case "multi-table NOT IN" `Quick test_unnest_multitable_not_in;
          Alcotest.test_case "count bug excluded" `Quick test_unnest_count_bug_excluded;
        ] );
      ( "gb-view-merge",
        [
          Alcotest.test_case "Q10 -> Q11" `Quick test_gb_view_merge_q10_q11;
          Alcotest.test_case "Q12 -> Q18 distinct" `Quick test_distinct_view_merge_q18;
        ] );
      ( "jppd",
        [
          Alcotest.test_case "Q12 -> Q13" `Quick test_jppd_distinct_to_semi_q13;
          Alcotest.test_case "group-by removal" `Quick test_jppd_groupby_removal;
          Alcotest.test_case "union-all view" `Quick test_jppd_union_all_view;
        ] );
      ( "gb-placement",
        [
          Alcotest.test_case "eager aggregation" `Quick test_gbp_eager_aggregation;
          Alcotest.test_case "AVG decomposition" `Quick test_gbp_avg_decomposition;
          Alcotest.test_case "distinct agg skipped" `Quick test_gbp_skips_distinct_agg;
        ] );
      ( "join-factorization",
        [
          Alcotest.test_case "Q14 -> Q15" `Quick test_join_factorization_q15;
          Alcotest.test_case "correlated variant" `Quick
            test_join_factorization_correlated_variant;
          Alcotest.test_case "opaque predicates" `Quick
            test_join_factorization_opaque_preds;
        ] );
      ( "predicate-pullup",
        [
          Alcotest.test_case "pullup under rownum" `Quick test_predicate_pullup;
          Alcotest.test_case "needs rownum" `Quick test_pullup_needs_rownum;
        ] );
      ( "setop-to-join",
        [
          Alcotest.test_case "minus/intersect" `Quick test_setop_to_join;
          Alcotest.test_case "null matching" `Quick test_setop_null_matching;
        ] );
      ( "or-expansion",
        [
          Alcotest.test_case "basic" `Quick test_or_expansion;
          Alcotest.test_case "unknown disjunct" `Quick test_or_expansion_unknown_disjunct;
          Alcotest.test_case "duplicates" `Quick test_or_expansion_preserves_duplicates;
          Alcotest.test_case "ON-condition subquery" `Quick
            test_or_expansion_in_outer_join_condition;
        ] );
      ( "join-elimination",
        [
          Alcotest.test_case "FK join" `Quick test_join_elim_fk;
          Alcotest.test_case "outer unique" `Quick test_join_elim_outer_unique;
          Alcotest.test_case "blocked by reference" `Quick
            test_join_elim_blocked_by_reference;
        ] );
      ( "predicate-move / pruning",
        [
          Alcotest.test_case "pushdown into view" `Quick test_predicate_pushdown_into_view;
          Alcotest.test_case "through window PBY" `Quick
            test_predicate_push_through_window_pby;
          Alcotest.test_case "window OBY barrier" `Quick
            test_predicate_not_pushed_through_window_oby;
          Alcotest.test_case "transitive" `Quick test_transitive_predicates;
          Alcotest.test_case "group pruning" `Quick test_group_prune;
          Alcotest.test_case "fixpoint reference" `Quick
            test_predicate_move_fixpoint_reference;
          Alcotest.test_case "generated move-around class" `Quick
            test_pred_move_class;
        ] );
      ( "spj-view-merge",
        [
          Alcotest.test_case "inner merge" `Quick test_spj_view_merge;
          Alcotest.test_case "single-table semi" `Quick test_spj_merge_single_table_semi;
        ] );
    ]
