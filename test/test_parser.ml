(** Parser tests: the paper's running queries (adapted to the mini HR
    schema) must parse, and parse → optimize → execute must agree with
    the reference evaluator. *)

open Sqlir
module A = Ast
open Tsupport

let db = lazy (hr_db ())

let parse sql =
  let db = Lazy.force db in
  Sqlparse.Parser.parse_exn db.Storage.Db.cat sql

let check_sql ?msg sql =
  let db = Lazy.force db in
  let q = parse sql in
  ignore (check_against_ref ?msg db q)

let test_simple () =
  check_sql "SELECT e.name, e.salary FROM employees e WHERE e.salary > 6000"

let test_unqualified_and_star () =
  let q1 = parse "SELECT name FROM employees" in
  let q2 = parse "SELECT e.name FROM employees e" in
  Alcotest.(check int) "same select arity"
    (List.length (A.query_select_names q1))
    (List.length (A.query_select_names q2));
  let qs = parse "SELECT * FROM departments" in
  Alcotest.(check (list string)) "star expansion"
    [ "dept_id"; "dept_name"; "loc_id" ]
    (A.query_select_names qs);
  let qs2 = parse "SELECT d.* FROM departments d, locations l" in
  Alcotest.(check int) "alias star" 3 (List.length (A.query_select_names qs2))

let test_join_syntax () =
  check_sql
    "SELECT e.name, d.dept_name FROM employees e JOIN departments d ON \
     e.dept_id = d.dept_id WHERE e.salary > 5000";
  check_sql
    "SELECT e.name, d.dept_name FROM employees e LEFT OUTER JOIN departments \
     d ON e.dept_id = d.dept_id"

let test_q1_paper () =
  (* the paper's Q1, adapted: employees above department-average salary
     in US departments, with job history after a date *)
  check_sql ~msg:"paper Q1"
    "SELECT e1.name, j.job_id FROM employees e1, job_history j WHERE \
     e1.emp_id = j.emp_id AND j.start_date > DATE 10400 AND e1.salary > \
     (SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e1.dept_id) \
     AND e1.dept_id IN (SELECT d.dept_id FROM departments d, locations l \
     WHERE d.loc_id = l.loc_id AND l.country_id = 'US')"

let test_q2_exists () =
  check_sql ~msg:"paper Q2"
    "SELECT d.dept_name FROM departments d WHERE EXISTS (SELECT e.emp_id \
     FROM employees e WHERE e.dept_id = d.dept_id AND e.salary > 7000)"

let test_q4_fk_join () =
  check_sql ~msg:"paper Q4"
    "SELECT e.name, e.salary FROM employees e, departments d WHERE e.dept_id \
     = d.dept_id"

let test_q12_distinct_view () =
  (* paper Q12 shape: distinct view over a join, joined to outer tables *)
  check_sql ~msg:"paper Q12"
    "SELECT e1.name, v.dept_id FROM employees e1, (SELECT DISTINCT d.dept_id \
     FROM departments d, locations l WHERE d.loc_id = l.loc_id AND \
     l.country_id IN ('UK', 'US')) v WHERE e1.dept_id = v.dept_id AND \
     e1.salary > 4000"

let test_q14_union_all_join () =
  (* paper Q14 shape: UNION ALL branches sharing join tables *)
  check_sql ~msg:"paper Q14"
    "SELECT e.name, d.dept_name, l.city FROM employees e, departments d, \
     locations l WHERE e.dept_id = d.dept_id AND d.loc_id = l.loc_id AND \
     e.salary > 6500 UNION ALL SELECT e.name, d.dept_name, l.city FROM \
     employees e, departments d, locations l WHERE e.dept_id = d.dept_id AND \
     d.loc_id = l.loc_id AND e.salary < 3400"

let test_rownum () =
  let db = Lazy.force db in
  let q =
    parse
      "SELECT e.name FROM employees e WHERE e.salary > 3000 AND ROWNUM <= 7 \
       ORDER BY e.salary"
  in
  (match q with
  | A.Block b -> Alcotest.(check (option int)) "limit" (Some 7) b.A.limit
  | _ -> Alcotest.fail "expected block");
  let opt = Planner.Optimizer.create db.Storage.Db.cat in
  let ann = Planner.Optimizer.optimize opt q in
  let _, rows, _ = Exec.Executor.execute db ann.Planner.Annotation.an_plan in
  Alcotest.(check int) "7 rows" 7 (List.length rows)

let test_not_in_any_all () =
  check_sql
    "SELECT d.dept_name FROM departments d WHERE d.dept_id NOT IN (SELECT \
     e.dept_id FROM employees e WHERE e.dept_id IS NOT NULL AND e.salary > \
     7900)";
  check_sql
    "SELECT d.dept_name FROM departments d WHERE d.dept_id < ALL (SELECT \
     e.job_id * 10 FROM employees e)";
  check_sql
    "SELECT d.dept_name FROM departments d WHERE d.dept_id >= ANY (SELECT \
     e.job_id + 9 FROM employees e)"

let test_group_by_having () =
  check_sql
    "SELECT e.dept_id, COUNT(*) cnt, AVG(e.salary) avg_sal FROM employees e \
     GROUP BY e.dept_id HAVING COUNT(*) > 4"

let test_window_function () =
  check_sql
    "SELECT j.emp_id, COUNT(*) OVER (PARTITION BY j.dept_id ORDER BY \
     j.start_date) rc FROM job_history j"

let test_setops () =
  check_sql
    "SELECT e.dept_id FROM employees e MINUS SELECT d.dept_id FROM \
     departments d WHERE d.dept_id < 13";
  check_sql
    "SELECT e.dept_id FROM employees e INTERSECT SELECT d.dept_id FROM \
     departments d";
  check_sql
    "SELECT e.dept_id FROM employees e UNION SELECT d.dept_id FROM \
     departments d"

let test_case_in_list_between () =
  check_sql
    "SELECT e.name, CASE WHEN e.salary > 6000 THEN 'high' ELSE 'low' END \
     band FROM employees e WHERE e.job_id IN (1, 3, 5) AND e.salary BETWEEN \
     3000 AND 7500"

let test_duplicate_alias_renamed () =
  (* the same alias e in outer and inner blocks must not collide *)
  let q =
    parse
      "SELECT e.name FROM employees e WHERE EXISTS (SELECT 1 one FROM \
       employees e WHERE e.salary > 7900)"
  in
  let aliases = Walk.all_aliases_query Walk.Sset.empty q in
  Alcotest.(check int) "two distinct aliases" 2 (Walk.Sset.cardinal aliases);
  (* NB: inner e shadows outer e, so the subquery is uncorrelated here —
     exactly like SQL scoping *)
  ignore (check_against_ref (Lazy.force db) q)

let test_multi_item_in () =
  check_sql
    "SELECT e.name FROM employees e WHERE (e.dept_id, e.job_id) IN (SELECT \
     j.dept_id, j.job_id FROM job_history j)"

let test_parse_errors () =
  let db = Lazy.force db in
  let bad sql =
    match Sqlparse.Parser.parse db.Storage.Db.cat sql with
    | Ok _ -> Alcotest.failf "expected parse error for %s" sql
    | Error _ -> ()
  in
  bad "SELECT FROM employees";
  bad "SELECT e.name FROM";
  bad "SELECT e.name FROM no_such_table e";
  bad "SELECT e.no_such_col FROM employees e";
  bad "SELECT e.name FROM employees e WHERE";
  bad "SELECT e.name FROM employees e WHERE e.salary >";
  bad "SELECT e.name FROM employees e ORDER";
  bad "SELECT e.name employees e";
  (* literals beyond the native int range are lexing errors, not
     exceptions out of parse *)
  bad "SELECT e.name FROM employees e WHERE e.salary > 99999999999999999999999";
  bad "SELECT e.name FROM employees e WHERE e.salary > :99999999999999999999999"

(* a statement with about one token per character outgrows the lexer's
   first token arrays: the values and the offsets must survive growth *)
let test_long_statement () =
  let cat = (Lazy.force db).Storage.Db.cat in
  let prefix = "SELECT e.name FROM employees e WHERE e.job_id IN (" in
  let list = String.concat "," (List.init 500 string_of_int) in
  let sql = prefix ^ list ^ ")" in
  (match Sqlparse.Parser.parse_exn cat sql with
  | A.Block { A.where = [ A.In_list (_, vs) ]; _ } ->
      Alcotest.(check bool) "all 500 values, in order" true
        (vs = List.init 500 (fun i -> Value.Int i))
  | _ -> Alcotest.fail "expected one IN-list conjunct");
  match Sqlparse.Parser.parse cat (sql ^ " extra") with
  | Error msg ->
      Alcotest.(check string) "offset past the grown arrays"
        (Printf.sprintf "trailing input: identifier \"extra\" (at offset %d)"
           (String.length sql + 1))
        msg
  | Ok _ -> Alcotest.fail "expected a parse error"

(* inner-join ON conjuncts are collected in per-parse state, so parses
   racing on several domains each build exactly the serial tree *)
let test_concurrent_join_parses () =
  let cat = (Lazy.force db).Storage.Db.cat in
  let sqls =
    [|
      "SELECT e.name FROM employees e JOIN departments d ON e.dept_id = \
       d.dept_id WHERE e.salary > 10";
      "SELECT d.dept_name FROM departments d INNER JOIN locations l ON \
       d.loc_id = l.loc_id AND l.city = 'x' JOIN employees e ON e.dept_id = \
       d.dept_id";
    |]
  in
  let serial = Array.map (Sqlparse.Parser.parse_exn cat) sqls in
  let worker k () =
    let differing = ref 0 in
    for i = 1 to 20_000 do
      let j = (i + k) mod Array.length sqls in
      if Sqlparse.Parser.parse_exn cat sqls.(j) <> serial.(j) then incr differing
    done;
    !differing
  in
  let domains = List.init 4 (fun k -> Domain.spawn (worker k)) in
  let differing = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  Alcotest.(check int) "trees that differ from the serial parse" 0 differing

let test_pretty_print_reparse () =
  (* print ∘ parse is stable: the printed tree re-parses to an
     equivalent query (same reference results) *)
  let db = Lazy.force db in
  let sqls =
    [
      "SELECT e.name, e.salary FROM employees e WHERE e.salary > 6000";
      "SELECT e.dept_id, COUNT(*) cnt FROM employees e GROUP BY e.dept_id";
      "SELECT d.dept_name FROM departments d WHERE EXISTS (SELECT 1 one FROM \
       employees e WHERE e.dept_id = d.dept_id)";
    ]
  in
  List.iter
    (fun sql ->
      let q = parse sql in
      let r1 = Refeval.eval db q in
      let printed = Pp.query_to_string q in
      let q2 = Sqlparse.Parser.parse_exn db.Storage.Db.cat printed in
      let r2 = Refeval.eval db q2 in
      Alcotest.(check bool)
        (Printf.sprintf "round trip: %s" sql)
        true
        (Refeval.rows_equal r1 r2))
    sqls

let () =
  Alcotest.run "parser"
    [
      ( "basics",
        [
          Alcotest.test_case "simple" `Quick test_simple;
          Alcotest.test_case "unqualified + star" `Quick test_unqualified_and_star;
          Alcotest.test_case "join syntax" `Quick test_join_syntax;
          Alcotest.test_case "rownum" `Quick test_rownum;
          Alcotest.test_case "case/in/between" `Quick test_case_in_list_between;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "long statement" `Quick test_long_statement;
          Alcotest.test_case "concurrent JOIN ON parses" `Quick
            test_concurrent_join_parses;
        ] );
      ( "paper queries",
        [
          Alcotest.test_case "Q1" `Quick test_q1_paper;
          Alcotest.test_case "Q2" `Quick test_q2_exists;
          Alcotest.test_case "Q4" `Quick test_q4_fk_join;
          Alcotest.test_case "Q12" `Quick test_q12_distinct_view;
          Alcotest.test_case "Q14" `Quick test_q14_union_all_join;
        ] );
      ( "subqueries and setops",
        [
          Alcotest.test_case "NOT IN / ANY / ALL" `Quick test_not_in_any_all;
          Alcotest.test_case "multi-item IN" `Quick test_multi_item_in;
          Alcotest.test_case "setops" `Quick test_setops;
          Alcotest.test_case "duplicate alias" `Quick test_duplicate_alias_renamed;
        ] );
      ( "features",
        [
          Alcotest.test_case "group by having" `Quick test_group_by_having;
          Alcotest.test_case "window" `Quick test_window_function;
          Alcotest.test_case "print-reparse" `Quick test_pretty_print_reparse;
        ] );
    ]
