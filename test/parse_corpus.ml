(* Golden parse corpus: one line per statement, compared by a dune
   [diff] rule against [parse_corpus.expected].

   Every query class of {!Workload.Query_gen} is generated at fixed
   seeds, rendered with {!Sqlir.Pp.query_to_string} and parsed back; a
   fixed set of hand-written statements over the HR schema covers the
   syntax the generator never prints (ANSI joins, CASE, windows,
   ROWNUM, binds, comments, odd spacing and case). Each line records
   the digest of the marshalled AST, so any change to the tree the
   parser builds — a renamed block, a reordered conjunct, a float's
   last bit — changes this output. Malformed statements record their
   exact error message, offset included.

   Accept an intended change with [dune promote]. *)

module QG = Workload.Query_gen
module SG = Workload.Schema_gen
module P = Sqlparse.Parser

let classes =
  [
    QG.C_spj; QG.C_exists; QG.C_not_exists; QG.C_in_multi; QG.C_not_in;
    QG.C_agg_subq; QG.C_gb_view; QG.C_distinct_view; QG.C_union_factor;
    QG.C_gbp; QG.C_or; QG.C_setop; QG.C_pullup;
  ]

let seeds = List.init 12 (fun i -> i + 1)

let outcome cat sql =
  match P.parse cat sql with
  | Ok q ->
      "ast="
      ^ Digest.to_hex (Digest.string (Marshal.to_string q [ Marshal.No_sharing ]))
  | Error msg -> "error=" ^ msg

let well_formed =
  [
    "SELECT e.name, e.salary FROM employees e WHERE e.salary > 6000";
    "SELECT name FROM employees";
    "SELECT * FROM departments";
    "SELECT d.* FROM departments d, locations l";
    "SELECT e.name, d.dept_name FROM employees e JOIN departments d ON \
     e.dept_id = d.dept_id WHERE e.salary > 5000";
    "SELECT e.name, d.dept_name FROM employees e INNER JOIN departments d ON \
     e.dept_id = d.dept_id AND d.loc_id > 1 JOIN locations l ON l.loc_id = \
     d.loc_id";
    "SELECT e.name, d.dept_name FROM employees e LEFT OUTER JOIN departments \
     d ON e.dept_id = d.dept_id";
    "SELECT e.name FROM employees e LEFT JOIN departments d ON e.dept_id = \
     d.dept_id CROSS JOIN locations l";
    "SELECT e.name FROM employees e SEMI JOIN departments d ON e.dept_id = \
     d.dept_id ANTI JOIN locations l ON l.loc_id = d.loc_id";
    "SELECT v.name FROM (SELECT e.name, e.dept_id FROM employees e JOIN \
     departments d ON e.dept_id = d.dept_id) v WHERE EXISTS (SELECT 1 FROM \
     employees e JOIN job_history j ON j.emp_id = e.emp_id WHERE e.dept_id = \
     v.dept_id)";
    "SELECT e.name FROM employees e WHERE e.salary > 3000 AND ROWNUM <= 7";
    "SELECT e.name FROM employees e WHERE ROWNUM < 4 ORDER BY e.salary DESC, \
     e.name ASC";
    "SELECT d.dept_name FROM departments d WHERE d.dept_id NOT IN (SELECT \
     e.dept_id FROM employees e WHERE e.dept_id IS NOT NULL)";
    "SELECT d.dept_name FROM departments d WHERE d.dept_id < ALL (SELECT \
     e.dept_id FROM employees e) OR d.dept_id >= ANY (SELECT e.dept_id FROM \
     employees e) OR d.dept_id = SOME (SELECT j.dept_id FROM job_history j)";
    "SELECT e.dept_id, COUNT(*) cnt, AVG(e.salary) avg_sal, SUM(DISTINCT \
     e.salary), MIN(e.salary) AS lo, MAX(e.salary) FROM employees e GROUP BY \
     e.dept_id HAVING COUNT(*) > 1";
    "SELECT j.emp_id, COUNT(*) OVER (PARTITION BY j.dept_id ORDER BY \
     j.start_date), SUM(j.job_id) OVER () FROM job_history j";
    "SELECT e.dept_id FROM employees e MINUS SELECT d.dept_id FROM \
     departments d INTERSECT SELECT l.loc_id FROM locations l";
    "(SELECT e.dept_id FROM employees e UNION SELECT d.dept_id FROM \
     departments d) UNION ALL SELECT j.dept_id FROM job_history j";
    "SELECT e.name, CASE WHEN e.salary > 6000 THEN 'high' WHEN e.salary > \
     3000 THEN 'mid' ELSE 'low' END band, CASE WHEN e.mgr_id IS NULL THEN 1 \
     END FROM employees e";
    "SELECT e.name FROM employees e WHERE (e.dept_id, e.job_id) IN (SELECT \
     j.dept_id, j.job_id FROM job_history j)";
    "SELECT e.name FROM employees e WHERE (e.dept_id) NOT IN (SELECT \
     j.dept_id FROM job_history j) AND (e.salary > 1 OR (e.salary < -2))";
    "SELECT e.name FROM employees e WHERE e.salary BETWEEN 1000 + 1 AND 9000 \
     * 2 AND e.job_id IN (1, 2, 3) AND e.name NOT IN ('a', 'it''s', NULL)";
    "SELECT j.emp_id FROM job_history j WHERE j.start_date >= DATE 120 AND \
     j.start_date <= DATE '240' AND j.start_date IN (DATE 7, DATE 9)";
    "SELECT e.emp_id, e.salary * 1.5 / 2 - -e.job_id, 0.25, 3.0e FROM \
     employees e WHERE e.salary <> 1 AND e.salary != 2 AND e.salary >= :1 \
     AND e.job_id < :2";
    "SELECT e.name, upper(e.name) FROM employees e WHERE like_fn(e.name, \
     'A%') AND TRUE AND NOT FALSE";
    "select E.Name, e.SALARY sal from EMPLOYEES e where e.Salary>6000 -- tail\n\
     \tand e.dept_id=10";
    "SELECT e.name, e.name, e.name AS name_1 FROM employees e, employees \
     e_1, employees x WHERE e.emp_id = e_1.mgr_id AND EXISTS (SELECT 1 FROM \
     employees e WHERE e.emp_id = x.emp_id)";
    "SELECT DISTINCT v.d FROM (SELECT d.dept_id d FROM departments d) v, \
     (SELECT d.dept_id FROM departments d) AS w WHERE v.d = w.dept_id";
    "SELECT x.v FROM (SELECT MAX(e.salary) v, e.dept_id FROM employees e \
     GROUP BY e.dept_id) x WHERE x.v > (SELECT AVG(e2.salary) FROM employees \
     e2)";
  ]

let malformed =
  [
    "SELECT FROM employees";
    "SELECT e.name FROM";
    "SELECT e.name FROM no_such_table e";
    "SELECT e.no_such_col FROM employees e";
    "SELECT e.name FROM employees e WHERE";
    "SELECT e.name FROM employees e WHERE e.salary >";
    "SELECT e.name FROM employees e ORDER";
    "SELECT e.name employees e";
    "SELECT e.name FROM employees e WHERE e.name = 'open";
    "SELECT e.name FROM employees e WHERE e.salary > : 1";
    "SELECT e.name FROM employees e WHERE e.salary > :0";
    "SELECT e.name FROM employees e WHERE e.salary # 1";
    "SELECT e.name FROM employees e WHERE e.salary > 1 extra";
    "SELECT x.name FROM employees e";
    "SELECT dept_id FROM employees e, departments d";
    "SELECT e.name FROM employees e WHERE ROWNUM > 3";
    "SELECT e.name FROM employees e WHERE e.salary IN (1, e.job_id)";
    "SELECT e.name FROM employees e WHERE e.salary";
    "SELECT e.name FROM employees e WHERE e.start_date = DATE 'x'";
    "SELECT e.name FROM employees e JOIN departments d e.dept_id = d.dept_id";
    "SELECT q.* FROM employees e";
    "SELECT CASE WHEN e.salary > 1 THEN 2 FROM employees e";
    "SELECT e.name FROM employees e UNION";
    "SELECT e.name FROM (SELECT 1 FROM employees) WHERE 1 = 1";
  ]

let () =
  let db, schema = SG.build ~families:2 ~sample_frac:0.5 ~row_scale:0.08 ~seed:11 () in
  let cat = db.Storage.Db.cat in
  List.iter
    (fun cls ->
      List.iter
        (fun seed ->
          let sql = Sqlir.Pp.query_to_string (QG.generate (QG.create ~seed schema) cls) in
          Printf.printf "%s/%d %s\n" (QG.class_name cls) seed (outcome cat sql))
        seeds)
    classes;
  let hr = Tsupport.hr_catalog () in
  List.iteri (fun i sql -> Printf.printf "hr/%d %s\n" (i + 1) (outcome hr sql)) well_formed;
  List.iteri (fun i sql -> Printf.printf "bad/%d %s\n" (i + 1) (outcome hr sql)) malformed
