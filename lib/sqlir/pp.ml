(** SQL-style pretty-printing of query trees.

    The printed form is also used as the canonical {e fingerprint} of a
    query block for the cost-annotation reuse of Section 3.4.2: two query
    sub-trees that print identically are semantically identical (the
    printer is a total function of the IR), so their physical plans and
    costs can be shared. *)

open Ast

let cmp_str = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let arith_str = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

let agg_str = function
  | Count_star -> "COUNT(*)"
  | Count -> "COUNT"
  | Sum -> "SUM"
  | Avg -> "AVG"
  | Min -> "MIN"
  | Max -> "MAX"

let setop_str = function
  | Union_all -> "UNION ALL"
  | Union -> "UNION"
  | Intersect -> "INTERSECT"
  | Minus -> "MINUS"

let dir_str = function Asc -> "ASC" | Desc -> "DESC"

let rec pp_expr ppf (e : expr) =
  match e with
  | Const v -> Value.pp ppf v
  | Bind (i, peek) -> Fmt.pf ppf ":%d{%a}" (i + 1) Value.pp peek
  | Col c -> Fmt.pf ppf "%s.%s" c.c_alias c.c_col
  | Binop (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp_expr a (arith_str op) pp_expr b
  | Neg a -> Fmt.pf ppf "(-%a)" pp_expr a
  | Agg (Count_star, _, _) -> Fmt.string ppf "COUNT(*)"
  | Agg (a, eo, dist) ->
      Fmt.pf ppf "%s(%s%a)" (agg_str a)
        (if dist then "DISTINCT " else "")
        (Fmt.option pp_expr) eo
  | Win (a, eo, w) ->
      Fmt.pf ppf "%s(%a) OVER (PBY %a OBY %a)"
        (if a = Count_star then "COUNT" else agg_str a)
        (Fmt.option pp_expr) eo
        (Fmt.list ~sep:Fmt.comma pp_expr)
        w.w_pby
        (Fmt.list ~sep:Fmt.comma (fun ppf (e, d) ->
             Fmt.pf ppf "%a %s" pp_expr e (dir_str d)))
        w.w_oby
  | Fn (n, args) -> Fmt.pf ppf "%s(%a)" n (Fmt.list ~sep:Fmt.comma pp_expr) args
  | Case (arms, els) ->
      Fmt.pf ppf "CASE%a%a END"
        (Fmt.list (fun ppf (p, e) ->
             Fmt.pf ppf " WHEN %a THEN %a" pp_pred p pp_expr e))
        arms
        (Fmt.option (fun ppf e -> Fmt.pf ppf " ELSE %a" pp_expr e))
        els

and pp_pred ppf (p : pred) =
  match p with
  | True -> Fmt.string ppf "TRUE"
  | False -> Fmt.string ppf "FALSE"
  | Cmp (op, a, b) -> Fmt.pf ppf "%a %s %a" pp_expr a (cmp_str op) pp_expr b
  | Between (a, lo, hi) ->
      Fmt.pf ppf "%a BETWEEN %a AND %a" pp_expr a pp_expr lo pp_expr hi
  | Is_null a -> Fmt.pf ppf "%a IS NULL" pp_expr a
  | Not (Is_null a) -> Fmt.pf ppf "%a IS NOT NULL" pp_expr a
  | Not a -> Fmt.pf ppf "NOT (%a)" pp_pred a
  | Lnnvl a -> Fmt.pf ppf "LNNVL(%a)" pp_pred a
  | And (a, b) -> Fmt.pf ppf "(%a AND %a)" pp_pred a pp_pred b
  | Or (a, b) -> Fmt.pf ppf "(%a OR %a)" pp_pred a pp_pred b
  | In_list (e, vs) ->
      Fmt.pf ppf "%a IN (%a)" pp_expr e (Fmt.list ~sep:Fmt.comma Value.pp) vs
  | In_subq (es, q) ->
      Fmt.pf ppf "(%a) IN (%a)" (Fmt.list ~sep:Fmt.comma pp_expr) es pp_query q
  | Not_in_subq (es, q) ->
      Fmt.pf ppf "(%a) NOT IN (%a)"
        (Fmt.list ~sep:Fmt.comma pp_expr)
        es pp_query q
  | Exists q -> Fmt.pf ppf "EXISTS (%a)" pp_query q
  | Not_exists q -> Fmt.pf ppf "NOT EXISTS (%a)" pp_query q
  | Cmp_subq (op, e, qt, q) ->
      Fmt.pf ppf "%a %s %s(%a)" pp_expr e (cmp_str op)
        (match qt with
        | None -> ""
        | Some Q_any -> "ANY "
        | Some Q_all -> "ALL ")
        pp_query q
  | Pred_fn (n, args) ->
      Fmt.pf ppf "%s(%a)" n (Fmt.list ~sep:Fmt.comma pp_expr) args

and pp_from_entry ppf fe =
  let kind =
    match fe.fe_kind with
    | J_inner -> ""
    | J_left -> "LEFT OUTER "
    | J_semi -> "SEMI "
    | J_anti -> "ANTI "
    | J_anti_na -> "ANTI-NA "
  in
  (match fe.fe_source with
  | S_table t -> Fmt.pf ppf "%s%s %s" kind t fe.fe_alias
  | S_view q -> Fmt.pf ppf "%s(%a) %s" kind pp_query q fe.fe_alias);
  match fe.fe_cond with
  | [] -> ()
  | conds ->
      Fmt.pf ppf " ON %a" (Fmt.list ~sep:(Fmt.any " AND ") pp_pred) conds

and pp_block ppf (b : block) =
  Fmt.pf ppf "SELECT %s%a FROM %a"
    (if b.distinct then "DISTINCT " else "")
    (Fmt.list ~sep:Fmt.comma (fun ppf si ->
         Fmt.pf ppf "%a AS %s" pp_expr si.si_expr si.si_name))
    b.select
    (Fmt.list ~sep:Fmt.comma pp_from_entry)
    b.from;
  (match b.where with
  | [] -> ()
  | ps -> Fmt.pf ppf " WHERE %a" (Fmt.list ~sep:(Fmt.any " AND ") pp_pred) ps);
  (match b.group_by with
  | [] -> ()
  | es -> Fmt.pf ppf " GROUP BY %a" (Fmt.list ~sep:Fmt.comma pp_expr) es);
  (match b.having with
  | [] -> ()
  | ps -> Fmt.pf ppf " HAVING %a" (Fmt.list ~sep:(Fmt.any " AND ") pp_pred) ps);
  (match b.order_by with
  | [] -> ()
  | es ->
      Fmt.pf ppf " ORDER BY %a"
        (Fmt.list ~sep:Fmt.comma (fun ppf (e, d) ->
             Fmt.pf ppf "%a %s" pp_expr e (dir_str d)))
        es);
  match b.limit with
  | None -> ()
  | Some n -> Fmt.pf ppf " ROWNUM <= %d" n

and pp_query ppf = function
  | Block b -> pp_block ppf b
  | Setop (op, l, r) ->
      Fmt.pf ppf "(%a) %s (%a)" pp_query l (setop_str op) pp_query r

let expr_to_string e = Fmt.str "%a" pp_expr e
let pred_to_string p = Fmt.str "%a" pp_pred p
let query_to_string q = Fmt.str "%a" pp_query q

(** Canonical fingerprint of a query (sub-)tree, used as the key for
    cost-annotation reuse (Section 3.4.2). *)
let fingerprint (q : query) : string = query_to_string q
