(** Structural query fingerprints and bind parameterization.

    The plan cache and the planner's cost-annotation reuse both need a
    {e stable structural hash} of a query (sub-)tree. [Pp.fingerprint]
    (the printed form) served as the key up to now; printing every
    candidate is wasteful and string keys make collision accounting
    impossible. This module computes an FNV-1a-style hash by folding
    directly over the IR — full depth, unlike [Hashtbl.hash], which
    stops after a bounded number of nodes and would alias large trees.

    Two modes:

    - {!Generic}: [Bind] markers hash (and compare) by index only,
      ignoring the peeked value — two executions of the same
      parameterized statement with different bind values share a
      fingerprint. This is the plan-cache key.
    - {!With_peeks}: the peeked value participates — used by the
      planner's annotation cache, where estimates derived from peeks
      make annotations bind-value-specific.

    Block names ([qb_name]) are ignored in both modes, matching the old
    printed-form key (the printer never emitted them): a view
    regenerated identically by two different transformation masks still
    hits the cache.

    Parameterization ({!parameterize}) replaces [Int]/[Float]/[Str]/
    [Date] literals with ordered bind markers, left to right in clause
    order, and returns the extracted bind vector. [NULL] and boolean
    literals stay literal: their presence changes what the optimizer
    may legally do (null-rejection, trivially-true predicates), so
    folding them into binds would make the cached plan over-general.
    [IN]-list members and [ROWNUM] limits are not expressions in this
    IR and are likewise never parameterized. *)

open Ast
module V = Value

type mode = Generic | With_peeks

(* ------------------------------------------------------------------ *)
(* Generic leaf rewriting (full traversal, subqueries included)        *)
(* ------------------------------------------------------------------ *)

(** Rewrite every [Const]/[Bind] leaf with [f] and every block name
    with [qb], across the whole tree including views and subqueries.
    Traversal order is deterministic: select, from (outer before
    nested), where, group by, having, order by; left to right within
    each clause. *)
let rec rewrite ?(qb = fun n -> n) (f : expr -> expr) (q : query) : query =
  let rec rw_e e =
    match e with
    | Const _ | Bind _ -> f e
    | Col _ -> e
    | Binop (op, a, b) ->
        let a = rw_e a in
        Binop (op, a, rw_e b)
    | Neg a -> Neg (rw_e a)
    | Agg (a, eo, d) -> Agg (a, Option.map rw_e eo, d)
    | Win (a, eo, w) ->
        let eo = Option.map rw_e eo in
        let pby = List.map rw_e w.w_pby in
        Win (a, eo, { w_pby = pby; w_oby = List.map (fun (e, d) -> (rw_e e, d)) w.w_oby })
    | Fn (n, args) -> Fn (n, List.map rw_e args)
    | Case (arms, els) ->
        let arms = List.map (fun (p, e) -> let p = rw_p p in (p, rw_e e)) arms in
        Case (arms, Option.map rw_e els)
  and rw_p p =
    match p with
    | True | False -> p
    | Cmp (op, a, b) ->
        let a = rw_e a in
        Cmp (op, a, rw_e b)
    | Between (a, lo, hi) ->
        let a = rw_e a in
        let lo = rw_e lo in
        Between (a, lo, rw_e hi)
    | Is_null a -> Is_null (rw_e a)
    | Not a -> Not (rw_p a)
    | Lnnvl a -> Lnnvl (rw_p a)
    | And (a, b) ->
        let a = rw_p a in
        And (a, rw_p b)
    | Or (a, b) ->
        let a = rw_p a in
        Or (a, rw_p b)
    | In_list (a, vs) -> In_list (rw_e a, vs)
    | In_subq (es, q) ->
        let es = List.map rw_e es in
        In_subq (es, rewrite ~qb f q)
    | Not_in_subq (es, q) ->
        let es = List.map rw_e es in
        Not_in_subq (es, rewrite ~qb f q)
    | Exists q -> Exists (rewrite ~qb f q)
    | Not_exists q -> Not_exists (rewrite ~qb f q)
    | Cmp_subq (op, a, qt, q) ->
        let a = rw_e a in
        Cmp_subq (op, a, qt, rewrite ~qb f q)
    | Pred_fn (n, args) -> Pred_fn (n, List.map rw_e args)
  in
  match q with
  | Setop (op, l, r) ->
      let l = rewrite ~qb f l in
      Setop (op, l, rewrite ~qb f r)
  | Block b ->
      let select =
        List.map (fun si -> { si with si_expr = rw_e si.si_expr }) b.select
      in
      let from =
        List.map
          (fun fe ->
            let fe_source =
              match fe.fe_source with
              | S_table t -> S_table t
              | S_view v -> S_view (rewrite ~qb f v)
            in
            { fe with fe_source; fe_cond = List.map rw_p fe.fe_cond })
          b.from
      in
      Block
        {
          b with
          qb_name = qb b.qb_name;
          select;
          from;
          where = List.map rw_p b.where;
          group_by = List.map rw_e b.group_by;
          having = List.map rw_p b.having;
          order_by = List.map (fun (e, d) -> (rw_e e, d)) b.order_by;
        }

(* ------------------------------------------------------------------ *)
(* Hashing                                                             *)
(* ------------------------------------------------------------------ *)

let prime = 0x100000001b3

let mix h x = ((h lxor x) * prime) land max_int

let mix_str h s =
  let h = mix h (String.length s) in
  String.fold_left (fun h c -> mix h (Char.code c)) h s

let mix_value h (v : V.t) =
  match v with
  | V.Null -> mix h 11
  | V.Int n -> mix (mix h 12) n
  | V.Float f -> mix (mix h 13) (Int64.to_int (Int64.bits_of_float f))
  | V.Str s -> mix_str (mix h 14) s
  | V.Bool b -> mix h (if b then 15 else 16)
  | V.Date d -> mix (mix h 17) d

let mix_opt mf h = function None -> mix h 21 | Some x -> mf (mix h 22) x
let mix_list mf h xs = List.fold_left mf (mix h (List.length xs)) xs
let mix_bool h b = mix h (if b then 23 else 24)

let cmp_tag = function Eq -> 1 | Ne -> 2 | Lt -> 3 | Le -> 4 | Gt -> 5 | Ge -> 6
let arith_tag = function Add -> 1 | Sub -> 2 | Mul -> 3 | Div -> 4
let dir_tag = function Asc -> 1 | Desc -> 2
let setop_tag = function Union_all -> 1 | Union -> 2 | Intersect -> 3 | Minus -> 4

let agg_tag = function
  | Count_star -> 1
  | Count -> 2
  | Sum -> 3
  | Avg -> 4
  | Min -> 5
  | Max -> 6

let jkind_tag = function
  | J_inner -> 1
  | J_left -> 2
  | J_semi -> 3
  | J_anti -> 4
  | J_anti_na -> 5

let rec hx_expr mode h e =
  match e with
  | Const v -> mix_value (mix h 31) v
  | Bind (i, peek) -> (
      let h = mix (mix h 32) i in
      match mode with Generic -> h | With_peeks -> mix_value h peek)
  | Col c -> mix_str (mix_str (mix h 33) c.c_alias) c.c_col
  | Binop (op, a, b) ->
      hx_expr mode (hx_expr mode (mix (mix h 34) (arith_tag op)) a) b
  | Neg a -> hx_expr mode (mix h 35) a
  | Agg (a, eo, d) ->
      mix_bool (mix_opt (hx_expr mode) (mix (mix h 36) (agg_tag a)) eo) d
  | Win (a, eo, w) ->
      let h = mix_opt (hx_expr mode) (mix (mix h 37) (agg_tag a)) eo in
      let h = mix_list (hx_expr mode) h w.w_pby in
      mix_list
        (fun h (e, d) -> mix (hx_expr mode h e) (dir_tag d))
        h w.w_oby
  | Fn (n, args) -> mix_list (hx_expr mode) (mix_str (mix h 38) n) args
  | Case (arms, els) ->
      let h =
        mix_list
          (fun h (p, e) -> hx_expr mode (hx_pred mode h p) e)
          (mix h 39) arms
      in
      mix_opt (hx_expr mode) h els

and hx_pred mode h p =
  let he = hx_expr mode and hp = hx_pred mode in
  match p with
  | True -> mix h 51
  | False -> mix h 52
  | Cmp (op, a, b) -> he (he (mix (mix h 53) (cmp_tag op)) a) b
  | Between (a, lo, hi) -> he (he (he (mix h 54) a) lo) hi
  | Is_null a -> he (mix h 55) a
  | Not a -> hp (mix h 56) a
  | Lnnvl a -> hp (mix h 57) a
  | And (a, b) -> hp (hp (mix h 58) a) b
  | Or (a, b) -> hp (hp (mix h 59) a) b
  | In_list (a, vs) -> mix_list mix_value (he (mix h 60) a) vs
  | In_subq (es, q) -> hx_query mode (mix_list he (mix h 61) es) q
  | Not_in_subq (es, q) -> hx_query mode (mix_list he (mix h 62) es) q
  | Exists q -> hx_query mode (mix h 63) q
  | Not_exists q -> hx_query mode (mix h 64) q
  | Cmp_subq (op, a, qt, q) ->
      let h = mix (mix h 65) (cmp_tag op) in
      let h = he h a in
      let h =
        match qt with
        | None -> mix h 1
        | Some Q_any -> mix h 2
        | Some Q_all -> mix h 3
      in
      hx_query mode h q
  | Pred_fn (n, args) -> mix_list he (mix_str (mix h 66) n) args

and hx_block mode h (b : block) =
  (* qb_name deliberately excluded *)
  let h =
    mix_list
      (fun h si -> mix_str (hx_expr mode h si.si_expr) si.si_name)
      (mix h 71) b.select
  in
  let h = mix_bool h b.distinct in
  let h =
    mix_list
      (fun h fe ->
        let h = mix_str h fe.fe_alias in
        let h =
          match fe.fe_source with
          | S_table t -> mix_str (mix h 1) t
          | S_view v -> hx_query mode (mix h 2) v
        in
        mix_list (hx_pred mode) (mix h (jkind_tag fe.fe_kind)) fe.fe_cond)
      h b.from
  in
  let h = mix_list (hx_pred mode) h b.where in
  let h = mix_list (hx_expr mode) h b.group_by in
  let h = mix_list (hx_pred mode) h b.having in
  let h =
    mix_list
      (fun h (e, d) -> mix (hx_expr mode h e) (dir_tag d))
      h b.order_by
  in
  match b.limit with None -> mix h 72 | Some n -> mix (mix h 73) n

and hx_query mode h = function
  | Block b -> hx_block mode (mix h 81) b
  | Setop (op, l, r) ->
      hx_query mode (hx_query mode (mix (mix h 82) (setop_tag op)) l) r

let seed = 0x1b873593

(** Stable structural hash of a query. See mode semantics above. *)
let hash ?(mode = Generic) (q : query) : int = hx_query mode seed q

(** Hash of a sub-expression / block, for callers keying finer-grained
    caches. *)
let hash_block ?(mode = Generic) (b : block) : int = hx_block mode seed b

(* ------------------------------------------------------------------ *)
(* Canonical forms and equality                                        *)
(* ------------------------------------------------------------------ *)

(** Canonical form for comparison: block names blanked; in [Generic]
    mode, bind peeks blanked too. [canonical] is idempotent, so a
    stored canonical entry compares against a canonicalized probe with
    structural [=] (the IR is pure data). *)
let canonical ?(mode = Generic) (q : query) : query =
  rewrite
    ~qb:(fun _ -> "")
    (function
      | Bind (i, _) when mode = Generic -> Bind (i, V.Null)
      | e -> e)
    q

(* the equality [canonical] induces, decided by one walk over both
   trees with no copy: physically equal subtrees are equal at once,
   block names are skipped, and in [Generic] mode so are bind peeks *)
let eq_value (a : V.t) (b : V.t) =
  match (a, b) with
  | V.Null, V.Null -> true
  | V.Int x, V.Int y | V.Date x, V.Date y -> Int.equal x y
  | V.Float x, V.Float y -> x = y
  | V.Str x, V.Str y -> String.equal x y
  | V.Bool x, V.Bool y -> Bool.equal x y
  | _ -> false

let rec eq_expr mode a b =
  a == b
  ||
  let ee = eq_expr mode in
  match (a, b) with
  | Const x, Const y -> eq_value x y
  | Bind (i, p), Bind (j, q) ->
      Int.equal i j && (mode = Generic || eq_value p q)
  | Col c, Col d ->
      String.equal c.c_alias d.c_alias && String.equal c.c_col d.c_col
  | Binop (o, a1, b1), Binop (p, a2, b2) -> o = p && ee a1 a2 && ee b1 b2
  | Neg x, Neg y -> ee x y
  | Agg (f, x, d), Agg (g, y, e) ->
      f = g && Option.equal ee x y && Bool.equal d e
  | Win (f, x, w), Win (g, y, v) ->
      f = g && Option.equal ee x y
      && List.equal ee w.w_pby v.w_pby
      && List.equal (eq_ordered mode) w.w_oby v.w_oby
  | Fn (n, xs), Fn (m, ys) -> String.equal n m && List.equal ee xs ys
  | Case (xs, x), Case (ys, y) ->
      List.equal
        (fun (p, e) (q, f) -> eq_pred mode p q && ee e f)
        xs ys
      && Option.equal ee x y
  | _ -> false

and eq_ordered mode (e, d) (f, d') = d = d' && eq_expr mode e f

and eq_pred mode a b =
  a == b
  ||
  let ee = eq_expr mode and ep = eq_pred mode and eq = eq_query mode in
  match (a, b) with
  | True, True | False, False -> true
  | Cmp (o, a1, b1), Cmp (p, a2, b2) -> o = p && ee a1 a2 && ee b1 b2
  | Between (x, l, h), Between (y, m, i) -> ee x y && ee l m && ee h i
  | Is_null x, Is_null y -> ee x y
  | Not x, Not y | Lnnvl x, Lnnvl y -> ep x y
  | And (a1, b1), And (a2, b2) | Or (a1, b1), Or (a2, b2) ->
      ep a1 a2 && ep b1 b2
  | In_list (x, vs), In_list (y, ws) -> ee x y && List.equal eq_value vs ws
  | In_subq (xs, q), In_subq (ys, r) | Not_in_subq (xs, q), Not_in_subq (ys, r)
    ->
      List.equal ee xs ys && eq q r
  | Exists q, Exists r | Not_exists q, Not_exists r -> eq q r
  | Cmp_subq (o, x, qt, q), Cmp_subq (p, y, rt, r) ->
      o = p && ee x y && qt = rt && eq q r
  | Pred_fn (n, xs), Pred_fn (m, ys) -> String.equal n m && List.equal ee xs ys
  | _ -> false

and eq_block mode (a : block) (b : block) =
  a == b
  ||
  let ee = eq_expr mode and ep = eq_pred mode in
  List.equal
    (fun x y -> String.equal x.si_name y.si_name && ee x.si_expr y.si_expr)
    a.select b.select
  && Bool.equal a.distinct b.distinct
  && List.equal (eq_from_entry mode) a.from b.from
  && List.equal ep a.where b.where
  && List.equal ee a.group_by b.group_by
  && List.equal ep a.having b.having
  && List.equal (eq_ordered mode) a.order_by b.order_by
  && Option.equal Int.equal a.limit b.limit

and eq_from_entry mode x y =
  x == y
  || String.equal x.fe_alias y.fe_alias
     && x.fe_kind = y.fe_kind
     && (match (x.fe_source, y.fe_source) with
        | S_table s, S_table t -> String.equal s t
        | S_view q, S_view r -> eq_query mode q r
        | _ -> false)
     && List.equal (eq_pred mode) x.fe_cond y.fe_cond

and eq_query mode a b =
  a == b
  ||
  match (a, b) with
  | Block x, Block y -> eq_block mode x y
  | Setop (o, l1, r1), Setop (p, l2, r2) ->
      o = p && eq_query mode l1 l2 && eq_query mode r1 r2
  | _ -> false

(** Structural equality under the given mode (qb_names ignored): the
    same relation as comparing the two {!canonical} forms with [=],
    except that a subtree is equal to itself even when it holds a NaN
    literal. Decided without copying either tree, stopping at the first
    difference; subtrees a rewrite shared with its input are not
    walked. *)
let equal ?(mode = Generic) (a : query) (b : query) : bool = eq_query mode a b

(* ------------------------------------------------------------------ *)
(* Parameterization                                                    *)
(* ------------------------------------------------------------------ *)

let fold_binds f acc q =
  let acc = ref acc in
  ignore
    (rewrite
       (fun e ->
         (match e with Bind (i, v) -> acc := f !acc i v | _ -> ());
         e)
       q);
  !acc

(** Number of bind positions a query expects: one past the highest
    marker index, [0] if the query has no binds. *)
let binds_count (q : query) : int =
  fold_binds (fun acc i _ -> max acc (i + 1)) 0 q

(** Replace [Int]/[Float]/[Str]/[Date] literals with ordered bind
    markers (peeked at the literal they replace) and return the
    parameterized query plus the extracted bind values, in marker
    order. Extracted markers are numbered after any bind markers
    already present (explicit [:n] placeholders), whose values are NOT
    part of the returned vector. *)
let parameterize (q : query) : query * V.t list =
  let next = ref (binds_count q) in
  let extracted = ref [] in
  let q' =
    rewrite
      (function
        | Const ((V.Int _ | V.Float _ | V.Str _ | V.Date _) as v) ->
            let i = !next in
            incr next;
            extracted := v :: !extracted;
            Bind (i, v)
        | e -> e)
      q
  in
  (q', List.rev !extracted)

let check_index binds i =
  if i < 0 || i >= Array.length binds then
    invalid_arg
      (Printf.sprintf
         "Fingerprint: query references bind :%d but only %d bind value(s) \
          were supplied"
         (i + 1) (Array.length binds))

(** Re-peek every bind marker at the value the vector supplies for its
    index. Raises [Invalid_argument] on a marker past the end of
    [binds]. *)
let peek_binds (q : query) (binds : V.t array) : query =
  rewrite
    (function
      | Bind (i, _) ->
          check_index binds i;
          Bind (i, binds.(i))
      | e -> e)
    q

(** Substitute bind markers by constants — the inverse of
    {!parameterize}; used by tests and to materialize literal variants
    of a parameterized statement. *)
let instantiate (q : query) (binds : V.t array) : query =
  rewrite
    (function
      | Bind (i, _) ->
          check_index binds i;
          Const binds.(i)
      | e -> e)
    q
