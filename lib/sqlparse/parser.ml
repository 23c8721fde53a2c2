(** Recursive-descent SQL parser.

    Parses the SQL subset the transformations operate on: query blocks
    with subqueries (IN / NOT IN / EXISTS / NOT EXISTS / ANY / ALL /
    scalar), inline views, ANSI joins (inner, left outer), set operators
    (UNION [ALL] / INTERSECT / MINUS), aggregates with DISTINCT, window
    functions (OVER (PARTITION BY … ORDER BY …)), CASE, and Oracle's
    ROWNUM limit.

    The parser needs the catalog to expand [*] / [alias.*] and to
    resolve unqualified column names against the tables in scope. Table
    aliases are made globally unique across the whole statement (the IR
    and the transformations rely on that invariant): a repeated alias in
    an inner block is silently renamed, with references resolved through
    the lexical scope chain.

    The module holds no global state, so parses may run concurrently on
    different domains. *)

open Sqlir
module A = Ast
module L = Lexer
module K = L.Kw

exception Parse_error of string

module Names = Set.Make (String)

type scope_entry = {
  sc_orig : string;  (** alias as written in the query *)
  sc_actual : string;  (** globally unique alias used in the IR *)
  sc_cols : string list;  (** visible columns *)
}

(* everything one parse mutates lives here, so concurrent parses on
   different domains share nothing *)
type state = {
  cat : Catalog.t;
  toks : L.token array;
  offs : int array;  (** source offset of each token *)
  mutable pos : int;
  mutable scopes : scope_entry list list;  (** innermost first *)
  mutable used : Names.t;  (** aliases used so far, statement-wide *)
  mutable qb_counter : int;
  mutable pending_on : A.pred list;
      (** inner-join ON conjuncts of the block being parsed: parse_from
          hoists them here and parse_block moves them into WHERE *)
}

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s (at offset %d)" msg st.offs.(st.pos)))

let peek st = st.toks.(st.pos)

let peek2 st =
  if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1) else L.EOF

let advance st = st.pos <- st.pos + 1

let expected st what =
  fail st (Printf.sprintf "expected %s, found %s" what (L.token_str (peek st)))

(* [tok] is punctuation, a constant constructor, so [==] is exact *)
let accept st tok =
  if peek st == tok then (
    advance st;
    true)
  else false

let expect st tok = if not (accept st tok) then expected st (L.token_str tok)
let peek_kw st kw = match peek st with L.KW k -> k = kw | _ -> false

let accept_kw st kw =
  if peek_kw st kw then (
    advance st;
    true)
  else false

let expect_kw st kw = if not (accept_kw st kw) then expected st (K.name kw)

let ident st =
  match peek st with
  | L.IDENT s ->
      advance st;
      s
  | t -> fail st (Printf.sprintf "expected identifier, found %s" (L.token_str t))

(* [base], or else the first of [base_1], [base_2], ... not [taken] *)
let unique taken base =
  let rec go i =
    let cand = base ^ "_" ^ string_of_int i in
    if Names.mem cand taken then go (i + 1) else cand
  in
  if Names.mem base taken then go 1 else base

let fresh_alias st base =
  let a = unique st.used base in
  st.used <- Names.add a st.used;
  a

let fresh_qb st =
  st.qb_counter <- st.qb_counter + 1;
  "qb" ^ string_of_int st.qb_counter

(* ------------------------------------------------------------------ *)
(* Name resolution                                                      *)
(* ------------------------------------------------------------------ *)

let resolve_qualified st alias col =
  let rec go = function
    | [] -> fail st (Printf.sprintf "unknown table alias %s" alias)
    | frame :: rest -> (
        match
          List.find_opt
            (fun e -> String.equal e.sc_orig alias || String.equal e.sc_actual alias)
            frame
        with
        | Some e ->
            if List.exists (String.equal col) e.sc_cols then A.col e.sc_actual col
            else
              fail st
                (Printf.sprintf "table %s has no column %s" alias col)
        | None -> go rest)
  in
  go st.scopes

let resolve_unqualified st col =
  let rec go = function
    | [] -> fail st (Printf.sprintf "unknown column %s" col)
    | frame :: rest -> (
        match List.filter (fun e -> List.exists (String.equal col) e.sc_cols) frame with
        | [ e ] -> A.col e.sc_actual col
        | [] -> go rest
        | _ -> fail st (Printf.sprintf "ambiguous column %s" col))
  in
  go st.scopes

(* ------------------------------------------------------------------ *)
(* Expressions                                                          *)
(* ------------------------------------------------------------------ *)

let rec parse_expr st : A.expr = parse_sum st

and parse_sum st =
  let lhs = ref (parse_term st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | L.PLUS ->
        advance st;
        lhs := A.Binop (A.Add, !lhs, parse_term st)
    | L.MINUS ->
        advance st;
        lhs := A.Binop (A.Sub, !lhs, parse_term st)
    | _ -> continue := false
  done;
  !lhs

and parse_term st =
  let lhs = ref (parse_factor st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | L.STAR ->
        advance st;
        lhs := A.Binop (A.Mul, !lhs, parse_factor st)
    | L.SLASH ->
        advance st;
        lhs := A.Binop (A.Div, !lhs, parse_factor st)
    | _ -> continue := false
  done;
  !lhs

and parse_factor st : A.expr =
  match peek st with
  | L.INT n ->
      advance st;
      A.Const (Value.Int n)
  | L.BIND n ->
      advance st;
      if n < 1 then fail st "bind positions are 1-based";
      (* peek value unknown at parse time; the service layer re-peeks
         from the user-supplied bind vector before optimizing *)
      A.Bind (n - 1, Value.Null)
  | L.FLOAT f ->
      advance st;
      A.Const (Value.Float f)
  | L.STRING s ->
      advance st;
      A.Const (Value.Str s)
  | L.MINUS ->
      advance st;
      A.Neg (parse_factor st)
  | L.KW K.NULL ->
      advance st;
      A.Const Value.Null
  | L.KW K.TRUE ->
      advance st;
      A.Const (Value.Bool true)
  | L.KW K.FALSE ->
      advance st;
      A.Const (Value.Bool false)
  | L.KW K.ROWNUM ->
      advance st;
      (* marker column; extracted into the block's limit by parse_block *)
      A.col "$rownum" "rownum"
  | L.KW K.DATE -> (
      advance st;
      match peek st with
      | L.INT n ->
          advance st;
          A.Const (Value.Date n)
      | L.STRING s -> (
          advance st;
          match int_of_string_opt s with
          | Some n -> A.Const (Value.Date n)
          | None -> fail st "DATE literal must be an integer day number")
      | _ -> fail st "expected DATE literal")
  | L.LPAREN ->
      advance st;
      let e = parse_expr st in
      expect st L.RPAREN;
      e
  | L.KW K.CASE -> parse_case st
  | L.KW K.COUNT -> parse_aggregate st A.Count
  | L.KW K.SUM -> parse_aggregate st A.Sum
  | L.KW K.AVG -> parse_aggregate st A.Avg
  | L.KW K.MIN -> parse_aggregate st A.Min
  | L.KW K.MAX -> parse_aggregate st A.Max
  | L.IDENT name -> (
      advance st;
      match peek st with
      | L.DOT ->
          advance st;
          let col = ident st in
          resolve_qualified st name col
      | L.LPAREN ->
          (* scalar function call *)
          advance st;
          let args = parse_args st in
          expect st L.RPAREN;
          A.Fn (name, args)
      | _ -> resolve_unqualified st name)
  | t -> fail st (Printf.sprintf "unexpected token %s in expression" (L.token_str t))

and parse_args st =
  if peek st == L.RPAREN then []
  else
    let rec go acc =
      let e = parse_expr st in
      if accept st L.COMMA then go (e :: acc) else List.rev (e :: acc)
    in
    go []

and parse_case st =
  expect_kw st K.CASE;
  let arms = ref [] in
  while peek_kw st K.WHEN do
    advance st;
    let p = parse_pred st in
    expect_kw st K.THEN;
    let e = parse_expr st in
    arms := (p, e) :: !arms
  done;
  let els = if accept_kw st K.ELSE then Some (parse_expr st) else None in
  expect_kw st K.END;
  A.Case (List.rev !arms, els)

and parse_aggregate st agg =
  advance st;
  expect st L.LPAREN;
  let agg =
    match (agg, peek st) with
    | A.Count, L.STAR ->
        advance st;
        expect st L.RPAREN;
        A.Agg (A.Count_star, None, false)
    | _ ->
        let dist = accept_kw st K.DISTINCT in
        let arg = parse_expr st in
        expect st L.RPAREN;
        A.Agg (agg, Some arg, dist)
  in
  if accept_kw st K.OVER then (
    expect st L.LPAREN;
    let pby =
      if accept_kw st K.PARTITION then (
        expect_kw st K.BY;
        parse_expr_list st)
      else []
    in
    let oby =
      if accept_kw st K.ORDER then (
        expect_kw st K.BY;
        parse_order_list st)
      else []
    in
    expect st L.RPAREN;
    match agg with
    | A.Agg (a, arg, _) -> A.Win (a, arg, { A.w_pby = pby; w_oby = oby })
    | _ -> assert false)
  else agg

and parse_expr_list st =
  let rec go acc =
    let e = parse_expr st in
    if accept st L.COMMA then go (e :: acc) else List.rev (e :: acc)
  in
  go []

and parse_order_list st =
  let rec go acc =
    let e = parse_expr st in
    let dir =
      if accept_kw st K.DESC then A.Desc
      else (
        ignore (accept_kw st K.ASC);
        A.Asc)
    in
    if accept st L.COMMA then go ((e, dir) :: acc) else List.rev ((e, dir) :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Predicates                                                           *)
(* ------------------------------------------------------------------ *)

and parse_pred st : A.pred = parse_or st

and parse_or st =
  let lhs = ref (parse_and st) in
  while accept_kw st K.OR do
    lhs := A.Or (!lhs, parse_and st)
  done;
  !lhs

and parse_and st =
  let lhs = ref (parse_not st) in
  while accept_kw st K.AND do
    lhs := A.And (!lhs, parse_not st)
  done;
  !lhs

and parse_not st =
  if accept_kw st K.NOT then A.Not (parse_not st) else parse_pred_primary st

and is_subquery_ahead st =
  (* LPAREN (LPAREN)* SELECT *)
  peek st == L.LPAREN
  &&
  let rec scan i =
    if i >= Array.length st.toks then false
    else
      match st.toks.(i) with
      | L.LPAREN -> scan (i + 1)
      | L.KW K.SELECT -> true
      | _ -> false
  in
  scan (st.pos + 1)

and parse_pred_primary st : A.pred =
  match peek st with
  | L.KW K.EXISTS ->
      advance st;
      expect st L.LPAREN;
      let q = parse_query st in
      expect st L.RPAREN;
      A.Exists q
  | L.KW K.TRUE ->
      advance st;
      A.True
  | L.KW K.FALSE ->
      advance st;
      A.False
  | L.LPAREN when not (is_subquery_ahead st) -> (
      (* Either a parenthesized predicate or a row constructor for
         multi-item IN: (a, b) [NOT] IN (SELECT ...). Try the
         row-constructor reading first; backtrack on failure. *)
      let save = st.pos in
      let as_row_constructor () =
        advance st;
        let first = parse_expr st in
        match peek st with
        | L.COMMA ->
            let rec more acc =
              if accept st L.COMMA then more (parse_expr st :: acc)
              else List.rev acc
            in
            let es = more [ first ] in
            expect st L.RPAREN;
            let negated = accept_kw st K.NOT in
            expect_kw st K.IN;
            expect st L.LPAREN;
            let q = parse_query st in
            expect st L.RPAREN;
            Some (if negated then A.Not_in_subq (es, q) else A.In_subq (es, q))
        | L.RPAREN when (match peek2 st with L.KW (K.IN | K.NOT) -> true | _ -> false) ->
            advance st;
            let negated = accept_kw st K.NOT in
            expect_kw st K.IN;
            expect st L.LPAREN;
            let q = parse_query st in
            expect st L.RPAREN;
            Some
              (if negated then A.Not_in_subq ([ first ], q)
               else A.In_subq ([ first ], q))
        | _ -> None
      in
      match (try as_row_constructor () with Parse_error _ -> None) with
      | Some p -> p
      | None ->
          st.pos <- save;
          advance st;
          let p = parse_pred st in
          expect st L.RPAREN;
          p)
  | _ -> (
      let lhs = parse_expr st in
      match peek st with
      | L.EQ | L.NE | L.LT | L.LE | L.GT | L.GE -> parse_comparison st lhs
      | L.KW K.IS ->
          advance st;
          let negated = accept_kw st K.NOT in
          expect_kw st K.NULL;
          if negated then A.Not (A.Is_null lhs) else A.Is_null lhs
      | L.KW K.BETWEEN ->
          advance st;
          let lo = parse_sum st in
          expect_kw st K.AND;
          let hi = parse_sum st in
          A.Between (lhs, lo, hi)
      | L.KW K.IN ->
          advance st;
          parse_in_body st lhs ~negated:false
      | L.KW K.NOT ->
          advance st;
          expect_kw st K.IN;
          parse_in_body st lhs ~negated:true
      | _ -> (
          (* a bare function call used as a predicate *)
          match lhs with
          | A.Fn (n, args) -> A.Pred_fn (n, args)
          | _ -> fail st "expected a comparison operator"))

and parse_comparison st lhs =
  let op =
    match peek st with
    | L.EQ -> A.Eq
    | L.NE -> A.Ne
    | L.LT -> A.Lt
    | L.LE -> A.Le
    | L.GT -> A.Gt
    | L.GE -> A.Ge
    | _ -> assert false
  in
  advance st;
  match peek st with
  | L.KW (K.ANY | K.SOME) ->
      advance st;
      expect st L.LPAREN;
      let q = parse_query st in
      expect st L.RPAREN;
      A.Cmp_subq (op, lhs, Some A.Q_any, q)
  | L.KW K.ALL ->
      advance st;
      expect st L.LPAREN;
      let q = parse_query st in
      expect st L.RPAREN;
      A.Cmp_subq (op, lhs, Some A.Q_all, q)
  | L.LPAREN when is_subquery_ahead st ->
      advance st;
      let q = parse_query st in
      expect st L.RPAREN;
      A.Cmp_subq (op, lhs, None, q)
  | _ -> A.Cmp (op, lhs, parse_sum st)

and parse_in_body st lhs ~negated =
  expect st L.LPAREN;
  if is_subquery_at st st.pos then (
    let q = parse_query st in
    expect st L.RPAREN;
    if negated then A.Not_in_subq ([ lhs ], q) else A.In_subq ([ lhs ], q))
  else
    let rec go acc =
      let v =
        match peek st with
        | L.INT n ->
            advance st;
            Value.Int n
        | L.FLOAT f ->
            advance st;
            Value.Float f
        | L.STRING s ->
            advance st;
            Value.Str s
        | L.KW K.NULL ->
            advance st;
            Value.Null
        | L.KW K.DATE -> (
            advance st;
            match peek st with
            | L.INT n ->
                advance st;
                Value.Date n
            | _ -> fail st "expected DATE literal")
        | t -> fail st (Printf.sprintf "expected literal in IN list, found %s" (L.token_str t))
      in
      if accept st L.COMMA then go (v :: acc) else List.rev (v :: acc)
    in
    let vs = go [] in
    expect st L.RPAREN;
    let p = A.In_list (lhs, vs) in
    if negated then A.Not p else p

and is_subquery_at st pos =
  pos < Array.length st.toks && match st.toks.(pos) with L.KW K.SELECT -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* FROM clause                                                          *)
(* ------------------------------------------------------------------ *)

and parse_from_item st : A.from_entry * scope_entry =
  match peek st with
  | L.LPAREN ->
      advance st;
      let q = parse_query st in
      expect st L.RPAREN;
      ignore (accept_kw st K.AS);
      let orig = ident st in
      let actual = fresh_alias st orig in
      let cols = A.query_select_names q in
      ( { A.fe_alias = actual; fe_source = A.S_view q; fe_kind = A.J_inner; fe_cond = [] },
        { sc_orig = orig; sc_actual = actual; sc_cols = cols } )
  | L.IDENT tname ->
      advance st;
      let def =
        match Catalog.find_table_opt st.cat tname with
        | Some def -> def
        | None -> fail st (Printf.sprintf "unknown table %s" tname)
      in
      let orig =
        ignore (accept_kw st K.AS);
        match peek st with L.IDENT _ -> ident st | _ -> tname
      in
      let actual = fresh_alias st orig in
      let cols = List.map (fun c -> c.Catalog.c_name) def.Catalog.t_cols in
      ( { A.fe_alias = actual; fe_source = A.S_table tname; fe_kind = A.J_inner; fe_cond = [] },
        { sc_orig = orig; sc_actual = actual; sc_cols = cols } )
  | t -> fail st (Printf.sprintf "expected table or subquery in FROM, found %s" (L.token_str t))

and parse_from st : A.from_entry list =
  (* current frame is the head of st.scopes; entries are appended so
     later items (and ON / WHERE clauses) can see earlier ones *)
  let push_scope sc =
    match st.scopes with
    | frame :: rest -> st.scopes <- (frame @ [ sc ]) :: rest
    | [] -> assert false
  in
  let first, sc1 = parse_from_item st in
  push_scope sc1;
  let items = ref [ first ] in
  let continue = ref true in
  while !continue do
    match peek st with
    | L.COMMA ->
        advance st;
        let fe, sc = parse_from_item st in
        push_scope sc;
        items := fe :: !items
    | L.KW K.CROSS ->
        advance st;
        expect_kw st K.JOIN;
        let fe, sc = parse_from_item st in
        push_scope sc;
        items := fe :: !items
    | L.KW (K.JOIN | K.INNER | K.LEFT | K.SEMI | K.ANTI) -> (
        let kind =
          if accept_kw st K.LEFT then (
            ignore (accept_kw st K.OUTER);
            A.J_left)
          else if accept_kw st K.SEMI then A.J_semi
          else if accept_kw st K.ANTI then A.J_anti
          else (
            ignore (accept_kw st K.INNER);
            A.J_inner)
        in
        expect_kw st K.JOIN;
        let fe, sc = parse_from_item st in
        push_scope sc;
        expect_kw st K.ON;
        let cond = parse_pred st in
        match kind with
        | A.J_inner ->
            (* inner-join ON conditions go to WHERE; record for caller *)
            items := { fe with A.fe_kind = A.J_inner } :: !items;
            st.pending_on <- A.conjuncts cond @ st.pending_on
        | k -> items := { fe with A.fe_kind = k; fe_cond = A.conjuncts cond } :: !items)
    | _ -> continue := false
  done;
  List.rev !items

(* ------------------------------------------------------------------ *)
(* Query blocks                                                         *)
(* ------------------------------------------------------------------ *)

and parse_block st : A.block =
  expect_kw st K.SELECT;
  let distinct = accept_kw st K.DISTINCT in
  (* select items are parsed AFTER the FROM clause so names resolve;
     remember their token span and re-parse *)
  let sel_start = st.pos in
  (* skip to FROM at depth 0 *)
  let depth = ref 0 in
  let continue = ref true in
  while !continue do
    (match peek st with
    | L.LPAREN -> incr depth
    | L.RPAREN -> decr depth
    | L.KW K.FROM when !depth = 0 -> continue := false
    | L.EOF -> fail st "expected FROM"
    | _ -> ());
    if !continue then advance st
  done;
  let sel_end = st.pos in
  expect_kw st K.FROM;
  st.scopes <- [] :: st.scopes;
  let saved_pending = st.pending_on in
  st.pending_on <- [];
  let from = parse_from st in
  let on_conds = st.pending_on in
  st.pending_on <- saved_pending;
  (* now parse the deferred select list *)
  let after_from = st.pos in
  st.pos <- sel_start;
  let select = parse_select_items st ~stop:sel_end in
  st.pos <- after_from;
  let where_conjs =
    if accept_kw st K.WHERE then A.conjuncts (parse_pred st) else []
  in
  let is_rownum = function
    | A.Col { A.c_alias = "$rownum"; _ } -> true
    | _ -> false
  in
  let limit = ref None in
  let where = ref [] in
  List.iter
    (fun p ->
      match p with
      | A.Cmp (A.Le, e, A.Const (Value.Int n)) when is_rownum e ->
          limit := Some n
      | A.Cmp (A.Lt, e, A.Const (Value.Int n)) when is_rownum e ->
          limit := Some (n - 1)
      | _ ->
          if
            List.exists
              (fun c -> String.equal c.A.c_alias "$rownum")
              (Walk.pred_cols ~deep:false p)
          then fail st "ROWNUM is only supported as ROWNUM < n / ROWNUM <= n"
          else where := p :: !where)
    where_conjs;
  let where = ref (List.rev !where) in
  let group_by =
    if accept_kw st K.GROUP then (
      expect_kw st K.BY;
      parse_expr_list st)
    else []
  in
  let having = if accept_kw st K.HAVING then A.conjuncts (parse_pred st) else [] in
  let order_by =
    if accept_kw st K.ORDER then (
      expect_kw st K.BY;
      parse_order_list st)
    else []
  in
  st.scopes <- List.tl st.scopes;
  {
    A.qb_name = fresh_qb st;
    select;
    distinct;
    from;
    where = on_conds @ !where;
    group_by;
    having;
    order_by;
    limit = !limit;
  }

and parse_select_items st ~stop : A.sel_item list =
  let items = ref [] in
  let counter = ref 0 in
  let auto_name e =
    incr counter;
    match e with
    | A.Col c -> c.A.c_col
    | _ -> "c" ^ string_of_int !counter
  in
  let rec go () =
    if st.pos >= stop then ()
    else (
      (match peek st with
      | L.STAR ->
          advance st;
          (* expand all columns of the current frame *)
          let frame = List.hd st.scopes in
          List.iter
            (fun sc ->
              List.iter
                (fun col ->
                  items := { A.si_expr = A.col sc.sc_actual col; si_name = col } :: !items)
                sc.sc_cols)
            frame
      | L.IDENT a when peek2 st == L.DOT && st.pos + 2 < stop
                       && st.toks.(st.pos + 2) == L.STAR ->
          advance st;
          advance st;
          advance st;
          let frame = List.hd st.scopes in
          let sc =
            match
              List.find_opt
                (fun e -> String.equal e.sc_orig a || String.equal e.sc_actual a)
                frame
            with
            | Some sc -> sc
            | None -> fail st (Printf.sprintf "unknown alias %s" a)
          in
          List.iter
            (fun col ->
              items := { A.si_expr = A.col sc.sc_actual col; si_name = col } :: !items)
            sc.sc_cols
      | _ ->
          let e = parse_expr st in
          let name =
            if accept_kw st K.AS then ident st
            else
              match peek st with
              | L.IDENT n when st.pos < stop ->
                  advance st;
                  n
              | _ -> auto_name e
          in
          items := { A.si_expr = e; si_name = name } :: !items);
      if st.pos < stop && accept st L.COMMA then go ())
  in
  go ();
  if List.is_empty !items then fail st "empty select list";
  (* de-duplicate output names *)
  let seen = ref Names.empty in
  List.rev_map
    (fun it ->
      let name = unique !seen it.A.si_name in
      seen := Names.add name !seen;
      { it with A.si_name = name })
    !items

(* ------------------------------------------------------------------ *)
(* Set operations                                                       *)
(* ------------------------------------------------------------------ *)

and parse_query st : A.query =
  let lhs = ref (parse_query_primary st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | L.KW K.UNION ->
        advance st;
        let op = if accept_kw st K.ALL then A.Union_all else A.Union in
        lhs := A.Setop (op, !lhs, parse_query_primary st)
    | L.KW K.INTERSECT ->
        advance st;
        lhs := A.Setop (A.Intersect, !lhs, parse_query_primary st)
    | L.KW K.MINUS ->
        advance st;
        lhs := A.Setop (A.Minus, !lhs, parse_query_primary st)
    | _ -> continue := false
  done;
  !lhs

and parse_query_primary st : A.query =
  match peek st with
  | L.KW K.SELECT -> A.Block (parse_block st)
  | L.LPAREN ->
      advance st;
      let q = parse_query st in
      expect st L.RPAREN;
      q
  | t -> fail st (Printf.sprintf "expected SELECT, found %s" (L.token_str t))

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)
(* ------------------------------------------------------------------ *)

let parse_exn (cat : Catalog.t) (sql : string) : A.query =
  let toks, offs =
    try L.tokenize sql
    with L.Lex_error (msg, pos) ->
      raise (Parse_error (Printf.sprintf "%s (at offset %d)" msg pos))
  in
  let st =
    {
      cat;
      toks;
      offs;
      pos = 0;
      scopes = [];
      used = Names.empty;
      qb_counter = 0;
      pending_on = [];
    }
  in
  let q = parse_query st in
  (match peek st with
  | L.EOF -> ()
  | t -> fail st (Printf.sprintf "trailing input: %s" (L.token_str t)));
  q

let parse (cat : Catalog.t) (sql : string) : (A.query, string) result =
  match parse_exn cat sql with
  | q -> Ok q
  | exception Parse_error msg -> Error msg
