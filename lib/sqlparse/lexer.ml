(** Hand-written SQL lexer.

    Produces the token array for the recursive-descent {!Parser}.
    Keywords are case-insensitive and come out as a typed {!Kw.t};
    identifiers are lower-cased (the IR uses lower-case names
    throughout). String literals use single quotes with [''] escaping,
    Oracle style.

    Each word is lower-cased once and recognized by one [match] on the
    string, which compiles to a binary search; there is no keyword
    list to scan and no polymorphic comparison. The lexer keeps no
    state between calls. *)

module Kw = struct
  type t =
    | SELECT | DISTINCT | FROM | WHERE | GROUP | BY | HAVING | ORDER | ASC
    | DESC | AND | OR | NOT | IN | EXISTS | BETWEEN | IS | NULL | LIKE | AS
    | ON | JOIN | LEFT | RIGHT | INNER | OUTER | UNION | ALL | INTERSECT
    | MINUS | ANY | SOME | CASE | WHEN | THEN | ELSE | END | COUNT | SUM | AVG
    | MIN | MAX | OVER | PARTITION | ROWNUM | TRUE | FALSE | DATE | CROSS
    | SEMI | ANTI

  let name = function
    | SELECT -> "SELECT" | DISTINCT -> "DISTINCT" | FROM -> "FROM"
    | WHERE -> "WHERE" | GROUP -> "GROUP" | BY -> "BY" | HAVING -> "HAVING"
    | ORDER -> "ORDER" | ASC -> "ASC" | DESC -> "DESC" | AND -> "AND"
    | OR -> "OR" | NOT -> "NOT" | IN -> "IN" | EXISTS -> "EXISTS"
    | BETWEEN -> "BETWEEN" | IS -> "IS" | NULL -> "NULL" | LIKE -> "LIKE"
    | AS -> "AS" | ON -> "ON" | JOIN -> "JOIN" | LEFT -> "LEFT"
    | RIGHT -> "RIGHT" | INNER -> "INNER" | OUTER -> "OUTER" | UNION -> "UNION"
    | ALL -> "ALL" | INTERSECT -> "INTERSECT" | MINUS -> "MINUS" | ANY -> "ANY"
    | SOME -> "SOME" | CASE -> "CASE" | WHEN -> "WHEN" | THEN -> "THEN"
    | ELSE -> "ELSE" | END -> "END" | COUNT -> "COUNT" | SUM -> "SUM"
    | AVG -> "AVG" | MIN -> "MIN" | MAX -> "MAX" | OVER -> "OVER"
    | PARTITION -> "PARTITION" | ROWNUM -> "ROWNUM" | TRUE -> "TRUE"
    | FALSE -> "FALSE" | DATE -> "DATE" | CROSS -> "CROSS" | SEMI -> "SEMI"
    | ANTI -> "ANTI"
end

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | KW of Kw.t
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | STAR
  | PLUS
  | MINUS
  | SLASH
  | EQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | BIND of int  (** [:n] positional bind marker, 1-based in the text *)
  | EOF

exception Lex_error of string * int  (** message, position *)

(* [w] is lower-case *)
let word_token w =
  Kw.(
    match w with
    | "select" -> KW SELECT | "distinct" -> KW DISTINCT | "from" -> KW FROM
    | "where" -> KW WHERE | "group" -> KW GROUP | "by" -> KW BY
    | "having" -> KW HAVING | "order" -> KW ORDER | "asc" -> KW ASC
    | "desc" -> KW DESC | "and" -> KW AND | "or" -> KW OR | "not" -> KW NOT
    | "in" -> KW IN | "exists" -> KW EXISTS | "between" -> KW BETWEEN
    | "is" -> KW IS | "null" -> KW NULL | "like" -> KW LIKE | "as" -> KW AS
    | "on" -> KW ON | "join" -> KW JOIN | "left" -> KW LEFT | "right" -> KW RIGHT
    | "inner" -> KW INNER | "outer" -> KW OUTER | "union" -> KW UNION
    | "all" -> KW ALL | "intersect" -> KW INTERSECT | "minus" -> KW MINUS
    | "any" -> KW ANY | "some" -> KW SOME | "case" -> KW CASE | "when" -> KW WHEN
    | "then" -> KW THEN | "else" -> KW ELSE | "end" -> KW END
    | "count" -> KW COUNT | "sum" -> KW SUM | "avg" -> KW AVG | "min" -> KW MIN
    | "max" -> KW MAX | "over" -> KW OVER | "partition" -> KW PARTITION
    | "rownum" -> KW ROWNUM | "true" -> KW TRUE | "false" -> KW FALSE
    | "date" -> KW DATE | "cross" -> KW CROSS | "semi" -> KW SEMI
    | "anti" -> KW ANTI | _ -> IDENT w)

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '$'
let is_digit c = c >= '0' && c <= '9'

(** The tokens of [src] and the offset of each, ending in [EOF]. *)
let tokenize (src : string) : token array * int array =
  let n = String.length src in
  let i = ref 0 in
  (* typical SQL has a token per three or four characters, so this
     rarely grows *)
  let toks = ref (Array.make ((n / 2) + 8) EOF) in
  let offs = ref (Array.make (Array.length !toks) 0) in
  let len = ref 0 in
  let emit t pos =
    if !len = Array.length !toks then (
      (* double; the second half is overwritten as tokens arrive *)
      toks := Array.append !toks !toks;
      offs := Array.append !offs !offs);
    !toks.(!len) <- t;
    !offs.(!len) <- pos;
    incr len
  in
  (* a two-character operator: skip its second character *)
  let emit2 t pos =
    incr i;
    emit t pos
  in
  let at k = if k < n then src.[k] else '\000' in
  (* the digits src[from, j), or a lexing error at [pos] *)
  let int_lit from j msg pos =
    match int_of_string_opt (String.sub src from (j - from)) with
    | Some v -> v
    | None -> raise (Lex_error (msg, pos))
  in
  while !i < n do
    let c = src.[!i] in
    let pos = !i in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '-' && at (!i + 1) = '-' then (
      (* line comment *)
      while !i < n && src.[!i] <> '\n' do
        incr i
      done)
    else if is_digit c then (
      let j = ref !i in
      while !j < n && is_digit src.[!j] do
        incr j
      done;
      if at !j = '.' && is_digit (at (!j + 1)) then (
        incr j;
        while !j < n && is_digit src.[!j] do
          incr j
        done;
        emit (FLOAT (float_of_string (String.sub src !i (!j - !i)))) pos)
      else emit (INT (int_lit pos !j "integer literal out of range" pos)) pos;
      i := !j)
    else if is_ident_start c then (
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do
        incr j
      done;
      let w = Bytes.create (!j - !i) in
      for k = 0 to !j - !i - 1 do
        Bytes.unsafe_set w k (Char.lowercase_ascii src.[!i + k])
      done;
      emit (word_token (Bytes.unsafe_to_string w)) pos;
      i := !j)
    else if c = '\'' then (
      let buf = Buffer.create 16 in
      let j = ref (!i + 1) in
      let closed = ref false in
      while (not !closed) && !j < n do
        if src.[!j] = '\'' then
          if at (!j + 1) = '\'' then (
            Buffer.add_char buf '\'';
            j := !j + 2)
          else (
            closed := true;
            incr j)
        else (
          Buffer.add_char buf src.[!j];
          incr j)
      done;
      if not !closed then raise (Lex_error ("unterminated string literal", pos));
      emit (STRING (Buffer.contents buf)) pos;
      i := !j)
    else (
      incr i;
      let next = at !i in
      match c with
      | '(' -> emit LPAREN pos
      | ')' -> emit RPAREN pos
      | ',' -> emit COMMA pos
      | '.' -> emit DOT pos
      | '*' -> emit STAR pos
      | '+' -> emit PLUS pos
      | '-' -> emit MINUS pos
      | '/' -> emit SLASH pos
      | '=' -> emit EQ pos
      | '<' when next = '>' -> emit2 NE pos
      | '<' when next = '=' -> emit2 LE pos
      | '<' -> emit LT pos
      | '>' when next = '=' -> emit2 GE pos
      | '>' -> emit GT pos
      | '!' when next = '=' -> emit2 NE pos
      | ':' ->
          let j = ref !i in
          while !j < n && is_digit src.[!j] do
            incr j
          done;
          if !j = !i then raise (Lex_error ("expected bind position after ':'", pos));
          emit (BIND (int_lit !i !j "bind position out of range" pos)) pos;
          i := !j
      | c -> raise (Lex_error (Printf.sprintf "unexpected character %c" c, pos)))
  done;
  emit EOF n;
  (Array.sub !toks 0 !len, Array.sub !offs 0 !len)

let token_str = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT n -> string_of_int n
  | FLOAT f -> string_of_float f
  | STRING s -> Printf.sprintf "'%s'" s
  | KW k -> Kw.name k
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | DOT -> "."
  | STAR -> "*"
  | PLUS -> "+"
  | MINUS -> "-"
  | SLASH -> "/"
  | EQ -> "="
  | NE -> "<>"
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | BIND n -> Printf.sprintf ":%d" n
  | EOF -> "<eof>"
