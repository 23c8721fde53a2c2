(** The query-tree intermediate representation.

    Following the paper (Section 2), transformations operate on {e query
    trees}, which "retain all the declarativeness of SQL" — as opposed to
    algebraic operator trees, which the physical optimizer produces. A
    query is a tree of set operations over {e query blocks}; a query block
    has SELECT / FROM / WHERE / GROUP BY / HAVING / ORDER BY / ROWNUM
    clauses, and FROM entries may be base tables or views (derived
    tables), each carrying a join role.

    Non-inner join roles ([J_semi], [J_anti], [J_anti_na], [J_left])
    mark the FROM entry as the {e right} input of a non-commutative join
    whose ON-conjuncts live in [fe_cond]; the physical optimizer enforces
    the partial order the paper describes for semijoin/antijoin/outerjoin
    (Section 2.1.1). *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge
type arith = Add | Sub | Mul | Div
type dir = Asc | Desc
type setop = Union_all | Union | Intersect | Minus
type agg = Count_star | Count | Sum | Avg | Min | Max

(** Quantifier of a comparison against a subquery: [SOME]/[ANY] or [ALL]. *)
type quant = Q_any | Q_all

type col = { c_alias : string; c_col : string }

type expr =
  | Const of Value.t
  | Bind of int * Value.t
      (** bind marker: 0-based position in the bind vector, plus the
          {e peeked} value the plan was compiled under. A bind is an
          unknown-but-execution-constant value: the optimizer may use
          the peek for {e estimates} (bind peeking), but never for
          legality or constant folding — a later execution may supply a
          different value, including NULL. *)
  | Col of col
  | Binop of arith * expr * expr
  | Neg of expr
  | Agg of agg * expr option * bool  (** aggregate; [bool] = DISTINCT *)
  | Win of agg * expr option * win  (** ANSI window function (Section 2.1.3) *)
  | Fn of string * expr list  (** scalar function; may be user-defined *)
  | Case of (pred * expr) list * expr option

and win = { w_pby : expr list; w_oby : (expr * dir) list }

and pred =
  | True
  | False
  | Cmp of cmp * expr * expr
  | Between of expr * expr * expr
  | Is_null of expr
  | Not of pred
  | Lnnvl of pred
      (** Oracle's LNNVL: true iff the argument is false or UNKNOWN.
          Used by disjunction-into-UNION-ALL expansion (Section 2.2.8)
          to keep branches disjoint without losing UNKNOWN rows. *)
  | And of pred * pred
  | Or of pred * pred
  | In_list of expr * Value.t list
  | In_subq of expr list * query  (** IN / = ANY *)
  | Not_in_subq of expr list * query  (** NOT IN / <> ALL *)
  | Exists of query
  | Not_exists of query
  | Cmp_subq of cmp * expr * quant option * query
      (** comparison with a subquery; [None] quantifier = scalar subquery *)
  | Pred_fn of string * expr list  (** boolean (possibly expensive) function *)

and source = S_table of string | S_view of query

(** One FROM entry. [fe_kind] is the join role of this entry with respect
    to the entries that must precede it; [fe_cond] holds the ON-condition
    conjuncts for non-inner roles (inner-join conjuncts live in the
    block's WHERE). *)
and from_entry = {
  fe_alias : string;
  fe_source : source;
  fe_kind : jkind;
  fe_cond : pred list;
}

and jkind =
  | J_inner
  | J_left  (** left outer join; this entry is the null-padded side *)
  | J_semi
  | J_anti
  | J_anti_na  (** null-aware antijoin, for NOT IN over nullable columns *)

and sel_item = { si_expr : expr; si_name : string }

and block = {
  qb_name : string;  (** label used in explain output and fingerprints *)
  select : sel_item list;
  distinct : bool;
  from : from_entry list;
  where : pred list;  (** conjuncts *)
  group_by : expr list;
  having : pred list;  (** conjuncts *)
  order_by : (expr * dir) list;
  limit : int option;  (** ROWNUM <= n in the containing query (Section 2.2.6) *)
}

and query = Block of block | Setop of setop * query * query

let empty_block name =
  {
    qb_name = name;
    select = [];
    distinct = false;
    from = [];
    where = [];
    group_by = [];
    having = [];
    order_by = [];
    limit = None;
  }

let col a c = Col { c_alias = a; c_col = c }

let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | True -> []
  | p -> [ p ]

let conj = function
  | [] -> True
  | p :: ps -> List.fold_left (fun acc q -> And (acc, q)) p ps

let rec disjuncts = function Or (a, b) -> disjuncts a @ disjuncts b | p -> [ p ]

let is_inner fe = fe.fe_kind = J_inner

(** All blocks of a set-operation tree, left to right. *)
let rec leaves = function
  | Block b -> [ b ]
  | Setop (_, l, r) -> leaves l @ leaves r

let query_select_names q =
  match leaves q with
  | b :: _ -> List.map (fun si -> si.si_name) b.select
  | [] -> []
