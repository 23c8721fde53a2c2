(** Synthetic query generation.

    Reproduces the paper's workload mix (Section 4): most queries are
    simple SPJ; a small fraction carries the constructs the cost-based
    transformations apply to — subqueries (EXISTS / NOT EXISTS / IN /
    NOT IN / correlated aggregates), GROUP BY and DISTINCT views,
    UNION ALL with common join tables, disjunctions, MINUS/INTERSECT,
    and ROWNUM blocks over expensive predicates. Each generator draws
    tables from one application family and parameterizes filters with
    random selectivities. *)

open Sqlir
module A = Ast
module V = Value
module S = Schema_gen

type qclass =
  | C_spj
  | C_exists  (** single-table EXISTS: heuristic semijoin merge *)
  | C_not_exists
  | C_in_multi  (** multi-table IN: cost-based view unnesting *)
  | C_not_in
  | C_agg_subq  (** Q1-style correlated aggregate subquery *)
  | C_gb_view  (** group-by view joined to tables: merge / JPPD arena *)
  | C_distinct_view  (** Q12-style distinct view *)
  | C_union_factor  (** Q14-style UNION ALL with common tables *)
  | C_gbp  (** aggregation over a join: group-by placement *)
  | C_or  (** disjunctive predicates: OR expansion *)
  | C_setop  (** MINUS / INTERSECT *)
  | C_pullup  (** ROWNUM over a sorted view with an expensive predicate *)
  | C_pred_move
      (** constant filters on join columns and on a view output:
          predicate move-around. In no mix of this repository's
          workloads. *)

let class_name = function
  | C_spj -> "spj"
  | C_exists -> "exists"
  | C_not_exists -> "not-exists"
  | C_in_multi -> "in-multi"
  | C_not_in -> "not-in"
  | C_agg_subq -> "agg-subq"
  | C_gb_view -> "gb-view"
  | C_distinct_view -> "distinct-view"
  | C_union_factor -> "union-factor"
  | C_gbp -> "gbp"
  | C_or -> "or"
  | C_setop -> "setop"
  | C_pullup -> "pullup"
  | C_pred_move -> "pred-move"

type gen = {
  g_rng : Rng.t;
  g_schema : S.t;
  mutable g_qid : int;
  mutable g_alias : int;
}

let create ~seed (schema : S.t) =
  { g_rng = Rng.create seed; g_schema = schema; g_qid = 0; g_alias = 0 }

let fresh_alias g =
  g.g_alias <- g.g_alias + 1;
  Printf.sprintf "t%d" g.g_alias

let fresh_qb g =
  g.g_qid <- g.g_qid + 1;
  Printf.sprintf "w%d" g.g_qid

let c = A.col
let iconst n = A.Const (V.Int n)

let family g = Rng.pick g.g_rng g.g_schema.S.families

(* a random filter on a table alias, with selectivity knobs; tables
   with a declared alternate unique key occasionally get a point filter
   on it — a single-row selection the property inference can prove from
   the catalog constraints alone *)
let filter g (ti : S.tinfo) alias : A.pred =
  match ti.S.ti_alt_unique with
  | Some a when Rng.bool g.g_rng ~p:0.2 ->
      A.Cmp
        ( A.Eq,
          c alias a,
          iconst (S.alt_unique_value (Rng.int g.g_rng ti.S.ti_rows)) )
  | _ -> (
  match Rng.int g.g_rng 4 with
  | 0 ->
      let m = Rng.pick g.g_rng ti.S.ti_measures in
      A.Cmp (A.Gt, c alias m, iconst (Rng.range g.g_rng 1000 9000))
  | 1 ->
      let cat, ndv = Rng.pick g.g_rng ti.S.ti_cats in
      A.Cmp (A.Eq, c alias cat, iconst (Rng.int g.g_rng ndv))
  | 2 ->
      let s, dom = Rng.pick g.g_rng ti.S.ti_strs in
      A.Cmp (A.Eq, c alias s, A.Const (V.Str (Rng.pick g.g_rng dom)))
  | _ -> (
      match ti.S.ti_dates with
      | d :: _ ->
          A.Cmp
            (A.Gt, c alias d, A.Const (V.Date (10000 + Rng.int g.g_rng 2000)))
      | [] ->
          let m = Rng.pick g.g_rng ti.S.ti_measures in
          A.Cmp (A.Lt, c alias m, iconst (Rng.range g.g_rng 1000 9000))))

let tbl name alias =
  { A.fe_alias = alias; fe_source = A.S_table name; fe_kind = A.J_inner; fe_cond = [] }

(* pick a fact and a join path to referenced tables *)
let fact_of g (f : S.family) = Rng.pick g.g_rng f.S.fam_facts

(** Join [n] extra tables to a fact along its foreign keys. Returns
    (entries, join preds, (tinfo, alias) list with the fact first). *)
let join_chain g (f : S.family) (fact : S.tinfo) (n : int) =
  let fact_alias = fresh_alias g in
  let targets = Rng.sample g.g_rng n fact.S.ti_fks in
  let lookup name =
    List.find
      (fun ti -> String.equal ti.S.ti_name name)
      (f.S.fam_dims @ [ f.S.fam_mid ] @ f.S.fam_facts)
  in
  let joined =
    List.map
      (fun (col, ref_t, _) ->
        let ti = lookup ref_t in
        let alias = fresh_alias g in
        (ti, alias, A.Cmp (A.Eq, c fact_alias col, c alias "id")))
      targets
  in
  let entries =
    tbl fact.S.ti_name fact_alias
    :: List.map (fun (ti, alias, _) -> tbl ti.S.ti_name alias) joined
  in
  let preds = List.map (fun (_, _, p) -> p) joined in
  (entries, preds, (fact, fact_alias) :: List.map (fun (ti, a, _) -> (ti, a)) joined)

let select_some g (tabs : (S.tinfo * string) list) =
  let items =
    List.concat_map
      (fun (ti, alias) ->
        let m = List.hd ti.S.ti_measures in
        if Rng.bool g.g_rng ~p:0.6 then [ (alias, m) ] else [ (alias, ti.S.ti_pk) ])
      tabs
  in
  List.mapi
    (fun i (alias, col) ->
      { A.si_expr = c alias col; si_name = Printf.sprintf "o%d" i })
    items

(* ------------------------------------------------------------------ *)
(* Per-class generators                                                 *)
(* ------------------------------------------------------------------ *)

let gen_spj g : A.query =
  let f = family g in
  let fact = fact_of g f in
  let n = Rng.int g.g_rng (1 + List.length fact.S.ti_fks) in
  let entries, joins, tabs = join_chain g f fact n in
  let filters =
    List.concat_map
      (fun (ti, alias) ->
        if Rng.bool g.g_rng ~p:0.6 then [ filter g ti alias ] else [])
      tabs
  in
  A.Block
    {
      (A.empty_block (fresh_qb g)) with
      A.select = select_some g tabs;
      from = entries;
      where = joins @ filters;
    }

(* single-table EXISTS / NOT EXISTS over a fact, correlated to a dim or
   mid table *)
let gen_exists g ~negated : A.query =
  let f = family g in
  let fact = fact_of g f in
  let fk_col, ref_name, _ = Rng.pick g.g_rng fact.S.ti_fks in
  let outer_ti =
    List.find
      (fun ti -> String.equal ti.S.ti_name ref_name)
      (f.S.fam_dims @ [ f.S.fam_mid ])
  in
  let o = fresh_alias g and i = fresh_alias g in
  let sub =
    A.Block
      {
        (A.empty_block (fresh_qb g)) with
        A.select = [ { A.si_expr = iconst 1; si_name = "one" } ];
        from = [ tbl fact.S.ti_name i ];
        where = [ A.Cmp (A.Eq, c i fk_col, c o "id"); filter g fact i ];
      }
  in
  let p = if negated then A.Not_exists sub else A.Exists sub in
  A.Block
    {
      (A.empty_block (fresh_qb g)) with
      A.select = [ { A.si_expr = c o "id"; si_name = "o0" } ];
      from = [ tbl outer_ti.S.ti_name o ];
      where = (p :: (if Rng.bool g.g_rng ~p:0.7 then [ filter g outer_ti o ] else []));
    }

(* multi-table IN / NOT IN subquery (cost-based view unnesting) *)
let gen_in_multi g ~negated : A.query =
  let f = family g in
  let fact = fact_of g f in
  let o = fresh_alias g in
  let mid = f.S.fam_mid in
  let dim = List.hd f.S.fam_dims in
  let m = fresh_alias g and d = fresh_alias g in
  let mid_fk_col, _, _ = List.hd mid.S.ti_fks in
  let sub =
    A.Block
      {
        (A.empty_block (fresh_qb g)) with
        A.select = [ { A.si_expr = c m "id"; si_name = "id" } ];
        from = [ tbl mid.S.ti_name m; tbl dim.S.ti_name d ];
        where = [ A.Cmp (A.Eq, c m mid_fk_col, c d "id"); filter g dim d ];
      }
  in
  let lhs = [ c o "mid_id" ] in
  let p = if negated then A.Not_in_subq (lhs, sub) else A.In_subq (lhs, sub) in
  A.Block
    {
      (A.empty_block (fresh_qb g)) with
      A.select = [ { A.si_expr = c o "m1"; si_name = "o0" } ];
      from = [ tbl fact.S.ti_name o ];
      where = (p :: (if Rng.bool g.g_rng ~p:0.6 then [ filter g fact o ] else []));
    }

(* Q1-style: above-average measure within the correlation group *)
let gen_agg_subq g : A.query =
  let f = family g in
  let fact = fact_of g f in
  let fk_col, _, _ = Rng.pick g.g_rng fact.S.ti_fks in
  let o = fresh_alias g and i = fresh_alias g in
  let m = List.hd fact.S.ti_measures in
  let sub =
    A.Block
      {
        (A.empty_block (fresh_qb g)) with
        A.select =
          [ { A.si_expr = A.Agg (A.Avg, Some (c i m), false); si_name = "a" } ];
        from = [ tbl fact.S.ti_name i ];
        where = [ A.Cmp (A.Eq, c i fk_col, c o fk_col) ];
      }
  in
  A.Block
    {
      (A.empty_block (fresh_qb g)) with
      A.select = [ { A.si_expr = c o "id"; si_name = "o0" } ];
      from = [ tbl fact.S.ti_name o ];
      where =
        A.Cmp_subq (A.Gt, c o m, None, sub)
        :: (if Rng.bool g.g_rng ~p:0.75 then [ filter g fact o ] else []);
    }

(* group-by view joined to its dimension *)
let gen_gb_view g : A.query =
  let f = family g in
  let fact = fact_of g f in
  let fk_col, ref_name, _ = Rng.pick g.g_rng fact.S.ti_fks in
  let dim_ti =
    List.find
      (fun ti -> String.equal ti.S.ti_name ref_name)
      (f.S.fam_dims @ [ f.S.fam_mid ] @ f.S.fam_facts)
  in
  let fa = fresh_alias g and da = fresh_alias g and v = fresh_alias g in
  let m = List.hd fact.S.ti_measures in
  let view =
    A.Block
      {
        (A.empty_block (fresh_qb g)) with
        A.select =
          [
            { A.si_expr = c fa fk_col; si_name = "k" };
            { A.si_expr = A.Agg (A.Avg, Some (c fa m), false); si_name = "avg_m" };
            { A.si_expr = A.Agg (A.Count_star, None, false); si_name = "cnt" };
          ];
        from = [ tbl fact.S.ti_name fa ];
        where = (if Rng.bool g.g_rng ~p:0.5 then [ filter g fact fa ] else []);
        group_by = [ c fa fk_col ];
      }
  in
  A.Block
    {
      (A.empty_block (fresh_qb g)) with
      A.select =
        [
          { A.si_expr = c da "id"; si_name = "o0" };
          { A.si_expr = c v "avg_m"; si_name = "o1" };
        ];
      from =
        [
          tbl dim_ti.S.ti_name da;
          { A.fe_alias = v; fe_source = A.S_view view; fe_kind = A.J_inner; fe_cond = [] };
        ];
      where =
        [ A.Cmp (A.Eq, c da "id", c v "k"); filter g dim_ti da ];
    }

(* Predicate move-around arena: an SPJ view over a fact, joined in the
   parent to a table the fact references. A constant filter on the
   parent's join column gives transitive generation a restriction to
   carry across the join, and a parent filter on a view output gives
   pushdown one to move into the view. *)
let gen_pred_move g : A.query =
  let f = family g in
  let fact = fact_of g f in
  let fk_col, ref_name, _ = Rng.pick g.g_rng fact.S.ti_fks in
  let ref_ti =
    List.find
      (fun ti -> String.equal ti.S.ti_name ref_name)
      (f.S.fam_dims @ [ f.S.fam_mid ] @ f.S.fam_facts)
  in
  let fa = fresh_alias g and ra = fresh_alias g and v = fresh_alias g in
  let m = List.hd fact.S.ti_measures in
  let view =
    A.Block
      {
        (A.empty_block (fresh_qb g)) with
        A.select =
          [
            { A.si_expr = c fa fk_col; si_name = "k" };
            { A.si_expr = c fa m; si_name = "m" };
          ];
        from = [ tbl fact.S.ti_name fa ];
        where = (if Rng.bool g.g_rng ~p:0.5 then [ filter g fact fa ] else []);
      }
  in
  let op = Rng.pick g.g_rng [ A.Lt; A.Gt; A.Le; A.Eq ] in
  A.Block
    {
      (A.empty_block (fresh_qb g)) with
      A.select =
        [
          { A.si_expr = c ra "id"; si_name = "o0" };
          { A.si_expr = c v "m"; si_name = "o1" };
        ];
      from =
        [
          tbl ref_ti.S.ti_name ra;
          { A.fe_alias = v; fe_source = A.S_view view; fe_kind = A.J_inner; fe_cond = [] };
        ];
      where =
        [
          A.Cmp (A.Eq, c ra "id", c v "k");
          A.Cmp (op, c ra "id", iconst (1 + Rng.int g.g_rng ref_ti.S.ti_rows));
          A.Cmp (A.Gt, c v "m", iconst (Rng.range g.g_rng 1000 9000));
        ];
    }

(* Q12-style distinct view *)
let gen_distinct_view g : A.query =
  let f = family g in
  let fact = fact_of g f in
  let mid = f.S.fam_mid in
  let dim = List.hd f.S.fam_dims in
  let fa = fresh_alias g and ma = fresh_alias g and da = fresh_alias g in
  let v = fresh_alias g in
  let mid_fk, _, _ = List.hd mid.S.ti_fks in
  let view =
    A.Block
      {
        (A.empty_block (fresh_qb g)) with
        A.select = [ { A.si_expr = c ma "id"; si_name = "mid_id" } ];
        distinct = true;
        from = [ tbl mid.S.ti_name ma; tbl dim.S.ti_name da ];
        where = [ A.Cmp (A.Eq, c ma mid_fk, c da "id"); filter g dim da ];
      }
  in
  A.Block
    {
      (A.empty_block (fresh_qb g)) with
      A.select = [ { A.si_expr = c fa "m1"; si_name = "o0" } ];
      from =
        [
          tbl fact.S.ti_name fa;
          { A.fe_alias = v; fe_source = A.S_view view; fe_kind = A.J_inner; fe_cond = [] };
        ];
      where =
        [ A.Cmp (A.Eq, c fa "mid_id", c v "mid_id") ]
        @ (if Rng.bool g.g_rng ~p:0.7 then [ filter g fact fa ] else []);
    }

(* Q14-style UNION ALL sharing a join table *)
let gen_union_factor g : A.query =
  let f = family g in
  let fact = fact_of g f in
  let fk_col, ref_name, _ = List.hd fact.S.ti_fks in
  let ref_ti =
    List.find
      (fun ti -> String.equal ti.S.ti_name ref_name)
      (f.S.fam_dims @ [ f.S.fam_mid ] @ f.S.fam_facts)
  in
  let m = List.hd fact.S.ti_measures in
  let branch lo hi =
    let fa = fresh_alias g and ra = fresh_alias g in
    A.Block
      {
        (A.empty_block (fresh_qb g)) with
        A.select =
          [
            { A.si_expr = c fa m; si_name = "o0" };
            { A.si_expr = c ra (List.hd ref_ti.S.ti_measures); si_name = "o1" };
          ];
        from = [ tbl fact.S.ti_name fa; tbl ref_ti.S.ti_name ra ];
        where =
          [
            A.Cmp (A.Eq, c fa fk_col, c ra "id");
            A.Between (c fa m, iconst lo, iconst hi);
          ];
      }
  in
  let cut1 = Rng.range g.g_rng 1500 4000 in
  let cut2 = Rng.range g.g_rng 6000 8500 in
  A.Setop (A.Union_all, branch 0 cut1, branch cut2 9999)

(* aggregation over a join: group-by placement arena *)
let gen_gbp g : A.query =
  let f = family g in
  let fact = fact_of g f in
  let fk_col, ref_name, _ = Rng.pick g.g_rng fact.S.ti_fks in
  let ref_ti =
    List.find
      (fun ti -> String.equal ti.S.ti_name ref_name)
      (f.S.fam_dims @ [ f.S.fam_mid ] @ f.S.fam_facts)
  in
  let fa = fresh_alias g and ra = fresh_alias g in
  let m = List.hd fact.S.ti_measures in
  let gcat, _ = List.hd ref_ti.S.ti_cats in
  A.Block
    {
      (A.empty_block (fresh_qb g)) with
      A.select =
        [
          { A.si_expr = c ra gcat; si_name = "o0" };
          { A.si_expr = A.Agg (A.Sum, Some (c fa m), false); si_name = "o1" };
          { A.si_expr = A.Agg (A.Count_star, None, false); si_name = "o2" };
        ];
      from = [ tbl fact.S.ti_name fa; tbl ref_ti.S.ti_name ra ];
      where =
        [ A.Cmp (A.Eq, c fa fk_col, c ra "id") ]
        @ (if Rng.bool g.g_rng ~p:0.5 then [ filter g ref_ti ra ] else []);
      group_by = [ c ra gcat ];
    }

(* disjunctive predicate over a join *)
let gen_or g : A.query =
  let f = family g in
  let fact = fact_of g f in
  let fk_col, ref_name, _ = List.hd fact.S.ti_fks in
  let ref_ti =
    List.find
      (fun ti -> String.equal ti.S.ti_name ref_name)
      (f.S.fam_dims @ [ f.S.fam_mid ] @ f.S.fam_facts)
  in
  let fa = fresh_alias g and ra = fresh_alias g in
  A.Block
    {
      (A.empty_block (fresh_qb g)) with
      A.select = [ { A.si_expr = c fa "id"; si_name = "o0" } ];
      from = [ tbl fact.S.ti_name fa; tbl ref_ti.S.ti_name ra ];
      where =
        [
          A.Cmp (A.Eq, c fa fk_col, c ra "id");
          A.Or (filter g fact fa, filter g ref_ti ra);
        ];
    }

(* MINUS / INTERSECT of two compatible selects *)
let gen_setop g : A.query =
  let f = family g in
  let fact = fact_of g f in
  let col = "mid_id" in
  let branch () =
    let fa = fresh_alias g in
    A.Block
      {
        (A.empty_block (fresh_qb g)) with
        A.select = [ { A.si_expr = c fa col; si_name = "o0" } ];
        from = [ tbl fact.S.ti_name fa ];
        where = [ filter g fact fa ];
      }
  in
  let op = if Rng.bool g.g_rng ~p:0.5 then A.Minus else A.Intersect in
  A.Setop (op, branch (), branch ())

(* ROWNUM over a sorted view with an expensive predicate *)
let gen_pullup g : A.query =
  let f = family g in
  let fact = fact_of g f in
  let fa = fresh_alias g and v = fresh_alias g in
  let m = List.hd fact.S.ti_measures in
  let view =
    A.Block
      {
        (A.empty_block (fresh_qb g)) with
        A.select =
          [
            { A.si_expr = c fa "id"; si_name = "id" };
            { A.si_expr = c fa m; si_name = "m" };
          ];
        from = [ tbl fact.S.ti_name fa ];
        where =
          [
            A.Pred_fn
              ("expensive_check", [ c fa "id"; iconst (Rng.int g.g_rng 7) ]);
          ];
        order_by = [ (c fa m, A.Desc) ];
      }
  in
  A.Block
    {
      (A.empty_block (fresh_qb g)) with
      A.select = [ { A.si_expr = c v "id"; si_name = "o0" } ];
      from =
        [ { A.fe_alias = v; fe_source = A.S_view view; fe_kind = A.J_inner; fe_cond = [] } ];
      limit = Some (Rng.range g.g_rng 5 20);
    }

let generate (g : gen) (cls : qclass) : A.query =
  match cls with
  | C_spj -> gen_spj g
  | C_exists -> gen_exists g ~negated:false
  | C_not_exists -> gen_exists g ~negated:true
  | C_in_multi -> gen_in_multi g ~negated:false
  | C_not_in -> gen_in_multi g ~negated:true
  | C_agg_subq -> gen_agg_subq g
  | C_gb_view -> gen_gb_view g
  | C_distinct_view -> gen_distinct_view g
  | C_union_factor -> gen_union_factor g
  | C_gbp -> gen_gbp g
  | C_or -> gen_or g
  | C_setop -> gen_setop g
  | C_pullup -> gen_pullup g
  | C_pred_move -> gen_pred_move g

(** The paper's mix: ~92% plain SPJ, ~8% transformable constructs. *)
let default_mix : (qclass * float) list =
  [
    (C_spj, 0.92);
    (C_exists, 0.012);
    (C_not_exists, 0.006);
    (C_in_multi, 0.01);
    (C_not_in, 0.006);
    (C_agg_subq, 0.012);
    (C_gb_view, 0.008);
    (C_distinct_view, 0.006);
    (C_union_factor, 0.005);
    (C_gbp, 0.008);
    (C_or, 0.003);
    (C_setop, 0.002);
    (C_pullup, 0.002);
  ]

let pick_class g (mix : (qclass * float) list) : qclass =
  let u = Rng.float g.g_rng in
  let rec go acc = function
    | [] -> C_spj
    | (cls, p) :: rest -> if u < acc +. p then cls else go (acc +. p) rest
  in
  go 0. mix

type item = { it_id : int; it_class : qclass; it_query : A.query }

(** Generate [n] queries with the given class mix. *)
let workload ?(mix = default_mix) (g : gen) (n : int) : item list =
  List.init n (fun i ->
      g.g_alias <- 0;
      let cls = pick_class g mix in
      { it_id = i; it_class = cls; it_query = generate g cls })
