(** Per-query-block costing and the annotation store.

    The recursive heart of the physical optimizer: costs a query
    bottom-up per block (views and subqueries first), delegating join
    ordering to {!Join_enum} and access paths to {!Access_path}.

    Annotation lookup for a (sub)query runs a three-step chain
    (Section 3.4.2, extended with block-granular incremental costing):

    + {b identity}: if this exact node was costed before (any earlier
      state, same output alias), reuse without re-walking it. Because
      transformations preserve sharing, every block a search state did
      not touch hits here at O(1);
    + {b fingerprint}: structurally-equal but freshly allocated trees
      (e.g. a view two masks generate identically) hit the string cache
      at the cost of one pretty-print of the subtree;
    + {b optimize}: full per-block optimization, counted in
      {!Opt_stats} at {e completion} — an optimization aborted by the
      cost cut-off counts as started, not optimized.

    The transformation's dirty set ([Opt_ctx.dirty]) is advisory: a
    block it reports clean that still misses the identity cache is
    counted as a [dirty_miss] (a transformation is over-copying), then
    costed through the normal chain — never mis-costed. *)

open Sqlir
module A = Ast
module Info = Cost.Info
module Sel = Cost.Selectivity
module Model = Cost.Model
module Plan = Exec.Plan
module Sset = Walk.Sset
module Ctx = Opt_ctx
module Ap = Access_path
open Ap

let qb_name_of (q : A.query) : string option =
  match q with A.Block b -> Some b.A.qb_name | A.Setop _ -> None

let rec optimize_query (t : Ctx.t) ~(outer : Info.rel_info)
    ~(out_alias : string) (q : A.query) : Annotation.t =
  match
    if Ctx.memo_enabled t then Ctx.ident_find t ~out_alias q else None
  with
  | Some ann ->
      t.Ctx.stats.Opt_stats.ident_hits <-
        t.Ctx.stats.Opt_stats.ident_hits + 1;
      ann
  | None ->
      (* advisory dirty-set accounting: a block the transformation
         reported untouched should have hit the identity cache *)
      (match (t.Ctx.dirty, qb_name_of q) with
      | Some dirty, Some name
        when Ctx.memo_enabled t && not (Sset.mem name dirty) ->
          t.Ctx.stats.Opt_stats.dirty_misses <-
            t.Ctx.stats.Opt_stats.dirty_misses + 1
      | _ -> ());
      let fp =
        match t.Ctx.annot_cache with
        | Some _ -> Some (Ctx.fp_key ~out_alias q)
        | None -> None
      in
      let cached =
        match fp with
        | Some (h, kq) -> Ctx.fp_find t ~out_alias ~h ~kq
        | None -> None
      in
      (match cached with
      | Some ann ->
          t.Ctx.stats.Opt_stats.fp_hits <- t.Ctx.stats.Opt_stats.fp_hits + 1;
          Ctx.ident_store t ~out_alias q ann;
          ann
      | None ->
          let ann =
            match q with
            | A.Block b -> optimize_block t ~outer ~out_alias b
            | A.Setop (op, l, r) -> optimize_setop t ~outer ~out_alias op l r
          in
          (match t.Ctx.block_hook with
          | Some hook -> hook q ann
          | None -> ());
          (match fp with
          | Some (h, kq) -> Ctx.fp_store t ~out_alias ~h ~kq ann
          | None -> ());
          Ctx.ident_store t ~out_alias q ann;
          (match t.Ctx.cost_cap with
          | Some cap when ann.Annotation.an_cost > cap ->
              raise Ctx.Cost_cap_exceeded
          | _ -> ());
          ann)

and optimize_setop t ~outer ~out_alias op l r : Annotation.t =
  let al = optimize_query t ~outer ~out_alias l in
  let ar = optimize_query t ~outer ~out_alias r in
  match op with
  | A.Union_all ->
      let rows = al.Annotation.an_rows +. ar.Annotation.an_rows in
      {
        Annotation.an_plan = Plan.Union_all [ al.an_plan; ar.an_plan ];
        an_cost = al.an_cost +. ar.an_cost +. Model.out_tax rows;
        an_rows = rows;
        an_info = { al.an_info with ri_rows = rows };
      }
  | A.Union ->
      let rows = al.Annotation.an_rows +. ar.Annotation.an_rows in
      let groups = Float.max 1. (rows *. 0.7) in
      {
        Annotation.an_plan =
          Plan.Distinct (Plan.Union_all [ al.an_plan; ar.an_plan ]);
        an_cost = al.an_cost +. ar.an_cost +. Model.distinct ~rows ~groups;
        an_rows = groups;
        an_info = { al.an_info with ri_rows = groups };
      }
  | A.Intersect | A.Minus ->
      let sop = match op with A.Intersect -> `Intersect | _ -> `Minus in
      let rows =
        match op with
        | A.Intersect ->
            Float.max 1.
              (Float.min al.Annotation.an_rows ar.Annotation.an_rows /. 2.)
        | _ -> Float.max 1. (al.Annotation.an_rows /. 2.)
      in
      {
        Annotation.an_plan =
          Plan.Setop_exec { op = sop; left = al.an_plan; right = ar.an_plan };
        an_cost =
          al.an_cost +. ar.an_cost
          +. Model.setop ~lrows:al.an_rows ~rrows:ar.an_rows ~out:rows;
        an_rows = rows;
        an_info = { al.an_info with ri_rows = rows };
      }

and optimize_block t ~outer ~out_alias (b : A.block) : Annotation.t =
  (* one Block span per optimization actually entered: cache hits in
     {!optimize_query} never reach this point, so the spans measure
     exactly the work annotation reuse did not save *)
  Obs.Trace.wrap_with t.Ctx.tracer Obs.Trace.Block
    (if out_alias = "" then b.A.qb_name else out_alias ^ ":" ^ b.A.qb_name)
    (fun sp ->
      t.Ctx.stats.Opt_stats.blocks_started <-
        t.Ctx.stats.Opt_stats.blocks_started + 1;
      if b.from = [] then raise (Ctx.Unsupported "empty FROM clause");
      let ann =
        match rownum_fusion t ~outer ~out_alias b with
        | Some ann -> ann
        | None -> optimize_block_general t ~outer ~out_alias b
      in
      (* completion-counted: an abort (cost cut-off, unsupported shape)
         unwinds past this point and does not count as a block optimized *)
      t.Ctx.stats.Opt_stats.blocks_optimized <-
        t.Ctx.stats.Opt_stats.blocks_optimized + 1;
      Obs.Trace.add_attrs sp
        [
          ("cost", Obs.Trace.F ann.Annotation.an_cost);
          ("rows", Obs.Trace.F ann.Annotation.an_rows);
        ];
      ann)

(** ROWNUM short-circuit: a simple single-source block with a row limit
    and expensive predicates evaluates the predicates streaming, row by
    row, stopping when the quota fills (Section 2.2.6's pulled-up
    expensive predicates only pay for the rows actually examined). *)
and rownum_fusion t ~outer ~out_alias (b : A.block) : Annotation.t option =
  match (b.A.limit, b.A.from) with
  | Some k, [ fe ]
    when fe.A.fe_kind = A.J_inner && fe.A.fe_cond = []
         && b.A.group_by = [] && b.A.having = []
         && (not b.A.distinct)
         && b.A.order_by = []
         && (not (Walk.block_has_agg b))
         && (not (Walk.block_has_win b))
         && b.A.where <> []
         && List.for_all (fun p -> not (Walk.pred_has_subquery p)) b.A.where
         && Plan.n_expensive_preds b.A.where > 0 ->
      let child_ann =
        match fe.A.fe_source with
        | A.S_view vq -> optimize_query t ~outer ~out_alias:fe.A.fe_alias vq
        | A.S_table tbl ->
            let info = Ctx.table_info t ~table:tbl ~alias:fe.A.fe_alias in
            let pages =
              match Catalog.stats t.Ctx.cat tbl with
              | Some st -> float_of_int st.s_pages
              | None -> Float.max 1. (info.Info.ri_rows /. 64.)
            in
            {
              Annotation.an_plan =
                Plan.Table_scan { table = tbl; alias = fe.A.fe_alias; filter = [] };
              an_cost =
                Model.table_scan ~pages ~rows:info.Info.ri_rows
                  ~out:info.Info.ri_rows;
              an_rows = info.Info.ri_rows;
              an_info = info;
            }
      in
      let env = Ctx.merge_env [ outer; child_ann.an_info ] in
      let preds =
        Plan.order_preds (List.concat_map A.conjuncts b.A.where)
      in
      let sel = Sel.conj_sel env preds in
      let examined =
        Float.min child_ann.an_rows (float_of_int k /. Float.max sel 1e-3)
      in
      let rows =
        Float.min (float_of_int k)
          (Float.max 0.5 (child_ann.an_rows *. sel))
      in
      let items =
        List.map (fun si -> (si.A.si_expr, si.A.si_name)) b.A.select
      in
      let out_info =
        Info.project ~alias:out_alias ~rows
          (List.map
             (fun (e, nm) -> (nm, Ctx.default_expr_info env ~rows e))
             items)
      in
      Some
        {
          Annotation.an_plan =
            Plan.Project
              {
                child =
                  Plan.Limit_filter
                    { child = child_ann.an_plan; preds; n = k };
                alias = out_alias;
                items;
              };
          an_cost =
            child_ann.an_cost
            +. Ctx.filter_cost env ~rows:examined preds
            +. Model.project ~rows;
          an_rows = rows;
          an_info = out_info;
        }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Semijoin -> distinct inner join (Section 2.1.1)                       *)
(* ------------------------------------------------------------------ *)

(* "We can convert this semijoin into an inner join by applying a sort
   distinct operator on the selected rows [of the right table] and by
   relaxing the partial join order restriction. This allows both the
   join orders ... to be considered by the optimizer. In Oracle, this
   transformation has been incorporated into the physical optimizer."

   Eligibility: a base-table semijoin entry whose ON condition is pure
   equality with separable sides and which the block references nowhere
   else. The entry becomes an inner join against SELECT DISTINCT of the
   table-side expressions (the table's single-table predicates move
   inside), which is commutative and can therefore lead the join
   order. *)
and semi_distinct_variants (b : A.block) : A.block list =
  let local = Walk.defined_aliases b in
  List.filter_map
    (fun fe ->
      match (fe.A.fe_kind, fe.A.fe_source) with
      | A.J_semi, A.S_table table ->
          let alias = fe.A.fe_alias in
          (* every ON conjunct must be an equality with the table on
             exactly one side *)
          let sides =
            List.map
              (fun p ->
                match p with
                | A.Cmp (A.Eq, x, y) ->
                    let xa = Walk.expr_aliases x and ya = Walk.expr_aliases y in
                    if
                      Sset.equal xa (Sset.singleton alias)
                      && not (Sset.mem alias ya)
                    then Some (x, y)
                    else if
                      Sset.equal ya (Sset.singleton alias)
                      && not (Sset.mem alias xa)
                    then Some (y, x)
                    else None
                | _ -> None)
              fe.A.fe_cond
          in
          if sides = [] || not (List.for_all Option.is_some sides) then None
          else
            let sides = List.map Option.get sides in
            (* single-table predicates on the entry move into the view *)
            let singles, rest_where =
              List.partition
                (fun p ->
                  (not (Walk.pred_has_subquery p))
                  && Sset.equal
                       (Sset.inter (Walk.pred_aliases ~deep:false p) local)
                       (Sset.singleton alias))
                b.A.where
            in
            (* no other references to the entry allowed *)
            let residual_block =
              { b with A.from =
                  List.filter (fun o -> not (String.equal o.A.fe_alias alias)) b.A.from;
                where = rest_where }
            in
            let still_referenced =
              Walk.fold_block_cols
                (fun acc c -> acc || String.equal c.A.c_alias alias)
                false residual_block
            in
            if still_referenced then None
            else
              let inner_alias = alias ^ "$sd" in
              let ren e =
                Walk.map_expr_cols
                  (fun c ->
                    if String.equal c.A.c_alias alias then
                      A.Col { c with A.c_alias = inner_alias }
                    else A.Col c)
                  e
              in
              let ren_p p =
                Walk.map_pred_cols
                  (fun c ->
                    if String.equal c.A.c_alias alias then
                      A.Col { c with A.c_alias = inner_alias }
                    else A.Col c)
                  p
              in
              let view =
                A.Block
                  {
                    (A.empty_block (b.A.qb_name ^ "_sd")) with
                    A.select =
                      List.mapi
                        (fun i (tside, _) ->
                          { A.si_expr = ren tside; si_name = Printf.sprintf "d%d" i })
                        sides;
                    distinct = true;
                    from =
                      [
                        {
                          A.fe_alias = inner_alias;
                          fe_source = A.S_table table;
                          fe_kind = A.J_inner;
                          fe_cond = [];
                        };
                      ];
                    where = List.map ren_p singles;
                  }
              in
              let new_entry =
                {
                  A.fe_alias = alias;
                  fe_source = A.S_view view;
                  fe_kind = A.J_inner;
                  fe_cond = [];
                }
              in
              let join_preds =
                List.mapi
                  (fun i (_, other) ->
                    A.Cmp (A.Eq, A.col alias (Printf.sprintf "d%d" i), other))
                  sides
              in
              Some
                {
                  b with
                  A.from =
                    List.map
                      (fun o ->
                        if String.equal o.A.fe_alias alias then new_entry else o)
                      b.A.from;
                  where = rest_where @ join_preds;
                }
      | _ -> None)
    b.A.from

and optimize_block_general t ~outer ~out_alias (b : A.block) : Annotation.t =
  match semi_distinct_variants b with
  | [] -> optimize_block_core t ~outer ~out_alias b
  | variants ->
      let base = optimize_block_core t ~outer ~out_alias b in
      List.fold_left
        (fun (best : Annotation.t) b' ->
          match optimize_block_core t ~outer ~out_alias b' with
          | ann when ann.Annotation.an_cost < best.Annotation.an_cost -> ann
          | _ -> best
          | exception (Ctx.Unsupported _ | Ctx.Cost_cap_exceeded) -> best)
        base variants

and optimize_block_core t ~outer ~out_alias (b : A.block) : Annotation.t =
  let local_aliases = Walk.defined_aliases b in
  (* --- classify WHERE conjuncts (flattening nested ANDs first) --- *)
  let where = List.concat_map A.conjuncts b.where in
  let subq_preds, plain = List.partition Walk.pred_has_subquery where in
  let local_of p = Sset.inter (Walk.pred_aliases ~deep:true p) local_aliases in
  let single_tbl : (string, A.pred list) Hashtbl.t = Hashtbl.create 8 in
  let join_preds = ref [] in
  let zero_preds = ref [] in
  List.iter
    (fun p ->
      let locs = local_of p in
      match Sset.cardinal locs with
      | 0 -> zero_preds := p :: !zero_preds
      | 1 ->
          let a = Sset.choose locs in
          Hashtbl.replace single_tbl a
            ((try Hashtbl.find single_tbl a with Not_found -> []) @ [ p ])
      | _ -> join_preds := p :: !join_preds)
    plain;
  let join_preds = List.rev !join_preds in
  let zero_preds = List.rev !zero_preds in
  (* --- build entries --- *)
  let base_infos =
    List.filter_map
      (fun fe ->
        match fe.A.fe_source with
        | A.S_table tbl ->
            Some (Ctx.table_info t ~table:tbl ~alias:fe.A.fe_alias)
        | A.S_view _ -> None)
      b.from
  in
  let sibling_env = Ctx.merge_env (outer :: base_infos) in
  let entries =
    List.mapi
      (fun i fe ->
        let singles =
          try Hashtbl.find single_tbl fe.A.fe_alias with Not_found -> []
        in
        let source, info, correlated_prereq =
          match fe.A.fe_source with
          | A.S_table tbl ->
              ( E_table tbl,
                Ctx.table_info t ~table:tbl ~alias:fe.A.fe_alias,
                Sset.empty )
          | A.S_view vq ->
              let free = Sset.inter (Walk.free_aliases vq) local_aliases in
              let correlated = not (Sset.is_empty free) in
              let ann =
                optimize_query t ~outer:sibling_env ~out_alias:fe.A.fe_alias vq
              in
              (E_view (ann, correlated), ann.Annotation.an_info, free)
        in
        let cond_prereq =
          List.fold_left
            (fun s p -> Sset.union s (Sset.inter (Walk.pred_aliases ~deep:true p) local_aliases))
            Sset.empty fe.A.fe_cond
        in
        let prereq =
          Sset.remove fe.A.fe_alias (Sset.union correlated_prereq cond_prereq)
        in
        let env_for_sel = Ctx.merge_env [ outer; sibling_env; info ] in
        let ssel = Sel.conj_sel env_for_sel singles in
        {
          e_idx = i;
          e_alias = fe.A.fe_alias;
          e_kind = fe.A.fe_kind;
          e_cond = fe.A.fe_cond;
          e_source = source;
          e_info = info;
          e_rows = info.Info.ri_rows;
          e_single = singles;
          e_single_sel = ssel;
          e_prereq = prereq;
        })
      b.from
  in
  let n = List.length entries in
  let entries_arr = Array.of_list entries in
  let full_env =
    Ctx.merge_env (outer :: List.map (fun e -> e.e_info) entries)
  in
  (* --- join enumeration --- *)
  let joined =
    if n = 1 then
      Ap.initial_partial t ~outer ~env:full_env ~local:local_aliases
        (List.hd entries)
    else if n <= Ctx.dp_threshold then
      Join_enum.dp_join t ~outer ~env:full_env ~local:local_aliases
        ~entries:entries_arr ~join_preds
    else
      Join_enum.greedy_join t ~outer ~env:full_env ~local:local_aliases
        ~entries:entries_arr ~join_preds
  in
  (* --- residual zero-alias predicates --- *)
  let joined =
    if zero_preds = [] then joined
    else
      let zero_preds = Plan.order_preds zero_preds in
      let sel = Sel.conj_sel full_env zero_preds in
      let rows = Float.max 1. (joined.p_rows *. sel) in
      {
        joined with
        p_plan = Plan.Filter { child = joined.p_plan; preds = zero_preds };
        p_cost =
          joined.p_cost
          +. Ctx.filter_cost full_env ~rows:joined.p_rows zero_preds
          +. Model.out_tax rows;
        p_rows = rows;
        p_info = Info.filter ~sel joined.p_info;
      }
  in
  (* --- TIS subquery filters (non-unnested subqueries) --- *)
  let joined =
    if subq_preds = [] then joined
    else apply_subq_filters t ~outer ~env:full_env joined subq_preds
  in
  (* --- aggregation --- *)
  let has_agg = Walk.block_has_agg b in
  let post_agg, rewrite1 =
    if not has_agg then (joined, fun e -> e)
    else lower_aggregation t ~env:full_env joined b
  in
  (* --- window functions --- *)
  let post_win, rewrite2 =
    if not (Walk.block_has_win b) then (post_agg, rewrite1)
    else lower_windows t ~env:full_env post_agg b ~rewrite:rewrite1
  in
  (* --- ORDER BY (pre-projection; row order survives projection) --- *)
  let post_sort =
    match b.order_by with
    | [] -> post_win
    | keys ->
        let keys = List.map (fun (e, d) -> (rewrite2 e, d)) keys in
        {
          post_win with
          p_plan = Plan.Sort { child = post_win.p_plan; keys };
          p_cost = post_win.p_cost +. Model.sort ~rows:post_win.p_rows;
        }
  in
  (* --- projection --- *)
  let items =
    List.map (fun si -> (rewrite2 si.A.si_expr, si.A.si_name)) b.select
  in
  let out_info =
    Info.project ~alias:out_alias ~rows:post_sort.p_rows
      (List.map
         (fun (e, nm) ->
           (nm, Ctx.default_expr_info (Ctx.merge_env [ full_env; post_sort.p_info ]) ~rows:post_sort.p_rows e))
         items)
  in
  let projected =
    {
      post_sort with
      p_plan = Plan.Project { child = post_sort.p_plan; alias = out_alias; items };
      p_cost = post_sort.p_cost +. Model.project ~rows:post_sort.p_rows;
      p_info = out_info;
    }
  in
  (* --- DISTINCT --- *)
  let distincted =
    if not b.distinct then projected
    else
      let groups =
        Float.max 1.
          (Sel.distinct_count
             (Ctx.merge_env [ projected.p_info ])
             ~rows:projected.p_rows
             (List.map (fun (_, nm) -> A.col out_alias nm) items))
      in
      {
        projected with
        p_plan = Plan.Distinct projected.p_plan;
        p_cost =
          projected.p_cost +. Model.distinct ~rows:projected.p_rows ~groups;
        p_rows = groups;
        p_info = { projected.p_info with ri_rows = groups };
      }
  in
  (* --- ROWNUM limit --- *)
  let limited =
    match b.limit with
    | None -> distincted
    | Some k ->
        let rows = Float.min distincted.p_rows (float_of_int k) in
        {
          distincted with
          p_plan = Plan.Limit { child = distincted.p_plan; n = k };
          p_rows = rows;
          p_info = { distincted.p_info with ri_rows = rows };
        }
  in
  {
    Annotation.an_plan = limited.p_plan;
    an_cost = limited.p_cost;
    an_rows = limited.p_rows;
    an_info = limited.p_info;
  }

(* ------------------------------------------------------------------ *)
(* TIS subquery filters                                                 *)
(* ------------------------------------------------------------------ *)

and apply_subq_filters t ~outer ~env (joined : partial)
    (preds : A.pred list) : partial =
  let sub_env = Ctx.merge_env [ outer; env ] in
  let compiled, total_cost, sel =
    List.fold_left
      (fun (acc, cost, sel) p ->
        let mk_sub q = optimize_query t ~outer:sub_env ~out_alias:"" q in
        let sp, subq_cost =
          match p with
          | A.Exists q ->
              let ann = mk_sub q in
              (Plan.SP_exists { negated = false; plan = ann.Annotation.an_plan }, ann.an_cost)
          | A.Not_exists q ->
              let ann = mk_sub q in
              (Plan.SP_exists { negated = true; plan = ann.Annotation.an_plan }, ann.an_cost)
          | A.In_subq (es, q) ->
              let ann = mk_sub q in
              (Plan.SP_in { negated = false; lhs = es; plan = ann.Annotation.an_plan }, ann.an_cost)
          | A.Not_in_subq (es, q) ->
              let ann = mk_sub q in
              (Plan.SP_in { negated = true; lhs = es; plan = ann.Annotation.an_plan }, ann.an_cost)
          | A.Cmp_subq (op, lhs, quant, q) ->
              let ann = mk_sub q in
              (Plan.SP_cmp { op; lhs; quant; plan = ann.Annotation.an_plan }, ann.an_cost)
          | _ ->
              raise
                (Ctx.Unsupported
                   "subquery predicate under OR / NOT cannot be executed")
        in
        let q =
          match p with
          | A.Exists q | A.Not_exists q | A.In_subq (_, q) | A.Not_in_subq (_, q)
          | A.Cmp_subq (_, _, _, q) ->
              q
          | _ -> assert false
        in
        (* cache misses: distinct combinations of the correlation values
           drawn from the current block's stream *)
        let corr_cols =
          List.filter
            (fun c -> Info.find_col joined.p_info c <> None)
            (Walk.free_cols q)
        in
        let execs =
          if corr_cols = [] then 1.
          else
            Sel.distinct_count joined.p_info ~rows:joined.p_rows
              (List.map (fun c -> A.Col c) corr_cols)
        in
        let psel = Sel.pred_sel sub_env p in
        (acc @ [ sp ], cost +. (execs *. subq_cost), sel *. psel))
      ([], 0., 1.) preds
  in
  let rows = Float.max 0.5 (joined.p_rows *. sel) in
  {
    joined with
    p_plan = Plan.Subq_filter { child = joined.p_plan; preds = compiled };
    p_cost =
      joined.p_cost +. total_cost
      +. Model.subq_filter ~rows:joined.p_rows ~execs:0. ~subq_cost:0. ~out:rows;
    p_rows = rows;
    p_info = Info.filter ~sel joined.p_info;
  }

(* ------------------------------------------------------------------ *)
(* Aggregation lowering                                                 *)
(* ------------------------------------------------------------------ *)

(** Collect the distinct aggregate terms appearing in an expression. *)
and collect_aggs acc (e : A.expr) : A.expr list =
  match e with
  | A.Agg _ -> if List.mem e acc then acc else acc @ [ e ]
  | A.Const _ | A.Bind _ | A.Col _ -> acc
  | A.Binop (_, a, b) -> collect_aggs (collect_aggs acc a) b
  | A.Neg a -> collect_aggs acc a
  | A.Win (_, eo, _) -> (
      match eo with None -> acc | Some a -> collect_aggs acc a)
  | A.Fn (_, args) -> List.fold_left collect_aggs acc args
  | A.Case (arms, els) ->
      let acc = List.fold_left (fun acc (_, e) -> collect_aggs acc e) acc arms in
      (match els with None -> acc | Some e -> collect_aggs acc e)

and collect_aggs_pred acc (p : A.pred) : A.expr list =
  let r = ref acc in
  ignore
    (Walk.map_pred_exprs
       (fun e ->
         r := collect_aggs !r e;
         e)
       p);
  !r

and lower_aggregation t ~env (joined : partial) (b : A.block) :
    partial * (A.expr -> A.expr) =
  let agg_alias = Ctx.gensym t "$agg" in
  let agg_terms =
    let acc = List.fold_left (fun acc si -> collect_aggs acc si.A.si_expr) [] b.select in
    let acc = List.fold_left collect_aggs_pred acc b.having in
    List.fold_left (fun acc (e, _) -> collect_aggs acc e) acc b.order_by
  in
  let keys = List.mapi (fun i e -> (e, Printf.sprintf "k%d" i)) b.group_by in
  let aggs =
    List.mapi
      (fun i e ->
        match e with
        | A.Agg (a, arg, dist) -> (Printf.sprintf "a%d" i, a, arg, dist)
        | _ -> assert false)
      agg_terms
  in
  let rewrite e =
    let rec go e =
      match List.find_opt (fun (k, _) -> k = e) keys with
      | Some (_, nm) -> A.col agg_alias nm
      | None -> (
          match e with
          | A.Agg _ -> (
              match
                List.find_opt
                  (fun (i, _) -> List.nth agg_terms i = e)
                  (List.mapi (fun i a -> (i, a)) agg_terms)
              with
              | Some (i, _) -> A.col agg_alias (Printf.sprintf "a%d" i)
              | None -> e)
          | A.Const _ | A.Bind _ | A.Col _ -> e
          | A.Binop (op, a, bb) -> A.Binop (op, go a, go bb)
          | A.Neg a -> A.Neg (go a)
          | A.Win (a, eo, w) -> A.Win (a, Option.map go eo, w)
          | A.Fn (n, args) -> A.Fn (n, List.map go args)
          | A.Case (arms, els) ->
              A.Case
                ( List.map (fun (p, e) -> (Walk.map_pred_exprs go p, go e)) arms,
                  Option.map go els ))
    in
    go e
  in
  let groups =
    if b.group_by = [] then 1.
    else Sel.distinct_count env ~rows:joined.p_rows b.group_by
  in
  let agg_plan =
    Plan.Aggregate
      { child = joined.p_plan; strategy = `Hash; alias = agg_alias; keys; aggs }
  in
  let agg_cost =
    joined.p_cost
    +. Model.aggregate ~strategy:`Hash ~rows:joined.p_rows ~groups
  in
  let agg_info =
    Info.project ~alias:agg_alias ~rows:groups
      (List.map
         (fun (e, nm) -> (nm, Ctx.default_expr_info env ~rows:groups e))
         keys
      @ List.map
          (fun (nm, _, _, _) ->
            (nm, { Info.default_colinfo with ci_ndv = Float.max 1. (groups /. 2.) }))
          aggs)
  in
  let post =
    {
      joined with
      p_plan = agg_plan;
      p_cost = agg_cost;
      p_rows = groups;
      p_info = agg_info;
    }
  in
  (* HAVING: filter over the aggregate output *)
  let post =
    if b.having = [] then post
    else
      let having = List.map (Walk.map_pred_exprs rewrite) b.having in
      let sel = Sel.conj_sel agg_info having in
      let rows = Float.max 0.5 (post.p_rows *. sel) in
      {
        post with
        p_plan = Plan.Filter { child = post.p_plan; preds = having };
        p_cost = post.p_cost +. Model.filter ~rows:post.p_rows ~out:rows;
        p_rows = rows;
        p_info = Info.filter ~sel post.p_info;
      }
  in
  (post, rewrite)

(* ------------------------------------------------------------------ *)
(* Window lowering                                                      *)
(* ------------------------------------------------------------------ *)

and collect_wins acc (e : A.expr) : A.expr list =
  match e with
  | A.Win _ -> if List.mem e acc then acc else acc @ [ e ]
  | A.Const _ | A.Bind _ | A.Col _ | A.Agg _ -> acc
  | A.Binop (_, a, b) -> collect_wins (collect_wins acc a) b
  | A.Neg a -> collect_wins acc a
  | A.Fn (_, args) -> List.fold_left collect_wins acc args
  | A.Case (arms, els) ->
      let acc = List.fold_left (fun acc (_, e) -> collect_wins acc e) acc arms in
      (match els with None -> acc | Some e -> collect_wins acc e)

and lower_windows t ~env (input : partial) (b : A.block)
    ~(rewrite : A.expr -> A.expr) : partial * (A.expr -> A.expr) =
  let win_alias = Ctx.gensym t "$win" in
  let win_terms =
    List.fold_left (fun acc si -> collect_wins acc si.A.si_expr) [] b.select
  in
  let wins =
    List.mapi
      (fun i e ->
        match e with
        | A.Win (a, arg, w) ->
            (Printf.sprintf "w%d" i, a, Option.map rewrite arg,
             {
               A.w_pby = List.map rewrite w.A.w_pby;
               w_oby = List.map (fun (e, d) -> (rewrite e, d)) w.A.w_oby;
             })
        | _ -> assert false)
      win_terms
  in
  let rewrite2 e =
    let rec go e =
      match e with
      | A.Win _ -> (
          match
            List.find_opt (fun (i, _) -> List.nth win_terms i = e)
              (List.mapi (fun i w -> (i, w)) win_terms)
          with
          | Some (i, _) -> A.col win_alias (Printf.sprintf "w%d" i)
          | None -> rewrite e)
      | A.Const _ | A.Bind _ | A.Col _ -> rewrite e
      | A.Agg _ -> rewrite e
      | A.Binop (op, a, bb) -> A.Binop (op, go a, go bb)
      | A.Neg a -> A.Neg (go a)
      | A.Fn (n, args) -> A.Fn (n, List.map go args)
      | A.Case (arms, els) ->
          A.Case
            ( List.map (fun (p, e) -> (Walk.map_pred_exprs go p, go e)) arms,
              Option.map go els )
    in
    go e
  in
  ignore env;
  let plan = Plan.Window { child = input.p_plan; alias = win_alias; wins } in
  let cost = input.p_cost +. Model.window ~rows:input.p_rows in
  let info =
    {
      input.p_info with
      Info.ri_cols =
        input.p_info.Info.ri_cols
        @ List.map
            (fun (nm, _, _, _) ->
              ((win_alias, nm),
               { Info.default_colinfo with ci_ndv = Float.max 1. input.p_rows }))
            wins;
    }
  in
  ({ input with p_plan = plan; p_cost = cost; p_info = info }, rewrite2)
