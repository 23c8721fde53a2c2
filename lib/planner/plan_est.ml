(** Post-hoc per-operator cardinality estimation over a {e physical}
    plan.

    The optimizer's annotations carry estimated rows only for whole
    query blocks; EXPLAIN ANALYZE needs an estimate {e per operator} to
    compute Q-error against actual row counts. Rather than threading
    estimates through every plan-construction site, this module re-runs
    the cost model's cardinality logic ({!Cost.Info},
    {!Cost.Selectivity}) bottom-up over the finished plan — which also
    works for plans the current optimizer instance never costed
    (heuristic-only modes, annotation-cache hits, plans loaded from a
    differ).

    Estimates are per {e invocation} of the operator: a nested-loop
    inner side estimated at 10 rows is expected to yield ~10 rows each
    time the outer row probes it, which is exactly how the analyzed
    actuals are normalized before the Q-error comparison. *)

open Sqlir
module A = Ast
module Info = Cost.Info
module Sel = Cost.Selectivity
module Plan = Exec.Plan

let cols_as_exprs (info : Info.rel_info) : A.expr list =
  List.map (fun ((a, c), _) -> A.col a c) info.Info.ri_cols

(* estimated rows + column statistics of one node, memoizing per
   physical identity so shared subtrees are walked once *)
let rec est (cat : Catalog.t) (tbl : float Exec.Executor.Ptbl.t)
    (p : Plan.t) : Info.rel_info =
  let info = est_node cat tbl p in
  if not (Exec.Executor.Ptbl.mem tbl p) then
    Exec.Executor.Ptbl.add tbl p info.Info.ri_rows;
  info

and est_node cat tbl (p : Plan.t) : Info.rel_info =
  match p with
  | Plan.Table_scan { table; alias; filter } ->
      let info = Info.of_table cat ~table ~alias in
      Info.filter ~sel:(Sel.conj_sel info filter) info
  | Plan.Part_scan { table; alias; filter; prune = _ } ->
      (* pruning changes the pages read, never the output rows: the
         originating conjunct always stays in [filter], and the
         selectivity below already accounts for it *)
      let info = Info.of_table cat ~table ~alias in
      Info.filter ~sel:(Sel.conj_sel info filter) info
  | Plan.Exchange { child; _ } ->
      (* concatenation of the per-partition results: the child's total *)
      est cat tbl child
  | Plan.Partial_agg { child; alias; keys; aggs } ->
      let ci = est cat tbl child in
      let nparts =
        match Plan.part_scans child with
        | (table, prune) :: _ -> (
            match Catalog.part_spec cat table with
            | Some ps ->
                float_of_int
                  (max 1 (List.length (Exec.Prune.survivors
                        ~value_of:(Exec.Prune.value_of ~binds:[||])
                        ps prune)))
            | None -> 1.)
        | [] -> 1.
      in
      let groups =
        if keys = [] then 1.
        else
          Float.max 1.
            (Sel.distinct_count ci ~rows:ci.Info.ri_rows (List.map fst keys))
      in
      (* every surviving partition contributes up to [groups] state
         rows (exactly one for the scalar form), capped by the input *)
      let rows =
        if keys = [] then nparts
        else
          Float.min
            (Float.max 1. ci.Info.ri_rows)
            (Float.max 1. (groups *. nparts))
      in
      Info.project ~alias ~rows
        (List.map
           (fun (e, nm) -> (nm, Opt_ctx.default_expr_info ci ~rows e))
           keys
        @ List.map
            (fun nm ->
              ( nm,
                { Info.default_colinfo with ci_ndv = Float.max 1. (rows /. 2.) }
              ))
            (Plan.partial_state_cols aggs))
  | Plan.Final_agg { child; alias; keys; aggs } ->
      let ci = est cat tbl child in
      let groups =
        if keys = [] then 1.
        else
          Float.max 1.
            (Sel.distinct_count ci ~rows:ci.Info.ri_rows
               (List.map (fun k -> A.col alias k) keys))
      in
      Info.project ~alias ~rows:groups
        (List.map
           (fun k ->
             ( k,
               Opt_ctx.default_expr_info ci ~rows:groups (A.col alias k) ))
           keys
        @ List.map
            (fun (nm, _) ->
              ( nm,
                {
                  Info.default_colinfo with
                  ci_ndv = Float.max 1. (groups /. 2.);
                } ))
            aggs)
  | Plan.Index_scan { table; alias; index; prefix; lo; hi; filter } ->
      let info = Info.of_table cat ~table ~alias in
      let ix =
        List.find_opt
          (fun ix -> String.equal ix.Catalog.ix_name index)
          (Catalog.indexes_on cat table)
      in
      let key_sel =
        match ix with
        | None -> Sel.default_eq ** float_of_int (List.length prefix)
        | Some ix ->
            List.fold_left
              (fun sel key_col ->
                match
                  Info.find_col info { A.c_alias = alias; A.c_col = key_col }
                with
                | Some ci -> sel /. Float.max 1. ci.Info.ci_ndv
                | None -> sel *. Sel.default_eq)
              1.
              (List.filteri
                 (fun i _ -> i < List.length prefix)
                 ix.Catalog.ix_cols)
      in
      let range_sel =
        match (lo, hi) with
        | Plan.R_unbounded, Plan.R_unbounded -> 1.
        | _ -> Sel.default_range
      in
      let sel = key_sel *. range_sel *. Sel.conj_sel info filter in
      Info.filter ~sel info
  | Plan.Join { role; left; right; cond; _ } -> (
      let li = est cat tbl left in
      let ri = est cat tbl right in
      let l = li.Info.ri_rows and r = ri.Info.ri_rows in
      (* selectivity env keeps the children's NDVs ({!Info.join} would
         cap them at the given row count, flattening every equality
         selectivity to 1) *)
      let env =
        { Info.ri_rows = l *. r; ri_cols = li.Info.ri_cols @ ri.Info.ri_cols }
      in
      let sel = Sel.conj_sel env cond in
      let inner = Float.max 1. (l *. r *. sel) in
      match role with
      | Plan.Inner -> Info.join ~rows:inner li ri
      | Plan.Left_outer -> Info.join ~rows:(Float.max l inner) li ri
      | Plan.Semi ->
          let rows = Float.min l inner in
          Info.filter ~sel:(rows /. Float.max 1. l) li
      | Plan.Anti | Plan.Anti_na ->
          let semi = Float.min l inner in
          let rows = Float.max 1. (l -. semi) in
          Info.filter ~sel:(rows /. Float.max 1. l) li)
  | Plan.Filter { child; preds } ->
      let ci = est cat tbl child in
      Info.filter ~sel:(Sel.conj_sel ci preds) ci
  | Plan.Subq_filter { child; preds } ->
      let ci = est cat tbl child in
      (* walk the embedded subquery plans so they get estimates too *)
      List.iter
        (fun sp ->
          let plan =
            match sp with
            | Plan.SP_exists { plan; _ }
            | Plan.SP_in { plan; _ }
            | Plan.SP_cmp { plan; _ } ->
                plan
          in
          ignore (est cat tbl plan))
        preds;
      let sel = Sel.default_other ** float_of_int (List.length preds) in
      Info.filter ~sel ci
  | Plan.Project { child; alias; items } ->
      let ci = est cat tbl child in
      let rows = ci.Info.ri_rows in
      Info.project ~alias ~rows
        (List.map
           (fun (e, nm) -> (nm, Opt_ctx.default_expr_info ci ~rows e))
           items)
  | Plan.Aggregate { child; alias; keys; aggs; _ } ->
      let ci = est cat tbl child in
      let groups =
        if keys = [] then 1.
        else
          Float.max 1.
            (Sel.distinct_count ci ~rows:ci.Info.ri_rows (List.map fst keys))
      in
      Info.project ~alias ~rows:groups
        (List.map
           (fun (e, nm) -> (nm, Opt_ctx.default_expr_info ci ~rows:groups e))
           keys
        @ List.map
            (fun (nm, _, _, _) ->
              ( nm,
                {
                  Info.default_colinfo with
                  ci_ndv = Float.max 1. (groups /. 2.);
                } ))
            aggs)
  | Plan.Window { child; alias; wins } ->
      let ci = est cat tbl child in
      {
        ci with
        Info.ri_cols =
          ci.Info.ri_cols
          @ List.map
              (fun (nm, _, _, _) ->
                ( (alias, nm),
                  {
                    Info.default_colinfo with
                    ci_ndv = Float.max 1. ci.Info.ri_rows;
                  } ))
              wins;
      }
  | Plan.Distinct child ->
      let ci = est cat tbl child in
      let groups =
        Float.max 1.
          (Sel.distinct_count ci ~rows:ci.Info.ri_rows (cols_as_exprs ci))
      in
      { ci with Info.ri_rows = groups }
  | Plan.Sort { child; _ } -> est cat tbl child
  | Plan.Limit { child; n } ->
      let ci = est cat tbl child in
      { ci with Info.ri_rows = Float.min ci.Info.ri_rows (float_of_int n) }
  | Plan.Limit_filter { child; preds; n } ->
      let ci = est cat tbl child in
      let filtered = Info.filter ~sel:(Sel.conj_sel ci preds) ci in
      {
        filtered with
        Info.ri_rows = Float.min filtered.Info.ri_rows (float_of_int n);
      }
  | Plan.Union_all children ->
      let infos = List.map (est cat tbl) children in
      let rows =
        List.fold_left (fun acc i -> acc +. i.Info.ri_rows) 0. infos
      in
      (match infos with
      | [] -> { Info.ri_rows = 0.; ri_cols = [] }
      | i :: _ -> { i with Info.ri_rows = rows })
  | Plan.Setop_exec { op; left; right } ->
      let li = est cat tbl left in
      let ri = est cat tbl right in
      let rows =
        match op with
        | `Intersect ->
            Float.max 1. (Float.min li.Info.ri_rows ri.Info.ri_rows /. 2.)
        | `Minus -> Float.max 1. (li.Info.ri_rows /. 2.)
      in
      { li with Info.ri_rows = rows }

(** Estimate every operator of [plan]. Returns the root estimate and a
    lookup from plan node (by physical identity) to its estimated
    output rows per invocation. *)
let estimate (cat : Catalog.t) (plan : Plan.t) :
    float * (Plan.t -> float option) =
  let tbl = Exec.Executor.Ptbl.create 64 in
  let root = est cat tbl plan in
  (root.Info.ri_rows, fun p -> Exec.Executor.Ptbl.find_opt tbl p)

(** Per-node cardinality hints for the executor's hybrid engine choice:
    estimated output rows per invocation, keyed by physical identity —
    the shape of [Exec.Executor.execute]'s [card_of] callback. The
    executor consults the hint of each pipeline's source scan when
    deciding between the row and vectorized interpretations. *)
let pipeline_hints (cat : Catalog.t) (plan : Plan.t) : Plan.t -> float option =
  snd (estimate cat plan)
