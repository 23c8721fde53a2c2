(** Cost-based group-by and distinct view merging (Section 2.2.2).

    {b Group-by view merging} (group-by pull-up, the Q10 → Q11 rewrite)
    splices a GROUP BY view into its containing block and delays the
    aggregation until after the parent's joins: the parent inherits the
    view's grouping keys, extended with a key of every other FROM entry
    (the paper uses rowids; we require declared primary/unique keys) and
    with every other-table column the parent still needs after
    aggregation. Parent predicates over the view's aggregate outputs
    move to HAVING.

    {b Distinct view merging} (the Q12 → Q18 rewrite) merges a SELECT
    DISTINCT view by building a new enclosing view that joins all tables,
    selects the parent's items plus keys of the outer tables, and applies
    DISTINCT — preserving the duplicate semantics of the original.

    Both directions can win or lose depending on how much the parent's
    joins and filters reduce the data to aggregate, so the decision is
    cost-based (the CBQT framework enumerates the per-view choices). *)

open Sqlir
module A = Ast

(* ------------------------------------------------------------------ *)
(* Legality                                                             *)
(* ------------------------------------------------------------------ *)

let base_tables_only (b : A.block) =
  List.for_all
    (fun fe -> match fe.A.fe_source with A.S_table _ -> true | _ -> false)
    b.A.from

(** Classify a view entry of [parent] as a merge candidate. *)
let classify (cat : Catalog.t) (parent : A.block) (fe : A.from_entry) :
    [ `Groupby of A.block | `Distinct of A.block ] option =
  if fe.A.fe_kind <> A.J_inner || fe.A.fe_cond <> [] then None
  else
    match fe.A.fe_source with
    | A.S_table _ -> None
    | A.S_view vq -> (
        match Tx.single_block vq with
        | None -> None
        | Some vb ->
            let view_ok =
              (not (Walk.block_has_win vb))
              && vb.A.order_by = [] && vb.A.limit = None
              && (not (Walk.is_correlated vq))
              && List.for_all A.is_inner vb.A.from
              && base_tables_only vb
              && (not (List.exists Walk.pred_has_subquery vb.A.where))
            in
            let parent_ok =
              (not (Walk.block_has_agg parent))
              && (not parent.A.distinct)
              && (not (Walk.block_has_win parent))
              && parent.A.limit = None
              && parent.A.group_by = [] && parent.A.having = []
              (* every other entry must expose a key so duplicates are
                 preserved (the paper's rowid trick) *)
              && List.for_all
                   (fun other ->
                     String.equal other.A.fe_alias fe.A.fe_alias
                     || (other.A.fe_kind = A.J_inner
                        && Tx.entry_key cat other <> None))
                   parent.A.from
            in
            if not (view_ok && parent_ok) then None
            else if vb.A.group_by <> [] || Walk.block_has_agg vb then
              (* aggregate select items must be either pure aggregates or
                 group-by expressions; we require each item to be one or
                 the other so substitution is well-defined *)
              if
                List.for_all
                  (fun si ->
                    Walk.expr_has_agg si.A.si_expr
                    || List.mem si.A.si_expr vb.A.group_by)
                  vb.A.select
                && vb.A.having = []
              then Some (`Groupby vb)
              else None
            else if vb.A.distinct then
              if parent.A.order_by = [] then Some (`Distinct vb) else None
            else None)

(* ------------------------------------------------------------------ *)
(* Group-by merge (pull-up)                                             *)
(* ------------------------------------------------------------------ *)

let merge_groupby (cat : Catalog.t) (parent : A.block) (fe : A.from_entry)
    (vb : A.block) : A.block =
  let valias = fe.A.fe_alias in
  let subst = List.map (fun si -> (si.A.si_name, si.A.si_expr)) vb.A.select in
  let sub_pred p = Walk.substitute_alias ~alias:valias ~subst p in
  let sub_expr e = Walk.substitute_alias_expr ~alias:valias ~subst e in
  (* does a parent predicate touch an aggregate output of the view? *)
  let touches_agg p =
    List.exists
      (fun c ->
        String.equal c.A.c_alias valias
        &&
        match List.assoc_opt c.A.c_col subst with
        | Some e -> Walk.expr_has_agg e
        | None -> false)
      (Walk.pred_cols ~deep:true p)
  in
  let having_preds, where_preds = List.partition touches_agg parent.A.where in
  let others =
    List.filter (fun o -> not (String.equal o.A.fe_alias valias)) parent.A.from
  in
  (* grouping keys: view keys + key columns of every other entry + the
     other-entry columns the parent still needs after aggregation *)
  let other_keys =
    List.concat_map
      (fun o ->
        match Tx.entry_key cat o with
        | Some key -> List.map (fun k -> A.col o.A.fe_alias k) key
        | None -> [])
      others
  in
  let needed_after_agg =
    let cols = ref [] in
    let record c =
      if
        (not (String.equal c.A.c_alias valias))
        && not (List.mem (A.Col c) !cols)
      then cols := A.Col c :: !cols
    in
    List.iter
      (fun si ->
        ignore (Walk.fold_expr_cols (fun () c -> record c) () si.A.si_expr))
      parent.A.select;
    List.iter
      (fun (e, _) -> ignore (Walk.fold_expr_cols (fun () c -> record c) () e))
      parent.A.order_by;
    List.iter
      (fun p ->
        ignore (Walk.fold_pred_cols ~deep:false (fun () c -> record c) () p))
      having_preds;
    List.rev !cols
  in
  let group_by =
    let all = vb.A.group_by @ other_keys @ needed_after_agg in
    List.fold_left (fun acc e -> if List.mem e acc then acc else acc @ [ e ]) [] all
  in
  {
    parent with
    A.select =
      List.map (fun si -> { si with A.si_expr = sub_expr si.A.si_expr }) parent.A.select;
    from = others @ vb.A.from;
    where = List.map sub_pred where_preds @ vb.A.where;
    group_by;
    having = List.map sub_pred having_preds;
    order_by = List.map (fun (e, d) -> (sub_expr e, d)) parent.A.order_by;
  }

(* ------------------------------------------------------------------ *)
(* Distinct merge (Q18-style wrapper)                                   *)
(* ------------------------------------------------------------------ *)

let merge_distinct (cat : Catalog.t) (parent : A.block) (fe : A.from_entry)
    (vb : A.block) : A.block =
  let valias = fe.A.fe_alias in
  let subst = List.map (fun si -> (si.A.si_name, si.A.si_expr)) vb.A.select in
  let sub_pred p = Walk.substitute_alias ~alias:valias ~subst p in
  let sub_expr e = Walk.substitute_alias_expr ~alias:valias ~subst e in
  let others =
    List.filter (fun o -> not (String.equal o.A.fe_alias valias)) parent.A.from
  in
  let key_items =
    List.concat (List.mapi
      (fun i o ->
        match Tx.entry_key cat o with
        | Some key ->
            List.mapi
              (fun j k ->
                {
                  A.si_expr = A.col o.A.fe_alias k;
                  si_name = Printf.sprintf "dk%d_%d" i j;
                })
              key
        | None -> [])
      others)
  in
  let dv_alias = Walk.fresh_alias_gen [ A.Block parent ] "dv" in
  let inner_block =
    {
      parent with
      A.qb_name = parent.A.qb_name ^ "_dv";
      select =
        List.map
          (fun si -> { si with A.si_expr = sub_expr si.A.si_expr })
          parent.A.select
        @ key_items;
      distinct = true;
      from = others @ vb.A.from;
      where = List.map sub_pred parent.A.where @ vb.A.where;
      order_by = [];
      limit = None;
    }
  in
  {
    A.qb_name = parent.A.qb_name;
    select =
      List.map
        (fun si ->
          { A.si_expr = A.col dv_alias si.A.si_name; si_name = si.A.si_name })
        parent.A.select;
    distinct = false;
    from =
      [
        {
          A.fe_alias = dv_alias;
          fe_source = A.S_view (A.Block inner_block);
          fe_kind = A.J_inner;
          fe_cond = [];
        };
      ];
    where = [];
    group_by = [];
    having = [];
    order_by = [];
    limit = parent.A.limit;
  }

(* ------------------------------------------------------------------ *)
(* CBQT interface                                                       *)
(* ------------------------------------------------------------------ *)

let tx =
  Tx.in_blocks ~name:"gb-view-merge"
    ~find:(fun cat b ->
      List.filter_map
        (fun fe ->
          let tag kind =
            Some (fe.A.fe_alias, Printf.sprintf "%s(%s)" kind fe.A.fe_alias)
          in
          match classify cat b fe with
          | Some (`Groupby _) -> tag "gb-merge"
          | Some (`Distinct _) -> tag "distinct-merge"
          | None -> None)
        b.A.from)
    ~apply:(fun cat _q site b ->
      match Tx.entry b site.Tx.key with
      | None -> A.Block b
      | Some fe -> (
          (* an earlier application may have invalidated this object *)
          match classify cat b fe with
          | Some (`Groupby vb) -> A.Block (merge_groupby cat b fe vb)
          | Some (`Distinct vb) -> A.Block (merge_distinct cat b fe vb)
          | None -> A.Block b))

let discover = tx.Tx.discover
let objects = Tx.objects tx
let apply_mask = tx.Tx.apply_mask
let apply_all = Tx.apply_all tx
