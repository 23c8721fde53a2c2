(** Cost-based subquery unnesting that generates inline views
    (Section 2.2.1).

    Two families, following the paper:

    - {b Correlated aggregate subqueries} (the Q1 → Q10 rewrite): a
      scalar comparison against an aggregating subquery becomes a join
      with a GROUP BY inline view, grouping on the correlation columns.
      COUNT subqueries are excluded (the classic count bug: an inner
      join loses outer rows whose group is empty, but COUNT would have
      returned 0 for them).

    - {b Multi-table EXISTS / IN / NOT EXISTS / NOT IN subqueries}: a
      simple merge would duplicate outer rows (or, for antijoins, apply
      the antijoin too early), so the subquery tables are wrapped in an
      inline view joined with [J_semi] / [J_anti] / [J_anti_na], the
      correlation conjuncts becoming the join condition.

    Whether any particular subquery should be unnested is decided by the
    CBQT framework: this module only exposes the transformation objects
    and their (individually maskable) application. The untransformed
    alternative executes with tuple iteration semantics. *)

open Sqlir
module A = Ast

type target = {
  tgt_pred : A.pred;  (** the WHERE conjunct being unnested *)
  tgt_desc : string;
}

(* ------------------------------------------------------------------ *)
(* Legality analysis                                                    *)
(* ------------------------------------------------------------------ *)

(** Split a correlation conjunct into (inner expr, op, outer expr) if it
    has exactly one side local to the subquery. *)
let separable_corr (sb : A.block) (p : A.pred) :
    (A.expr * A.cmp * A.expr) option =
  let local = Walk.defined_aliases sb in
  let side e =
    let als = Walk.expr_aliases e in
    if Walk.Sset.is_empty als then `Const
    else if Walk.Sset.subset als local then `Inner
    else if Walk.Sset.is_empty (Walk.Sset.inter als local) then `Outer
    else `Mixed
  in
  match p with
  | A.Cmp (op, a, b) -> (
      match (side a, side b) with
      | `Inner, `Outer -> Some (a, op, b)
      | `Outer, `Inner ->
          Some (b, (match op with
                    | A.Lt -> A.Gt | A.Le -> A.Ge | A.Gt -> A.Lt
                    | A.Ge -> A.Le | o -> o), a)
      | _ -> None)
  | _ -> None

(** The aggregate-subquery case: subquery is one block, aggregating with
    no GROUP BY of its own, single select item that is a non-COUNT
    aggregate, SPJ underneath, with only separable equality
    correlations. *)
let agg_unnestable (parent : A.block) (q : A.query) :
    (A.block * (A.expr * A.expr) list * A.pred list) option =
  match Tx.single_block q with
  | None -> None
  | Some sb -> (
      let parent_aliases = Walk.defined_aliases parent in
      if
        sb.A.group_by <> [] || sb.A.having <> [] || sb.A.distinct
        || sb.A.order_by <> [] || sb.A.limit <> None
        || (not (List.for_all A.is_inner sb.A.from))
        || (not
              (List.for_all
                 (fun fe ->
                   match fe.A.fe_source with A.S_table _ -> true | _ -> false)
                 sb.A.from))
        || List.length sb.A.select <> 1
        || List.exists Walk.pred_has_subquery sb.A.where
        || not (Walk.Sset.subset (Walk.free_aliases q) parent_aliases)
      then None
      else
        match (List.hd sb.A.select).A.si_expr with
        | A.Agg ((A.Sum | A.Avg | A.Min | A.Max), _, _) ->
            let corr, local = Tx.split_correlation sb in
            let pairs =
              List.map
                (fun p ->
                  match separable_corr sb p with
                  | Some (inner, A.Eq, outer) -> Some (inner, outer)
                  | _ -> None)
                corr
            in
            if List.for_all Option.is_some pairs then
              Some (sb, List.map Option.get pairs, local)
            else None
        | _ -> None)

(** The multi-table (or otherwise unmergeable) EXISTS/IN case: SPJ
    block whose correlations are separable comparisons. Returns the
    block, the correlation triples, and the local predicates. *)
let spj_view_unnestable (parent : A.block) (q : A.query) :
    (A.block * (A.expr * A.cmp * A.expr) list * A.pred list) option =
  match Tx.single_block q with
  | None -> None
  | Some sb ->
      let parent_aliases = Walk.defined_aliases parent in
      if
        (not (Tx.is_spj sb))
        || List.length sb.A.from < 2
        || (not
              (List.for_all
                 (fun fe ->
                   match fe.A.fe_source with A.S_table _ -> true | _ -> false)
                 sb.A.from))
        || List.exists Walk.pred_has_subquery sb.A.where
        || not (Walk.Sset.subset (Walk.free_aliases q) parent_aliases)
      then None
      else
        let corr, local = Tx.split_correlation sb in
        let triples = List.map (separable_corr sb) corr in
        if List.for_all Option.is_some triples then
          Some (sb, List.map Option.get triples, local)
        else None

let classify (parent : A.block) (p : A.pred) : string option =
  match p with
  | A.Cmp_subq (_, _, None, q) ->
      if agg_unnestable parent q <> None then Some "agg-subquery" else None
  | A.Exists q | A.Not_exists q ->
      if spj_view_unnestable parent q <> None then Some "exists-view" else None
  | A.In_subq (_, q) | A.Not_in_subq (_, q) ->
      if spj_view_unnestable parent q <> None then Some "in-view" else None
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Application                                                          *)
(* ------------------------------------------------------------------ *)

(** Unnest one aggregate subquery predicate inside [b]. *)
let apply_agg gen (b : A.block) (op : A.cmp) (lhs : A.expr) (q : A.query)
    (p_orig : A.pred) : A.block =
  match agg_unnestable b q with
  | None -> b
  | Some (sb, pairs, local_preds) ->
      let v = gen "uv" in
      let agg_item = List.hd sb.A.select in
      let corr_items =
        List.mapi
          (fun i (inner, _) ->
            { A.si_expr = inner; si_name = Printf.sprintf "ck%d" i })
          pairs
      in
      let view_block =
        {
          sb with
          A.qb_name = sb.A.qb_name ^ "_uv";
          select = corr_items @ [ { agg_item with A.si_name = "agv" } ];
          where = local_preds;
          group_by = List.map (fun (inner, _) -> inner) pairs;
        }
      in
      let entry =
        {
          A.fe_alias = v;
          fe_source = A.S_view (A.Block view_block);
          fe_kind = A.J_inner;
          fe_cond = [];
        }
      in
      let join_preds =
        List.mapi
          (fun i (_, outer) ->
            A.Cmp (A.Eq, A.col v (Printf.sprintf "ck%d" i), outer))
          pairs
      in
      let where =
        List.concat_map
          (fun p ->
            if p == p_orig then
              A.Cmp (op, lhs, A.col v "agv") :: join_preds
            else [ p ])
          b.A.where
      in
      { b with A.from = b.A.from @ [ entry ]; where }

(** Unnest one multi-table EXISTS/IN-style predicate inside [b]. *)
let apply_spj_view gen (b : A.block) ~(kind : A.jkind)
    ~(in_items : A.expr list) (q : A.query) (p_orig : A.pred) : A.block =
  match spj_view_unnestable b q with
  | None -> b
  | Some (sb, triples, local_preds) ->
      let v = gen "uv" in
      (* view outputs: the IN-compared select items first, then one
         output per correlation's inner expression *)
      let in_sel =
        List.mapi
          (fun i si -> { si with A.si_name = Printf.sprintf "it%d" i })
          sb.A.select
      in
      let corr_sel =
        List.mapi
          (fun i (inner, _, _) ->
            { A.si_expr = inner; si_name = Printf.sprintf "ck%d" i })
          triples
      in
      let view_block =
        {
          sb with
          A.qb_name = sb.A.qb_name ^ "_uv";
          select = in_sel @ corr_sel;
          where = local_preds;
        }
      in
      let conds =
        List.mapi
          (fun i in_e ->
            A.Cmp (A.Eq, in_e, A.col v (Printf.sprintf "it%d" i)))
          in_items
        @ List.mapi
            (fun i (_, op, outer) ->
              (* inner op outer, with inner now a view output; keep the
                 original orientation: inner `op` outer *)
              A.Cmp (op, A.col v (Printf.sprintf "ck%d" i), outer))
            triples
      in
      let entry =
        {
          A.fe_alias = v;
          fe_source = A.S_view (A.Block view_block);
          fe_kind = kind;
          fe_cond = conds;
        }
      in
      let where = List.filter (fun p -> not (p == p_orig)) b.A.where in
      { b with A.from = b.A.from @ [ entry ]; where }

(* ------------------------------------------------------------------ *)
(* CBQT interface                                                       *)
(* ------------------------------------------------------------------ *)

(** Objects are keyed by predicate fingerprint; the n-th object with a
    given key in a block is the n-th matching predicate. Unnestable
    subqueries contain no nested blocks, so their fingerprints are
    stable under this transformation's other applications. *)
let tx =
  Tx.in_blocks ~name:"unnest"
    ~find:(fun _cat b ->
      List.filter_map
        (fun p ->
          Option.map (fun kind -> (Pp.pred_to_string p, kind)) (classify b p))
        b.A.where)
    ~apply:(fun _cat q ->
      let fresh = Walk.fresh_alias_gen [ q ] in
      fun site b ->
        let matching =
          List.filter
            (fun p -> String.equal (Pp.pred_to_string p) site.Tx.key)
            site.Tx.visit.A.where
        in
        (* view aliases are a deterministic function of the object
           index, so a sub-tree's fingerprint — and hence its cost
           annotation — is shared across states that agree on it *)
        let gen _base = fresh (Printf.sprintf "uv%d" site.Tx.index) in
        match List.nth_opt matching site.Tx.nth with
        | None -> A.Block b
        | Some p -> (
            match (classify b p, p) with
            | None, _ -> A.Block b
            | Some _, A.Cmp_subq (op, lhs, None, sq) ->
                A.Block (apply_agg gen b op lhs sq p)
            | Some _, A.Exists sq ->
                A.Block (apply_spj_view gen b ~kind:A.J_semi ~in_items:[] sq p)
            | Some _, A.Not_exists sq ->
                A.Block (apply_spj_view gen b ~kind:A.J_anti ~in_items:[] sq p)
            | Some _, A.In_subq (es, sq) ->
                A.Block (apply_spj_view gen b ~kind:A.J_semi ~in_items:es sq p)
            | Some _, A.Not_in_subq (es, sq) ->
                A.Block
                  (apply_spj_view gen b ~kind:A.J_anti_na ~in_items:es sq p)
            | Some _, _ -> A.Block b))

let discover = tx.Tx.discover
let objects = Tx.objects tx
let apply_mask = tx.Tx.apply_mask

(** Apply to every object (convenience for tests and the heuristic
    baseline that always unnests). *)
let apply_all = Tx.apply_all tx

(* ------------------------------------------------------------------ *)
(* The pre-10g heuristic rule                                           *)
(* ------------------------------------------------------------------ *)

(** The paper's (simplified) pre-10g heuristic for view-generating
    unnesting (Section 2.2.1): "If there exist filter predicates in the
    outer query and there are indexes on the local columns in the
    subquery correlation, then the subquery should not be unnested."
    Returns one decision per discovered object, in discovery order. *)
let heuristic_mask (cat : Catalog.t) (q : A.query) : bool list =
  let decisions = ref [] in
  Tx.iter_blocks
    (fun b ->
      let outer_has_filter =
        let local = Walk.defined_aliases b in
        List.exists
          (fun p ->
            (not (Walk.pred_has_subquery p))
            && Walk.Sset.cardinal
                 (Walk.Sset.inter (Walk.pred_aliases ~deep:false p) local)
               = 1)
          b.A.where
      in
      let table_of_alias (sb : A.block) alias =
        List.find_map
          (fun fe ->
            if String.equal fe.A.fe_alias alias then
              match fe.A.fe_source with
              | A.S_table t -> Some t
              | _ -> None
            else None)
          sb.A.from
      in
      let corr_indexed (sq : A.query) =
        match Tx.single_block sq with
        | None -> false
        | Some sb ->
            let corr, _ = Tx.split_correlation sb in
            List.exists
              (fun p ->
                match separable_corr sb p with
                | Some (A.Col c, _, _) -> (
                    match table_of_alias sb c.A.c_alias with
                    | Some t ->
                        Catalog.index_with_prefix cat ~table:t
                          ~cols:[ c.A.c_col ]
                        <> None
                    | None -> false)
                | _ -> false)
              corr
      in
      List.iter
        (fun p ->
          match classify b p with
          | Some _ ->
              let sq =
                match p with
                | A.Cmp_subq (_, _, _, s)
                | A.Exists s | A.Not_exists s
                | A.In_subq (_, s) | A.Not_in_subq (_, s) ->
                    s
                | _ -> assert false
              in
              let keep_nested = outer_has_filter && corr_indexed sq in
              decisions := (not keep_nested) :: !decisions
          | None -> ())
        b.A.where)
    q;
  List.rev !decisions
