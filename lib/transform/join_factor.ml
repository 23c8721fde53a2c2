(** Cost-based join factorization (Section 2.2.5).

    UNION ALL branches that join a common table have that table pulled
    out: the remaining branches become a UNION ALL inline view joined
    once to the factored table (Q14 → Q15). This avoids scanning the
    common table once per branch; it can also lose a better per-branch
    plan, hence the cost-based decision.

    A table is factorable out of a UNION ALL query when every branch

    - is an SPJ block containing an inner entry over the same base table,
    - applies {e identical} single-table predicates to it (modulo the
      branch-local alias), and
    - joins it to the rest of the branch through predicates whose
      other side can be exported as a view output column.

    The factored query keeps one copy of the table under a canonical
    alias; each branch exports the other side of each join predicate,
    and the join predicates are re-established between the table and the
    view's outputs in the new containing block. *)

open Sqlir
module A = Ast

type branch_info = {
  bi_block : A.block;
  bi_entry : A.from_entry;
  bi_joins : (A.cmp * A.expr * A.expr) list;
      (** (op, table-side expr, branch-side expr) *)
  bi_singles : A.pred list;  (** single-table predicates on the entry *)
  bi_sel_tbl : (int * A.expr) list;
      (** select positions referencing only the factored table, with
          their expressions (re-established in the containing block) *)
  bi_opaque : A.pred list;
      (** predicates connecting the table to the branch that cannot be
          pulled out (non-separable); they block [`Pullout] but are fine
          for [`Correlated] factorization *)
}

type candidate = {
  c_table : string;
  c_branches : branch_info list;
  c_kind : [ `Pullout | `Correlated ];
      (** [`Pullout]: identical join/filter predicates are hoisted next
          to the factored table (Q14 → Q15). [`Correlated]: the
          predicates differ between branches and stay inside the UNION
          ALL view, which becomes correlated to the factored table and
          is joined by the join-predicate-pushdown technique — the
          paper's "next release" extension (Section 2.2.5). *)
}

let branch_table_info (b : A.block) (table : string) : branch_info option =
  if not (Tx.is_spj b) then None
  else if List.exists Walk.pred_has_subquery b.A.where then None
  else
    match
      List.find_opt
        (fun fe ->
          match fe.A.fe_source with
          | A.S_table t -> String.equal t table && fe.A.fe_kind = A.J_inner
          | _ -> false)
        b.A.from
    with
    | None -> None
    | Some fe ->
        let alias = fe.A.fe_alias in
        let locals = Walk.defined_aliases b in
        let singles = ref [] and joins = ref [] and opaque = ref [] in
        let ok = ref true in
        List.iter
          (fun p ->
            let als = Walk.Sset.inter (Walk.pred_aliases ~deep:true p) locals in
            if not (Walk.Sset.mem alias als) then ()
            else if Walk.Sset.cardinal als = 1 then singles := p :: !singles
            else
              match p with
              | A.Cmp (op, x, y) ->
                  let xa = Walk.expr_aliases x and ya = Walk.expr_aliases y in
                  if
                    Walk.Sset.equal xa (Walk.Sset.singleton alias)
                    && not (Walk.Sset.mem alias ya)
                  then joins := (op, x, y) :: !joins
                  else if
                    Walk.Sset.equal ya (Walk.Sset.singleton alias)
                    && not (Walk.Sset.mem alias xa)
                  then
                    joins :=
                      ( (match op with
                        | A.Lt -> A.Gt
                        | A.Le -> A.Ge
                        | A.Gt -> A.Lt
                        | A.Ge -> A.Le
                        | o -> o),
                        y,
                        x )
                      :: !joins
                  else opaque := p :: !opaque
              | _ -> opaque := p :: !opaque)
          b.A.where;
        (* select items referencing the table must reference ONLY the
           table (they are re-established in the containing block);
           mixed expressions defeat factorization *)
        let sel_tbl = ref [] in
        List.iteri
          (fun i si ->
            let als = Walk.expr_aliases si.A.si_expr in
            if Walk.Sset.mem alias als then
              if Walk.Sset.equal als (Walk.Sset.singleton alias) then
                sel_tbl := (i, si.A.si_expr) :: !sel_tbl
              else ok := false)
          b.A.select;
        if not !ok then None
        else
          Some
            {
              bi_block = b;
              bi_entry = fe;
              bi_joins = List.rev !joins;
              bi_singles = List.rev !singles;
              bi_sel_tbl = List.rev !sel_tbl;
              bi_opaque = List.rev !opaque;
            }

(** Rename the table alias inside a predicate to the canonical one. *)
let canon_pred ~from_alias ~to_alias p =
  Walk.map_pred_cols
    (fun c ->
      if String.equal c.A.c_alias from_alias then
        A.Col { c with A.c_alias = to_alias }
      else A.Col c)
    p

let classify_setop (q : A.query) : candidate list =
  match q with
  | A.Block _ -> []
  | A.Setop _ -> (
      match Jppd.leaf_blocks q with
      | None -> []
      | Some leaves when List.length leaves >= 2 ->
          (* candidate tables: tables present in the first branch *)
          let tables =
            List.filter_map
              (fun fe ->
                match fe.A.fe_source with
                | A.S_table t -> Some t
                | _ -> None)
              (List.hd leaves).A.from
          in
          List.filter_map
            (fun table ->
              let infos = List.map (fun b -> branch_table_info b table) leaves in
              if List.for_all Option.is_some infos then
                let infos = List.map Option.get infos in
                (* identical single-table predicates modulo alias, and
                   same number of join predicates with same table side *)
                let canon0 = "f$t" in
                let canon_expr ~from_alias e =
                  Walk.map_expr_cols
                    (fun c ->
                      if String.equal c.A.c_alias from_alias then
                        A.Col { c with A.c_alias = canon0 }
                      else A.Col c)
                    e
                in
                let fingerprint bi =
                  let singles =
                    List.map
                      (fun p ->
                        Pp.pred_to_string
                          (canon_pred ~from_alias:bi.bi_entry.A.fe_alias
                             ~to_alias:canon0 p))
                      bi.bi_singles
                  in
                  let joins =
                    List.map
                      (fun (op, tside, _) ->
                        Pp.cmp_str op
                        ^ Pp.expr_to_string
                            (canon_expr ~from_alias:bi.bi_entry.A.fe_alias tside))
                      bi.bi_joins
                  in
                  let sels =
                    List.map
                      (fun (i, e) ->
                        ( i,
                          Pp.expr_to_string
                            (canon_expr ~from_alias:bi.bi_entry.A.fe_alias e) ))
                      bi.bi_sel_tbl
                  in
                  (List.sort compare singles, joins, sels)
                in
                let f0 = fingerprint (List.hd infos) in
                if
                  List.for_all
                    (fun bi -> fingerprint bi = f0 && bi.bi_opaque = [])
                    infos
                  && (List.hd infos).bi_joins <> []
                then Some { c_table = table; c_branches = infos; c_kind = `Pullout }
                else if
                  (* predicates differ or cannot be pulled out:
                     factorable only in correlated form, and only when
                     no branch selects the table *)
                  List.for_all
                    (fun bi ->
                      bi.bi_sel_tbl = []
                      && (bi.bi_joins <> [] || bi.bi_opaque <> []))
                    infos
                then Some { c_table = table; c_branches = infos; c_kind = `Correlated }
                else None
              else None)
            tables
      | _ -> [])

(* ------------------------------------------------------------------ *)
(* Application                                                          *)
(* ------------------------------------------------------------------ *)

(** Correlated factorization: the table's predicates stay inside each
    branch, rewritten to reference the factored alias; the UNION ALL
    view becomes correlated and the planner joins it by nested loops
    after the table (the JPPD evaluation technique). *)
let apply_correlated gen (q : A.query) (cand : candidate) : A.query =
  let talias = gen "ft" in
  let valias = gen "fv" in
  let rewrite_branch (bi : branch_info) : A.block =
    let b = bi.bi_block in
    let alias = bi.bi_entry.A.fe_alias in
    let b =
      Walk.map_block_cols
        (fun c ->
          if String.equal c.A.c_alias alias then
            A.Col { c with A.c_alias = talias }
          else A.Col c)
        b
    in
    {
      b with
      A.from =
        List.filter (fun fe -> not (String.equal fe.A.fe_alias alias)) b.A.from;
    }
  in
  let rec rewrite_query q =
    match q with
    | A.Block b -> (
        match List.find_opt (fun bi -> bi.bi_block == b) cand.c_branches with
        | Some bi -> A.Block (rewrite_branch bi)
        | None -> A.Block b)
    | A.Setop (op, l, r) -> A.Setop (op, rewrite_query l, rewrite_query r)
  in
  let view = rewrite_query q in
  let orig_names = A.query_select_names q in
  A.Block
    {
      (A.empty_block "factored_corr") with
      A.select =
        List.map (fun n -> { A.si_expr = A.col valias n; si_name = n }) orig_names;
      from =
        [
          {
            A.fe_alias = talias;
            fe_source = A.S_table cand.c_table;
            fe_kind = A.J_inner;
            fe_cond = [];
          };
          {
            A.fe_alias = valias;
            fe_source = A.S_view view;
            fe_kind = A.J_inner;
            fe_cond = [];
          };
        ];
    }

let apply_candidate gen (q : A.query) (cand : candidate) : A.query =
  if cand.c_kind = `Correlated then apply_correlated gen q cand
  else
  let talias = gen "ft" in
  let valias = gen "fv" in
  let njoins = List.length (List.hd cand.c_branches).bi_joins in
  (* rewrite each branch: drop the table entry, its single preds and
     join preds; export the branch-side join expressions *)
  let rewrite_branch (bi : branch_info) : A.block =
    let b = bi.bi_block in
    let alias = bi.bi_entry.A.fe_alias in
    let dropped p =
      let als =
        Walk.Sset.inter (Walk.pred_aliases ~deep:true p) (Walk.defined_aliases b)
      in
      Walk.Sset.mem alias als
    in
    let tbl_positions = List.map fst bi.bi_sel_tbl in
    let exports =
      List.mapi
        (fun i (_, _, branch_side) ->
          { A.si_expr = branch_side; si_name = Printf.sprintf "jx%d" i })
        bi.bi_joins
    in
    {
      b with
      A.select =
        List.filteri (fun i _ -> not (List.mem i tbl_positions)) b.A.select
        @ exports;
      from = List.filter (fun fe -> not (String.equal fe.A.fe_alias alias)) b.A.from;
      where = List.filter (fun p -> not (dropped p)) b.A.where;
    }
  in
  let rec rewrite_query q =
    match q with
    | A.Block b -> (
        match
          List.find_opt (fun bi -> bi.bi_block == b) cand.c_branches
        with
        | Some bi -> A.Block (rewrite_branch bi)
        | None -> A.Block b)
    | A.Setop (op, l, r) -> A.Setop (op, rewrite_query l, rewrite_query r)
  in
  let view = rewrite_query q in
  let bi0 = List.hd cand.c_branches in
  let alias0 = bi0.bi_entry.A.fe_alias in
  let rename_to_t e =
    Walk.map_expr_cols
      (fun c ->
        if String.equal c.A.c_alias alias0 then A.Col { c with A.c_alias = talias }
        else A.Col c)
      e
  in
  let join_preds =
    List.mapi
      (fun i (op, tside, _) ->
        A.Cmp (op, rename_to_t tside, A.col valias (Printf.sprintf "jx%d" i)))
      bi0.bi_joins
  in
  let single_preds =
    List.map
      (fun p -> canon_pred ~from_alias:alias0 ~to_alias:talias p)
      bi0.bi_singles
  in
  (* reconstruct the original select list positionally: table-sourced
     items come from the factored table, the rest from the view *)
  let orig_names = A.query_select_names q in
  ignore njoins;
  let tbl_items =
    List.map
      (fun (i, e) -> (i, rename_to_t e))
      bi0.bi_sel_tbl
  in
  let select =
    List.mapi
      (fun i n ->
        match List.assoc_opt i tbl_items with
        | Some e -> { A.si_expr = e; si_name = n }
        | None -> { A.si_expr = A.col valias n; si_name = n })
      orig_names
  in
  A.Block
    {
      (A.empty_block "factored") with
      A.select = select;
      from =
        [
          {
            A.fe_alias = talias;
            fe_source = A.S_table cand.c_table;
            fe_kind = A.J_inner;
            fe_cond = [];
          };
          {
            A.fe_alias = valias;
            fe_source = A.S_view view;
            fe_kind = A.J_inner;
            fe_cond = [];
          };
        ];
      where = join_preds @ single_preds;
    }

(* ------------------------------------------------------------------ *)
(* CBQT interface                                                       *)
(* ------------------------------------------------------------------ *)

(** Objects: factorable tables of the top-level UNION ALL. At most one
    factorization is applied: factoring one table restructures the
    query, and the next table would be an object of the new tree. *)
let tx =
  {
    Tx.name = "join-factorization";
    discover =
      (fun _cat q ->
        (* top-level set-op only; nested union-all views are reachable
           after other transformations, which is enough for our
           workloads *)
        List.map
          (fun c ->
            {
              Tx.block = "<top>";
              key = c.c_table;
              label = Printf.sprintf "factor(%s)" c.c_table;
            })
          (classify_setop q));
    apply_mask =
      (fun ?touched _cat q mask ->
        match Tx.selected mask (classify_setop q) with
        | [] -> q
        | (_, cand) :: _ ->
            let q' = apply_candidate (Walk.fresh_alias_gen [ q ]) q cand in
            (* factoring rebuilds the whole tree: report every block
               that is not physically shared with the input as dirty *)
            (match touched with
            | Some r -> r := Walk.Sset.union !r (Tx.dirty_blocks q q')
            | None -> ());
            q');
  }

let discover = tx.Tx.discover
let objects = Tx.objects tx
let apply_mask = tx.Tx.apply_mask
let apply_all = Tx.apply_all tx
