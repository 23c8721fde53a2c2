(** Cost-based join predicate pushdown (Section 2.2.3).

    Equality join predicates between a view's output columns and other
    FROM entries are pushed inside the view, where they act as
    correlation: the view can then be joined by index-driven nested
    loops (our physical optimizer places correlated views on the right
    of a nested-loop join, after the entries they reference — exactly
    the partial order the paper describes).

    Two bonus rewrites ride along, as in the paper:

    - if the pushed equalities cover {e all} of a GROUP BY view's
      grouping items, the GROUP BY is removed (the correlation acts as
      the grouping); remaining plain select items are wrapped in [MIN]
      since they are constant within a binding;
    - if they cover all of a DISTINCT view's select items and the parent
      does not otherwise reference the view, the DISTINCT is removed and
      the join becomes a semijoin (Q12 → Q13).

    JPPD applies to group-by, distinct and UNION ALL views (predicates
    are pushed into every branch). It narrows the join-order search
    space, so it can also hurt — the decision is cost-based. *)

open Sqlir
module A = Ast

(* ------------------------------------------------------------------ *)
(* Legality                                                             *)
(* ------------------------------------------------------------------ *)

(** Leaf blocks of a view query (one for plain views, several for
    UNION ALL views). Returns None if the view mixes other set ops. *)
let rec leaf_blocks (q : A.query) : A.block list option =
  match q with
  | A.Block b -> Some [ b ]
  | A.Setop (A.Union_all, l, r) -> (
      match (leaf_blocks l, leaf_blocks r) with
      | Some a, Some b -> Some (a @ b)
      | _ -> None)
  | A.Setop _ -> None

(** Is parent predicate [p] pushable into view [valias]? It must be an
    equality between a view output column and an expression over other
    parent entries (or constants). Returns (view column, other side). *)
let pushable_pred (parent : A.block) (valias : string) (p : A.pred) :
    (string * A.expr) option =
  let other_ok e =
    let als = Walk.expr_aliases e in
    (not (Walk.Sset.mem valias als))
    && Walk.Sset.subset als (Walk.defined_aliases parent)
  in
  match p with
  | A.Cmp (A.Eq, A.Col c, rhs)
    when String.equal c.A.c_alias valias && other_ok rhs ->
      Some (c.A.c_col, rhs)
  | A.Cmp (A.Eq, rhs, A.Col c)
    when String.equal c.A.c_alias valias && other_ok rhs ->
      Some (c.A.c_col, rhs)
  | _ -> None

(** In every leaf block, the pushed column's defining item must be a
    plain (non-aggregate, non-window) expression. *)
let col_pushable (leaves : A.block list) (col : string) : bool =
  List.for_all
    (fun lb ->
      match
        List.find_opt (fun si -> String.equal si.A.si_name col) lb.A.select
      with
      | Some si ->
          (not (Walk.expr_has_agg si.A.si_expr))
          && not (Walk.expr_has_win si.A.si_expr)
      | None -> false)
    leaves

type candidate = {
  cd_alias : string;
  cd_preds : (A.pred * string * A.expr) list;
      (** original conjunct, view column, other side *)
  cd_leaves : A.block list;
}

let classify (parent : A.block) (fe : A.from_entry) : candidate option =
  (* Null-aware antijoins are excluded: NOT IN treats an UNKNOWN
     comparison as a possible match, but once the equality is pushed
     inside the view it silently filters those rows, changing results
     whenever the outer expression is NULL. *)
  if fe.A.fe_kind = A.J_anti_na then None
  else
  match fe.A.fe_source with
  | A.S_table _ -> None
  | A.S_view vq -> (
      match leaf_blocks vq with
      | None -> None
      | Some leaves ->
          let interesting =
            List.exists
              (fun lb ->
                lb.A.group_by <> [] || lb.A.distinct || Walk.block_has_agg lb)
              leaves
            || List.length leaves > 1
            || fe.A.fe_kind <> A.J_inner
          in
          let view_ok =
            List.for_all
              (fun lb ->
                lb.A.order_by = [] && lb.A.limit = None
                && not (Walk.block_has_win lb))
              leaves
            && not (Walk.is_correlated vq)
          in
          if (not interesting) || not view_ok then None
          else
            let source_preds =
              if fe.A.fe_kind = A.J_inner then parent.A.where else fe.A.fe_cond
            in
            let pushable =
              List.filter_map
                (fun p ->
                  match pushable_pred parent fe.A.fe_alias p with
                  | Some (col, rhs) when col_pushable leaves col ->
                      Some (p, col, rhs)
                  | _ -> None)
                source_preds
            in
            if pushable = [] then None
            else
              Some { cd_alias = fe.A.fe_alias; cd_preds = pushable; cd_leaves = leaves })

(* ------------------------------------------------------------------ *)
(* Application                                                          *)
(* ------------------------------------------------------------------ *)

let push_into_leaf (cd : candidate) (lb : A.block) : A.block =
  let defining col =
    (List.find (fun si -> String.equal si.A.si_name col) lb.A.select).A.si_expr
  in
  let pushed =
    List.map (fun (_, col, rhs) -> A.Cmp (A.Eq, defining col, rhs)) cd.cd_preds
  in
  let lb = { lb with A.where = lb.A.where @ pushed } in
  (* group-by removal: pushed equalities cover all grouping items *)
  let covers_group_by =
    lb.A.group_by <> []
    && List.for_all
         (fun g ->
           List.exists (fun (_, col, _) -> defining col = g) cd.cd_preds)
         lb.A.group_by
  in
  if covers_group_by then
    {
      lb with
      A.group_by = [];
      select =
        List.map
          (fun si ->
            if Walk.expr_has_agg si.A.si_expr then si
            else { si with A.si_expr = A.Agg (A.Min, Some si.A.si_expr, false) })
          lb.A.select;
      (* a scalar aggregate yields one row even over an empty input,
         but the original view produced no group at all — guard with
         HAVING a positive row count so empty bindings stay empty *)
      having =
        lb.A.having
        @ [ A.Cmp (A.Gt, A.Agg (A.Count_star, None, false), A.Const (Value.Int 0)) ];
    }
  else lb

(** Rewrite the view query, pushing predicates into every leaf. *)
let rec push_into_query (cd : candidate) (q : A.query) : A.query =
  match q with
  | A.Block b -> A.Block (push_into_leaf cd b)
  | A.Setop (op, l, r) ->
      A.Setop (op, push_into_query cd l, push_into_query cd r)

let apply_to_block (parent : A.block) (cd : candidate) : A.block =
  let fe =
    List.find (fun fe -> String.equal fe.A.fe_alias cd.cd_alias) parent.A.from
  in
  let vq = match fe.A.fe_source with A.S_view v -> v | _ -> assert false in
  let vq' = push_into_query cd vq in
  (* remove the pushed conjuncts from their source *)
  let pushed_preds = List.map (fun (p, _, _) -> p) cd.cd_preds in
  let without ps = List.filter (fun p -> not (List.memq p pushed_preds)) ps in
  (* distinct removal + semijoin conversion: single distinct leaf fully
     covered, inner join, and no other parent reference to the view *)
  let all_leaves_distinct_covered =
    match leaf_blocks vq with
    | Some [ lb ] ->
        lb.A.distinct
        && (not (Walk.block_has_agg lb))
        && List.for_all
             (fun si ->
               List.exists
                 (fun (_, col, _) -> String.equal col si.A.si_name)
                 cd.cd_preds)
             lb.A.select
    | _ -> false
  in
  let other_refs =
    let parent_no_pushed = { parent with A.where = without parent.A.where } in
    Tx.alias_refs_in_block
      { parent_no_pushed with A.from =
          List.filter (fun o -> not (String.equal o.A.fe_alias cd.cd_alias))
            parent_no_pushed.A.from }
      cd.cd_alias
  in
  let to_semi =
    all_leaves_distinct_covered && fe.A.fe_kind = A.J_inner && other_refs = []
  in
  let vq' =
    if not to_semi then vq'
    else
      match vq' with
      | A.Block lb -> A.Block { lb with A.distinct = false }
      | q -> q
  in
  let fe' =
    {
      fe with
      A.fe_source = A.S_view vq';
      fe_kind = (if to_semi then A.J_semi else fe.A.fe_kind);
      fe_cond = (if fe.A.fe_kind = A.J_inner then [] else without fe.A.fe_cond);
    }
  in
  (* the view is now correlated to its siblings: move it to the end of
     the FROM list so lexically-scoped evaluation (and the partial order
     the paper describes) sees its dependencies first *)
  {
    parent with
    A.from =
      List.filter
        (fun o -> not (String.equal o.A.fe_alias cd.cd_alias))
        parent.A.from
      @ [ fe' ];
    where = without parent.A.where;
  }

(* ------------------------------------------------------------------ *)
(* CBQT interface                                                       *)
(* ------------------------------------------------------------------ *)

let tx =
  Tx.in_blocks ~name:"jppd"
    ~find:(fun _cat b ->
      List.filter_map
        (fun fe ->
          if classify b fe = None then None
          else Some (fe.A.fe_alias, Printf.sprintf "jppd(%s)" fe.A.fe_alias))
        b.A.from)
    ~apply:(fun _cat _q site b ->
      match Option.bind (Tx.entry b site.Tx.key) (classify b) with
      | Some cd -> A.Block (apply_to_block b cd)
      | None -> A.Block b)

let discover = tx.Tx.discover
let objects = Tx.objects tx
let apply_mask = tx.Tx.apply_mask
let apply_all = Tx.apply_all tx

(* ------------------------------------------------------------------ *)
(* Heuristic rule for the CBQT-off baseline                             *)
(* ------------------------------------------------------------------ *)

(** A plausible heuristic for JPPD when cost-based transformation is
    disabled (the paper only says heuristic rules were used): push the
    join predicate down when it reaches an indexed base-table column in
    some leaf block — i.e. when pushdown is likely to open an index
    access path. *)
let heuristic_mask (cat : Catalog.t) (q : A.query) : bool list =
  let decisions = ref [] in
  Tx.iter_blocks
    (fun b ->
      List.iter
        (fun fe ->
          match classify b fe with
          | None -> ()
          | Some cd ->
              let indexed =
                List.exists
                  (fun lb ->
                    List.exists
                      (fun (_, col, _) ->
                        match
                          List.find_opt
                            (fun si -> String.equal si.A.si_name col)
                            lb.A.select
                        with
                        | Some { A.si_expr = A.Col c; _ } -> (
                            match
                              List.find_map
                                (fun e ->
                                  if String.equal e.A.fe_alias c.A.c_alias
                                  then
                                    match e.A.fe_source with
                                    | A.S_table t -> Some t
                                    | _ -> None
                                  else None)
                                lb.A.from
                            with
                            | Some t ->
                                Catalog.index_with_prefix cat ~table:t
                                  ~cols:[ c.A.c_col ]
                                <> None
                            | None -> false)
                        | _ -> false)
                      cd.cd_preds)
                  cd.cd_leaves
              in
              decisions := indexed :: !decisions)
        b.A.from)
    q;
  List.rev !decisions
