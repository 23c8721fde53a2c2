(** Cost-based predicate pullup (Section 2.2.6).

    Expensive filter predicates (procedural / user-defined functions)
    are pulled out of a view into its containing query block, when the
    containing block has a ROWNUM limit and the view contains a blocking
    operator (ORDER BY, GROUP BY, DISTINCT). Evaluating the expensive
    predicate {e after} the blocking operator means it only runs until
    the ROWNUM quota is filled, instead of over the whole input — at the
    price of sorting/aggregating a larger input and possibly evaluating
    the predicate on rows that would have been cheap to filter early.
    Each expensive predicate is its own transformation object (Q16 shows
    the 2-predicate case with three pull-up variants). *)

open Sqlir
module A = Ast

let rec expr_expensive (e : A.expr) : bool =
  match e with
  | A.Fn (n, args) ->
      Exec.Funcs.is_expensive n || List.exists expr_expensive args
  | A.Binop (_, a, b) -> expr_expensive a || expr_expensive b
  | A.Neg a -> expr_expensive a
  | A.Case (arms, els) ->
      List.exists (fun (_, e) -> expr_expensive e) arms
      || (match els with Some e -> expr_expensive e | None -> false)
  | _ -> false

and pred_expensive (p : A.pred) : bool =
  match p with
  | A.Pred_fn (n, args) ->
      Exec.Funcs.is_expensive n || List.exists expr_expensive args
  | A.Cmp (_, a, b) -> expr_expensive a || expr_expensive b
  | A.Not a | A.Lnnvl a -> pred_expensive a
  | A.And (a, b) | A.Or (a, b) -> pred_expensive a || pred_expensive b
  | _ -> false

(** Candidate: (parent block with rownum) containing a single-block view
    with a blocking operator whose WHERE has expensive predicates that
    reference only columns exposable through the view. *)
let classify (parent : A.block) (fe : A.from_entry) : (A.block * A.pred list) option
    =
  if parent.A.limit = None then None
  else
    match fe.A.fe_source with
    | A.S_table _ -> None
    | A.S_view vq -> (
        match Tx.single_block vq with
        | None -> None
        | Some vb ->
            if not (Walk.block_is_blocking vb) then None
            else if Walk.is_correlated vq then None
            else
              let expensive =
                List.filter
                  (fun p ->
                    pred_expensive p && not (Walk.pred_has_subquery p))
                  vb.A.where
              in
              (* predicates must survive the view's grouping: only legal
                 when the view has no aggregation (we pull up through
                 ORDER BY / DISTINCT; pulling through GROUP BY would
                 change the groups) *)
              if expensive <> [] && (not (Walk.block_has_agg vb)) then
                Some (vb, expensive)
              else None)

(** Pull one expensive predicate [p] out of view [fe] in [parent]. The
    columns it references are added to the view's select list under
    fresh names; the rewritten predicate joins the parent's WHERE. *)
let pull_one gen (parent : A.block) (alias : string) (p : A.pred) : A.block =
  let fe =
    List.find (fun fe -> String.equal fe.A.fe_alias alias) parent.A.from
  in
  let vq = match fe.A.fe_source with A.S_view v -> v | _ -> assert false in
  let vb = match Tx.single_block vq with Some b -> b | None -> assert false in
  if not (List.memq p vb.A.where) then parent
  else
    let needed = Walk.pred_cols ~deep:false p in
    (* map each referenced column to a view output (existing or new) *)
    let extra = ref [] in
    let mapping =
      List.map
        (fun c ->
          match
            List.find_opt
              (fun si -> si.A.si_expr = A.Col c)
              (vb.A.select @ !extra)
          with
          | Some si -> (c, si.A.si_name)
          | None ->
              let nm = gen "px" in
              extra := !extra @ [ { A.si_expr = A.Col c; si_name = nm } ];
              (c, nm))
        needed
    in
    let vb' =
      {
        vb with
        A.select = vb.A.select @ !extra;
        where = List.filter (fun q -> not (q == p)) vb.A.where;
      }
    in
    let p' =
      Walk.map_pred_cols
        (fun c ->
          match List.assoc_opt c mapping with
          | Some nm -> A.col alias nm
          | None -> A.Col c)
        p
    in
    {
      parent with
      A.from =
        List.map
          (fun o ->
            if String.equal o.A.fe_alias alias then
              { o with A.fe_source = A.S_view (A.Block vb') }
            else o)
          parent.A.from;
      where = parent.A.where @ [ p' ];
    }

(* ------------------------------------------------------------------ *)
(* CBQT interface                                                       *)
(* ------------------------------------------------------------------ *)

(* objects are keyed ["alias|predicate"] *)
let tx =
  Tx.in_blocks ~name:"predicate-pullup"
    ~find:(fun _cat b ->
      List.concat_map
        (fun fe ->
          match classify b fe with
          | Some (_, expensive) ->
              List.map
                (fun p ->
                  let key = fe.A.fe_alias ^ "|" ^ Pp.pred_to_string p in
                  (key, Printf.sprintf "pullup(%s)" key))
                expensive
          | None -> [])
        b.A.from)
    ~apply:(fun _cat q ->
      let gen = Walk.fresh_alias_gen [ q ] in
      fun site b ->
        let key = site.Tx.key in
        let i = String.index key '|' in
        let alias = String.sub key 0 i in
        let fp = String.sub key (i + 1) (String.length key - i - 1) in
        match Option.map (fun fe -> fe.A.fe_source) (Tx.entry b alias) with
        | Some (A.S_view (A.Block vb)) -> (
            match
              List.find_opt
                (fun p -> String.equal (Pp.pred_to_string p) fp)
                vb.A.where
            with
            | Some p -> A.Block (pull_one gen b alias p)
            | None -> A.Block b)
        | _ -> A.Block b)

let discover = tx.Tx.discover
let objects = Tx.objects tx
let apply_mask = tx.Tx.apply_mask
let apply_all = Tx.apply_all tx
