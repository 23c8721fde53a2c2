(** Cost-based group-by placement / eager aggregation (Section 2.2.4).

    For an aggregating block over a join, the group-by operator is
    pushed down past the joins onto one of the FROM entries: the entry
    is wrapped in an inline view that pre-aggregates on its join and
    grouping columns, and the block's aggregates are rewritten into
    compositions over the partial results (SUM→SUM, COUNT→SUM of partial
    counts, MIN/MAX→MIN/MAX, AVG→SUM of partial sums / SUM of partial
    counts). Early aggregation can shrink the join input dramatically —
    or cost an extra aggregation for nothing — hence the cost-based
    decision; in Oracle "the GBP transformation is never applied using
    heuristics" (Section 4.3).

    Legality follows Yan–Larson eager aggregation for inner joins: all
    aggregate arguments must reference only the chosen entry, aggregates
    must be duplicate-agnostic decomposable (no DISTINCT aggregates),
    and every join/grouping reference to the entry must be a column
    expression that the view can expose as a grouping key. *)

open Sqlir
module A = Ast

type target = {
  t_alias : string;
  t_expose : A.expr list;  (** entry-local exprs the view must output *)
  t_aggs : A.expr list;  (** distinct aggregate terms of the block *)
}

(* collect distinct aggregate terms of select+having+order *)
let block_agg_terms (b : A.block) : A.expr list =
  let rec collect acc (e : A.expr) =
    match e with
    | A.Agg _ -> if List.mem e acc then acc else acc @ [ e ]
    | A.Binop (_, x, y) -> collect (collect acc x) y
    | A.Neg x -> collect acc x
    | A.Fn (_, args) -> List.fold_left collect acc args
    | A.Case (arms, els) ->
        let acc = List.fold_left (fun acc (_, e) -> collect acc e) acc arms in
        (match els with None -> acc | Some e -> collect acc e)
    | _ -> acc
  in
  let acc = List.fold_left (fun acc si -> collect acc si.A.si_expr) [] b.A.select in
  let acc =
    List.fold_left
      (fun acc p ->
        let r = ref acc in
        ignore
          (Walk.map_pred_exprs
             (fun e ->
               r := collect !r e;
               e)
             p);
        !r)
      acc b.A.having
  in
  List.fold_left (fun acc (e, _) -> collect acc e) acc b.A.order_by

(** Expressions over [alias] that the rest of the block references:
    sides of join predicates, grouping expressions. Returns None if some
    reference cannot be exposed (mixed-alias expression). *)
let references_to (b : A.block) (alias : string) : A.expr list option =
  let local e = Walk.Sset.equal (Walk.expr_aliases e) (Walk.Sset.singleton alias) in
  let touches e = Walk.Sset.mem alias (Walk.expr_aliases e) in
  let exprs = ref [] in
  let add e = if not (List.mem e !exprs) then exprs := e :: !exprs in
  let ok = ref true in
  (* join predicates and zero/other predicates *)
  List.iter
    (fun p ->
      let aliases = Walk.pred_aliases ~deep:true p in
      if Walk.Sset.mem alias aliases && Walk.Sset.cardinal aliases > 1 then
        match p with
        | A.Cmp (_, x, y) ->
            if local x && not (touches y) then add x
            else if local y && not (touches x) then add y
            else ok := false
        | _ -> ok := false)
    b.A.where;
  (* grouping expressions referencing the entry *)
  List.iter
    (fun g ->
      if touches g then if local g then add g else ok := false)
    b.A.group_by;
  (* select / order / having non-aggregate references must come through
     group_by, which we already checked *)
  if !ok then Some (List.rev !exprs) else None

let decomposable (aggs : A.expr list) (alias : string) : bool =
  List.for_all
    (fun a ->
      match a with
      | A.Agg (A.Count_star, None, false) -> true
      | A.Agg ((A.Sum | A.Avg | A.Min | A.Max | A.Count), Some arg, false) ->
          Walk.Sset.equal (Walk.expr_aliases arg) (Walk.Sset.singleton alias)
      | _ -> false)
    aggs

let classify (b : A.block) (fe : A.from_entry) : target option =
  if
    fe.A.fe_kind <> A.J_inner
    || (match fe.A.fe_source with A.S_table _ -> false | _ -> true)
    || b.A.group_by = []
    || List.length b.A.from < 2
    || b.A.distinct
    || Walk.block_has_win b
    || List.exists Walk.pred_has_subquery b.A.where
    || not (List.for_all A.is_inner b.A.from)
  then None
  else
    let aggs = block_agg_terms b in
    if aggs = [] || not (decomposable aggs fe.A.fe_alias) then None
    else
      match references_to b fe.A.fe_alias with
      | Some expose when expose <> [] ->
          Some { t_alias = fe.A.fe_alias; t_expose = expose; t_aggs = aggs }
      | _ -> None

(* ------------------------------------------------------------------ *)
(* Application                                                          *)
(* ------------------------------------------------------------------ *)

let apply_to_block gen (b : A.block) (tgt : target) : A.block =
  let alias = tgt.t_alias in
  let fe = List.find (fun fe -> String.equal fe.A.fe_alias alias) b.A.from in
  let v = gen "gv" in
  (* single-table predicates of the entry move into the view *)
  let single_preds, rest_preds =
    List.partition
      (fun p ->
        Walk.Sset.equal
          (Walk.Sset.inter (Walk.pred_aliases ~deep:true p)
             (Walk.defined_aliases b))
          (Walk.Sset.singleton alias))
      b.A.where
  in
  (* view outputs: exposed grouping/join exprs gk<i>, then per-aggregate
     partials *)
  let gk_items =
    List.mapi
      (fun i e -> { A.si_expr = e; si_name = Printf.sprintf "gk%d" i })
      tgt.t_expose
  in
  (* map each aggregate term to its partial items and its rewritten form *)
  let partials = Hashtbl.create 8 in
  let partial_items = ref [] in
  let fresh_cnt = ref 0 in
  let item expr =
    incr fresh_cnt;
    let nm = Printf.sprintf "pa%d" !fresh_cnt in
    partial_items := { A.si_expr = expr; si_name = nm } :: !partial_items;
    nm
  in
  List.iter
    (fun a ->
      let rewritten =
        match a with
        | A.Agg (A.Count_star, None, false) ->
            let c = item (A.Agg (A.Count_star, None, false)) in
            A.Agg (A.Sum, Some (A.col v c), false)
        | A.Agg (A.Count, Some arg, false) ->
            let c = item (A.Agg (A.Count, Some arg, false)) in
            A.Agg (A.Sum, Some (A.col v c), false)
        | A.Agg (A.Sum, Some arg, false) ->
            let s = item (A.Agg (A.Sum, Some arg, false)) in
            A.Agg (A.Sum, Some (A.col v s), false)
        | A.Agg (A.Min, Some arg, false) ->
            let m = item (A.Agg (A.Min, Some arg, false)) in
            A.Agg (A.Min, Some (A.col v m), false)
        | A.Agg (A.Max, Some arg, false) ->
            let m = item (A.Agg (A.Max, Some arg, false)) in
            A.Agg (A.Max, Some (A.col v m), false)
        | A.Agg (A.Avg, Some arg, false) ->
            let s = item (A.Agg (A.Sum, Some arg, false)) in
            let c = item (A.Agg (A.Count, Some arg, false)) in
            A.Binop
              ( A.Div,
                A.Agg (A.Sum, Some (A.col v s), false),
                A.Agg (A.Sum, Some (A.col v c), false) )
        | _ -> assert false
      in
      Hashtbl.replace partials (Pp.expr_to_string a) rewritten)
    tgt.t_aggs;
  let view_block =
    {
      (A.empty_block (b.A.qb_name ^ "_gv")) with
      A.select = gk_items @ List.rev !partial_items;
      from = [ { fe with A.fe_kind = A.J_inner; fe_cond = [] } ];
      where = single_preds;
      group_by = tgt.t_expose;
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
  (* rewrite exposed exprs and aggregate terms throughout the block *)
  let sub_expr e =
    let rec go e =
      match List.find_opt (fun (x, _) -> x = e)
              (List.mapi (fun i x -> (x, Printf.sprintf "gk%d" i)) tgt.t_expose)
      with
      | Some (_, nm) -> A.col v nm
      | None -> (
          match Hashtbl.find_opt partials (Pp.expr_to_string e) with
          | Some rewritten -> rewritten
          | None -> (
              match e with
              | A.Binop (op, x, y) -> A.Binop (op, go x, go y)
              | A.Neg x -> A.Neg (go x)
              | A.Fn (n, args) -> A.Fn (n, List.map go args)
              | A.Case (arms, els) ->
                  A.Case
                    ( List.map (fun (p, e) -> (Walk.map_pred_exprs go p, go e)) arms,
                      Option.map go els )
              | e -> e))
    in
    go e
  in
  let sub_pred p = Walk.map_pred_exprs sub_expr p in
  {
    b with
    A.select = List.map (fun si -> { si with A.si_expr = sub_expr si.A.si_expr }) b.A.select;
    from =
      List.map
        (fun o -> if String.equal o.A.fe_alias alias then entry else o)
        b.A.from;
    where = List.map sub_pred rest_preds;
    group_by = List.map sub_expr b.A.group_by;
    having = List.map sub_pred b.A.having;
    order_by = List.map (fun (e, d) -> (sub_expr e, d)) b.A.order_by;
  }

(* ------------------------------------------------------------------ *)
(* CBQT interface                                                       *)
(* ------------------------------------------------------------------ *)

let tx =
  Tx.in_blocks ~name:"gb-placement"
    ~find:(fun _cat b ->
      List.filter_map
        (fun fe ->
          if classify b fe = None then None
          else Some (fe.A.fe_alias, Printf.sprintf "gbp(%s)" fe.A.fe_alias))
        b.A.from)
    ~apply:(fun _cat q ->
      let gen = Walk.fresh_alias_gen [ q ] in
      fun site b ->
        match Option.bind (Tx.entry b site.Tx.key) (classify b) with
        | Some tgt -> A.Block (apply_to_block gen b tgt)
        | None -> A.Block b)

let discover = tx.Tx.discover
let objects = Tx.objects tx
let apply_mask = tx.Tx.apply_mask
let apply_all = Tx.apply_all tx
