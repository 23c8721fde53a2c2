(** Cost-based disjunction-into-UNION-ALL expansion (Section 2.2.8).

    A block whose WHERE contains a disjunction is expanded into a UNION
    ALL with one branch per disjunct. Without the expansion a
    disjunctive predicate is applied as a post-filter — potentially over
    a Cartesian product, since neither disjunct's join/filter predicates
    can drive an access path. Branch [i] carries disjunct [i] plus
    [LNNVL] of every earlier disjunct, which keeps the branches disjoint
    without dropping rows whose earlier disjuncts evaluated to UNKNOWN
    (Oracle's trick; see {!Sqlir.Ast.pred}).

    The expansion duplicates the rest of the query per branch, so it is
    only worthwhile when the disjuncts open good access paths — a
    cost-based decision. *)

open Sqlir
module A = Ast

let expandable (b : A.block) (p : A.pred) : A.pred list option =
  match p with
  | A.Or _ ->
      let ds = A.disjuncts p in
      if
        List.length ds >= 2
        && List.length ds <= 4
        && List.for_all (fun d -> not (Walk.pred_has_subquery d)) ds
        && (not (Walk.block_has_agg b))
        && (not (Walk.block_has_win b))
        && (not b.A.distinct)
        && b.A.group_by = [] && b.A.having = [] && b.A.limit = None
      then Some ds
      else None
  | _ -> None

(** Expand disjunction [p] of block [b] into a UNION ALL query. *)
let expand (b : A.block) (p : A.pred) (ds : A.pred list) : A.query =
  let others = List.filter (fun q -> not (q == p)) b.A.where in
  let branches =
    List.mapi
      (fun i d ->
        let earlier = List.filteri (fun j _ -> j < i) ds in
        let guards = List.map (fun e -> A.Lnnvl e) earlier in
        A.Block
          {
            b with
            A.qb_name = Printf.sprintf "%s_or%d" b.A.qb_name i;
            where = others @ [ d ] @ guards;
            order_by = [];
          })
      ds
  in
  let unioned =
    match branches with
    | [] -> assert false
    | first :: rest ->
        List.fold_left (fun acc br -> A.Setop (A.Union_all, acc, br)) first rest
  in
  (* restore ORDER BY above the union if the block had one, via an
     enclosing block over a view *)
  match b.A.order_by with
  | [] -> unioned
  | _ ->
      (* order-by expressions must be select items to survive the view
         boundary; if not, fall back to no expansion *)
      let names =
        List.map
          (fun (e, d) ->
            match
              List.find_opt (fun si -> si.A.si_expr = e) b.A.select
            with
            | Some si -> Some (si.A.si_name, d)
            | None -> None)
          b.A.order_by
      in
      if List.for_all Option.is_some names then
        let v = Walk.fresh_alias_gen [ A.Block b ] "ov" in
        A.Block
          {
            (A.empty_block (b.A.qb_name ^ "_ord")) with
            A.select =
              List.map
                (fun si ->
                  { A.si_expr = A.col v si.A.si_name; si_name = si.A.si_name })
                b.A.select;
            from =
              [
                {
                  A.fe_alias = v;
                  fe_source = A.S_view unioned;
                  fe_kind = A.J_inner;
                  fe_cond = [];
                };
              ];
            order_by =
              List.map
                (fun o ->
                  let n, d = Option.get o in
                  (A.col v n, d))
                names;
          }
      else unioned

(* ------------------------------------------------------------------ *)
(* CBQT interface                                                       *)
(* ------------------------------------------------------------------ *)

(** Objects are keyed by predicate fingerprint. At most one disjunction
    per block is expanded: expanding replaces the block with a set
    operation, which takes no further objects. *)
let tx =
  Tx.in_blocks ~name:"or-expansion"
    ~find:(fun _cat b ->
      List.filter_map
        (fun p ->
          if expandable b p = None then None
          else Some (Pp.pred_to_string p, "or-expand"))
        b.A.where)
    ~apply:(fun _cat _q site b ->
      match
        List.find_opt
          (fun p -> String.equal (Pp.pred_to_string p) site.Tx.key)
          b.A.where
      with
      | Some p -> (
          match expandable b p with
          | Some ds -> expand b p ds
          | None -> A.Block b)
      | None -> A.Block b)

let discover = tx.Tx.discover
let objects = Tx.objects tx
let apply_mask = tx.Tx.apply_mask
let apply_all = Tx.apply_all tx
