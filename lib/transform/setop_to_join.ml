(** Cost-based conversion of MINUS / INTERSECT into joins
    (Section 2.2.7).

    INTERSECT becomes a semijoin and MINUS an antijoin, followed by
    duplicate elimination (set operators return distinct results). Two
    semantic gaps are bridged explicitly, exactly as the paper warns:

    - in INTERSECT / MINUS, NULL matches NULL, whereas join conditions
      never match NULLs — so the join conditions generated here are
      null-tolerant: [l = r OR (l IS NULL AND r IS NULL)];
    - the duplicate elimination can run on the join output (this
      implementation) or on the inputs; which wins is data-dependent,
      which is why the conversion itself is cost-based (the transformed
      form enables hash/merge-style evaluation and join reordering;
      the untransformed form runs the dedicated set operator).

    The left branch becomes the containing block (with DISTINCT); the
    right branch becomes a semi/anti-joined inline view. *)

open Sqlir
module A = Ast

let convertible (q : A.query) : (A.setop * A.block * A.block) option =
  match q with
  | A.Setop (((A.Intersect | A.Minus) as op), A.Block l, A.Block r)
    when Tx.is_spj l && Tx.is_spj r
         && (not (List.exists Walk.pred_has_subquery l.A.where))
         && (not (List.exists Walk.pred_has_subquery r.A.where))
         && (not (Walk.is_correlated (A.Block l)))
         && (not (Walk.is_correlated (A.Block r)))
         && List.length l.A.select = List.length r.A.select ->
      Some (op, l, r)
  | _ -> None

let null_tolerant_eq (a : A.expr) (b : A.expr) : A.pred =
  A.Or (A.Cmp (A.Eq, a, b), A.And (A.Is_null a, A.Is_null b))

let convert gen (op : A.setop) (l : A.block) (r : A.block) : A.query =
  let v = gen "sj" in
  let r_items =
    List.mapi
      (fun i si -> { si with A.si_name = Printf.sprintf "s%d" i })
      r.A.select
  in
  let conds =
    List.mapi
      (fun i lsi ->
        null_tolerant_eq lsi.A.si_expr (A.col v (Printf.sprintf "s%d" i)))
      l.A.select
  in
  let kind = match op with A.Intersect -> A.J_semi | _ -> A.J_anti in
  let entry =
    {
      A.fe_alias = v;
      fe_source = A.S_view (A.Block { r with A.select = r_items });
      fe_kind = kind;
      fe_cond = conds;
    }
  in
  A.Block
    {
      l with
      A.qb_name = l.A.qb_name ^ "_sj";
      distinct = true;
      from = l.A.from @ [ entry ];
    }

(* ------------------------------------------------------------------ *)
(* CBQT interface                                                       *)
(* ------------------------------------------------------------------ *)

(** Objects: convertible MINUS/INTERSECT nodes, found anywhere in the
    set-operation tree (and in views). Keys are positional paths. *)
let rec find_nodes (path : string) (q : A.query) : (string * A.query) list =
  match q with
  | A.Block b ->
      List.concat_map
        (fun fe ->
          match fe.A.fe_source with
          | A.S_view vq -> find_nodes (path ^ "." ^ fe.A.fe_alias) vq
          | A.S_table _ -> [])
        b.A.from
  | A.Setop (_, l, r) ->
      (if convertible q <> None then [ (path, q) ] else [])
      @ find_nodes (path ^ "L") l
      @ find_nodes (path ^ "R") r

let tx =
  {
    Tx.name = "setop-to-join";
    discover =
      (fun _cat q ->
        List.map
          (fun (path, _) ->
            {
              Tx.block = "<setop>";
              key = path;
              label = Printf.sprintf "setop-join(%s)" path;
            })
          (find_nodes "@" q));
    apply_mask =
      (fun ?touched _cat q mask ->
        (* the selected nodes are converted as they stand in [q], so a
           selected node inside another is dropped with it *)
        let nodes = List.map snd (find_nodes "@" q) in
        match List.map snd (Tx.selected mask nodes) with
        | [] -> q
        | chosen ->
            let gen = Walk.fresh_alias_gen [ q ] in
            Tx.map_query_bottom_up ?touched
              ~replace:(fun n ->
                match convertible n with
                | Some (op, l, r) when List.memq n chosen ->
                    Some (convert gen op l r)
                | _ -> None)
              (fun b -> A.Block b) q);
  }

let discover = tx.Tx.discover
let objects = Tx.objects tx
let apply_mask = tx.Tx.apply_mask
let apply_all = Tx.apply_all tx
