(** Heuristic filter predicate move-around (Section 2.1.3).

    Imperative transformations that evaluate cheap filters as early as
    possible:

    - {b Pushdown into views}: a parent conjunct referencing only one
      view's outputs is cloned into every branch block of the view,
      substituted through the select list. Predicates over group-by
      outputs push below the GROUP BY (into WHERE); predicates over
      aggregate outputs push into HAVING; predicates over window
      outputs are only pushed when they reference a subset of every
      window function's PARTITION BY expressions (the paper's Q7 → Q8,
      the window-function extension unique to Oracle).

    - {b Transitive move-across}: within a block, [a.x = b.y] together
      with a constant restriction on [a.x] derives the same restriction
      on [b.y] (one round of transitive closure over the equi-join
      graph), enabling new access paths on the other table.

    Expensive predicates are left alone — moving them later is the
    business of cost-based predicate pullup (Section 2.2.6). *)

open Sqlir
module A = Ast

(* ------------------------------------------------------------------ *)
(* Transitive predicate generation                                      *)
(* ------------------------------------------------------------------ *)

let transitive_preds (b : A.block) : A.pred list =
  let eqs =
    List.filter_map
      (fun p ->
        match p with
        | A.Cmp (A.Eq, A.Col c1, A.Col c2)
          when not (String.equal c1.A.c_alias c2.A.c_alias) ->
            Some (c1, c2)
        | _ -> None)
      b.A.where
  in
  let derived = ref [] in
  let have p =
    List.exists (fun q -> q = p) (b.A.where @ !derived)
  in
  List.iter
    (fun p ->
      match p with
      | A.Cmp (op, A.Col c, (A.Const _ as v)) ->
          List.iter
            (fun (c1, c2) ->
              let other =
                if c1 = c then Some c2 else if c2 = c then Some c1 else None
              in
              match other with
              | Some o ->
                  let np = A.Cmp (op, A.Col o, v) in
                  if not (have np) then derived := np :: !derived
              | None -> ())
            eqs
      | A.In_list (A.Col c, vs) ->
          List.iter
            (fun (c1, c2) ->
              let other =
                if c1 = c then Some c2 else if c2 = c then Some c1 else None
              in
              match other with
              | Some o ->
                  let np = A.In_list (A.Col o, vs) in
                  if not (have np) then derived := np :: !derived
              | None -> ())
            eqs
      | _ -> ())
    b.A.where;
  List.rev !derived

(* ------------------------------------------------------------------ *)
(* Pushdown into views                                                  *)
(* ------------------------------------------------------------------ *)

(** Destination of a predicate pushed into one view branch. *)
type push_dest = To_where of A.pred | To_having of A.pred | No_push

let push_into_branch (p : A.pred) (valias : string) (lb : A.block) : push_dest =
  let subst =
    List.map (fun si -> (si.A.si_name, si.A.si_expr)) lb.A.select
  in
  match Walk.substitute_alias ~alias:valias ~subst p with
  | exception Not_found -> No_push
  | p' ->
      let has_agg =
        List.exists Walk.expr_has_agg
          (List.concat_map
             (fun c ->
               match List.assoc_opt c.A.c_col subst with
               | Some e when String.equal c.A.c_alias valias -> [ e ]
               | _ -> [])
             (Walk.pred_cols ~deep:true p))
      in
      let has_win =
        List.exists Walk.expr_has_win
          (List.concat_map
             (fun c ->
               match List.assoc_opt c.A.c_col subst with
               | Some e when String.equal c.A.c_alias valias -> [ e ]
               | _ -> [])
             (Walk.pred_cols ~deep:true p))
      in
      if has_win then No_push
      else if has_agg then To_having p'
      else if Walk.block_has_win lb then
        (* push below window functions only if the predicate's
           substituted columns are a subset of every window's
           PARTITION BY expressions *)
        let cols = Walk.pred_cols ~deep:true p' in
        let pby_ok =
          List.for_all
            (fun si ->
              let rec wins_of e =
                match e with
                | A.Win (_, _, w) -> [ w ]
                | A.Binop (_, a, b) -> wins_of a @ wins_of b
                | A.Neg a -> wins_of a
                | A.Fn (_, args) -> List.concat_map wins_of args
                | _ -> []
              in
              List.for_all
                (fun (w : A.win) ->
                  List.for_all
                    (fun c -> List.mem (A.Col c) w.A.w_pby)
                    cols)
                (wins_of si.A.si_expr))
            lb.A.select
        in
        if pby_ok then To_where p' else No_push
      else To_where p'

let pushable_into_view (b : A.block) (fe : A.from_entry) (p : A.pred) : bool =
  (not (Walk.pred_has_subquery p))
  && (not (Predicate_pullup.pred_expensive p))
  && Walk.Sset.equal
       (Walk.pred_aliases ~deep:false p)
       (Walk.Sset.singleton fe.A.fe_alias)
  && (match fe.A.fe_kind with A.J_inner -> true | _ -> false)
  &&
  match fe.A.fe_source with
  | A.S_view vq -> (
      ignore b;
      match Jppd.leaf_blocks vq with
      | Some leaves ->
          (not (Walk.is_correlated vq))
          && List.for_all
               (fun lb ->
                 lb.A.limit = None
                 && push_into_branch p fe.A.fe_alias lb <> No_push)
               leaves
      | None -> false)
  | A.S_table _ -> false

let rec push_query (p : A.pred) (valias : string) (q : A.query) : A.query =
  match q with
  | A.Block lb -> (
      match push_into_branch p valias lb with
      | To_where p' -> A.Block { lb with A.where = lb.A.where @ [ p' ] }
      | To_having p' -> A.Block { lb with A.having = lb.A.having @ [ p' ] }
      | No_push -> A.Block lb)
  | A.Setop (op, l, r) ->
      A.Setop (op, push_query p valias l, push_query p valias r)

let push_block (b : A.block) : A.block =
  let pushed = ref [] in
  let from =
    List.map
      (fun fe ->
        match fe.A.fe_source with
        | A.S_view vq ->
            let preds =
              List.filter (fun p -> pushable_into_view b fe p) b.A.where
            in
            if preds = [] then fe
            else (
              pushed := preds @ !pushed;
              {
                fe with
                A.fe_source =
                  A.S_view
                    (List.fold_left
                       (fun q p -> push_query p fe.A.fe_alias q)
                       vq preds);
              })
        | A.S_table _ -> fe)
      b.A.from
  in
  (* pushed predicates remain in the parent only if the view is not the
     sole evaluator; removing them is safe since the view now applies
     them (for inner joins) *)
  let where = List.filter (fun p -> not (List.memq p !pushed)) b.A.where in
  { b with A.from; where }

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

(** One pass of transitive generation + view pushdown on every block,
    repeated until a fixpoint (bounded to 4 rounds): a round has
    changed nothing when its result equals its input up to block names
    ({!Fingerprint.equal}). *)
let apply ?touched (_cat : Catalog.t) (q : A.query) : A.query =
  let round q =
    Tx.map_blocks_bottom_up ?touched
      (fun b ->
        let extra = transitive_preds b in
        let b =
          if extra = [] then b else { b with A.where = b.A.where @ extra }
        in
        push_block b)
      q
  in
  let rec fix n q =
    if n = 0 then q
    else
      let q' = round q in
      if Fingerprint.equal ~mode:With_peeks q' q then q else fix (n - 1) q'
  in
  fix 4 q
