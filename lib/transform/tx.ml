(** Shared infrastructure for transformations.

    Every transformation is either {e heuristic} (imperative, in the
    paper's terms: applied wherever legal) or {e cost-based} (exposing a
    list of transformation objects for the CBQT framework to search
    over). The common traversals live here. *)

open Sqlir
module A = Ast

(** Map [f] over a list preserving physical identity: if [f] returns
    every element unchanged (by [==]), the original list is returned, so
    an untouched spine stays shared with the input. *)
let map_sharing (f : 'a -> 'a) (l : 'a list) : 'a list =
  let changed = ref false in
  let l' =
    List.map
      (fun x ->
        let y = f x in
        if y != x then changed := true;
        y)
      l
  in
  if !changed then l' else l

(** Record a rewritten block in the optional touched-block accumulator.
    Keys are [qb_name]s — the dirty-set protocol (DESIGN.md): a
    transformation must report every block whose subtree it rebuilt;
    blocks it returns physically unchanged keep their annotations. *)
let mark_touched (touched : Walk.Sset.t ref option) (b : A.block) : unit =
  match touched with
  | None -> ()
  | Some r -> r := Walk.Sset.add b.A.qb_name !r

(** Iterate over every block of [q], bottom-up: nested views and
    subqueries before the enclosing block. *)
let rec iter_blocks (f : A.block -> unit) (q : A.query) : unit =
  match q with
  | A.Setop (_, l, r) ->
      iter_blocks f l;
      iter_blocks f r
  | A.Block b ->
      List.iter
        (fun fe ->
          (match fe.A.fe_source with
          | A.S_view v -> iter_blocks f v
          | A.S_table _ -> ());
          List.iter (iter_pred_blocks f) fe.A.fe_cond)
        b.A.from;
      List.iter (iter_pred_blocks f) b.A.where;
      List.iter (iter_pred_blocks f) b.A.having;
      f b

and iter_pred_blocks (f : A.block -> unit) (p : A.pred) : unit =
  match p with
  | A.In_subq (_, q)
  | A.Not_in_subq (_, q)
  | A.Exists q
  | A.Not_exists q
  | A.Cmp_subq (_, _, _, q) ->
      iter_blocks f q
  | A.Not a | A.Lnnvl a -> iter_pred_blocks f a
  | A.And (a, b) | A.Or (a, b) ->
      iter_pred_blocks f a;
      iter_pred_blocks f b
  | _ -> ()

(** Record every block of [q] in the optional touched-block accumulator. *)
let mark_all (touched : Walk.Sset.t ref option) (q : A.query) : unit =
  match touched with
  | None -> ()
  | Some r -> iter_blocks (fun b -> r := Walk.Sset.add b.A.qb_name !r) q

(** The blocks of [out] that are {e not} physically shared with [base]:
    an identity diff of the two trees, for checking that a
    transformation's [?touched] report covers everything it rebuilt.
    Returns the [qb_name]s of the fresh blocks in [out]. *)
let dirty_blocks (base : A.query) (out : A.query) : Walk.Sset.t =
  let module H = Hashtbl.Make (struct
    type t = A.block

    let equal = ( == )
    let hash = Hashtbl.hash
  end) in
  let seen = H.create 64 in
  iter_blocks (fun b -> H.replace seen b ()) base;
  let dirty = ref Walk.Sset.empty in
  iter_blocks
    (fun b ->
      if not (H.mem seen b) then dirty := Walk.Sset.add b.A.qb_name !dirty)
    out;
  !dirty

(** Rewrite every block of [q], bottom-up: nested views and subqueries
    are rewritten before the enclosing block. [f] returns the block
    (rewritten or not) or a query that replaces it; [replace] is tried on
    every query node before its subtrees are visited, and a [Some]
    result stands for the node unvisited.

    The traversal is {e sharing-preserving}: any node whose subtree is
    left unchanged (physically, by [==]) is returned as the original
    node, so untouched blocks stay physically identical across rewrite
    alternatives and the planner can reuse their cost annotations by
    identity. When [?touched] is given, the [qb_name]s of the rebuilt
    blocks are accumulated into it: a block rewritten under its own name
    is recorded with every nested block its result does not share with
    its input; a replacement (a set operation, a block under another
    name, or a [replace] result) is recorded with all of its blocks. *)
let rec map_query_bottom_up ?touched ?(replace = fun _ -> None)
    (f : A.block -> A.query) (q : A.query) : A.query =
  match replace q with
  | Some q' ->
      mark_all touched q';
      q'
  | None -> (
      match q with
      | A.Setop (op, l, r) ->
          let l' = map_query_bottom_up ?touched ~replace f l in
          let r' = map_query_bottom_up ?touched ~replace f r in
          if l' == l && r' == r then q else A.Setop (op, l', r')
      | A.Block b -> (
          let rewrite_pred p =
            map_pred_queries (map_query_bottom_up ?touched ~replace f) p
          in
          let from' =
            map_sharing
              (fun fe ->
                let src' =
                  match fe.A.fe_source with
                  | A.S_table _ -> fe.A.fe_source
                  | A.S_view v ->
                      let v' = map_query_bottom_up ?touched ~replace f v in
                      if v' == v then fe.A.fe_source else A.S_view v'
                in
                let cond' = map_sharing rewrite_pred fe.A.fe_cond in
                if src' == fe.A.fe_source && cond' == fe.A.fe_cond then fe
                else { fe with A.fe_source = src'; fe_cond = cond' })
              b.A.from
          in
          let where' = map_sharing rewrite_pred b.A.where in
          let having' = map_sharing rewrite_pred b.A.having in
          let b1 =
            if
              from' == b.A.from && where' == b.A.where
              && having' == b.A.having
            then b
            else { b with A.from = from'; where = where'; having = having' }
          in
          match f b1 with
          | A.Block b2 when b2 == b -> q
          | A.Block b2 when b2 == b1 ->
              mark_touched touched b;
              A.Block b1
          | A.Block b2 as q' when String.equal b2.A.qb_name b.A.qb_name ->
              mark_touched touched b;
              (* [f] may have synthesized new nested blocks (e.g. a
                 generated group-by view) *)
              (match touched with
              | Some r -> r := Walk.Sset.union !r (dirty_blocks (A.Block b1) q')
              | None -> ());
              q'
          | q' ->
              mark_all touched q';
              q'))

(** Rewrite the subqueries embedded in a predicate
    (sharing-preserving, like {!map_blocks_bottom_up}). *)
and map_pred_queries (f : A.query -> A.query) (p : A.pred) : A.pred =
  match p with
  | A.In_subq (es, q) ->
      let q' = f q in
      if q' == q then p else A.In_subq (es, q')
  | A.Not_in_subq (es, q) ->
      let q' = f q in
      if q' == q then p else A.Not_in_subq (es, q')
  | A.Exists q ->
      let q' = f q in
      if q' == q then p else A.Exists q'
  | A.Not_exists q ->
      let q' = f q in
      if q' == q then p else A.Not_exists q'
  | A.Cmp_subq (op, e, qt, q) ->
      let q' = f q in
      if q' == q then p else A.Cmp_subq (op, e, qt, q')
  | A.Not a ->
      let a' = map_pred_queries f a in
      if a' == a then p else A.Not a'
  | A.Lnnvl a ->
      let a' = map_pred_queries f a in
      if a' == a then p else A.Lnnvl a'
  | A.And (a, b) ->
      let a' = map_pred_queries f a in
      let b' = map_pred_queries f b in
      if a' == a && b' == b then p else A.And (a', b')
  | A.Or (a, b) ->
      let a' = map_pred_queries f a in
      let b' = map_pred_queries f b in
      if a' == a && b' == b then p else A.Or (a', b')
  | p -> p

(** {!map_query_bottom_up} for a per-block rewrite that returns a block. *)
let map_blocks_bottom_up ?touched (f : A.block -> A.block) (q : A.query) :
    A.query =
  map_query_bottom_up ?touched (fun b -> A.Block (f b)) q

(** Count the blocks that satisfy [pred]. *)
let count_blocks (f : A.block -> bool) (q : A.query) : int =
  let n = ref 0 in
  iter_blocks (fun b -> if f b then incr n) q;
  !n

(** Is the query a single plain block (no set operators)? *)
let single_block = function A.Block b -> Some b | A.Setop _ -> None

(** Is [e] a simple SPJ block: no aggregation, no distinct, no window,
    no order/limit, all FROM entries inner? *)
let is_spj (b : A.block) =
  (not (Walk.block_has_agg b))
  && (not (Walk.block_has_win b))
  && (not b.A.distinct)
  && b.A.group_by = [] && b.A.having = [] && b.A.order_by = []
  && b.A.limit = None
  && List.for_all A.is_inner b.A.from

(** Predicates of [b] that reference any alias outside [b]'s own FROM:
    the correlation conjuncts. Returns (correlated, local). *)
let split_correlation (b : A.block) : A.pred list * A.pred list =
  let local = Walk.defined_aliases b in
  List.partition
    (fun p ->
      not (Walk.Sset.subset (Walk.pred_aliases ~deep:true p) local))
    b.A.where

(** Columns of alias [a] referenced anywhere in the block outside its
    own FROM entry definition (select, where, group by, having, order
    by, other entries' conditions and views). *)
let alias_refs_in_block (b : A.block) (a : string) : string list =
  let cols = ref [] in
  let record c =
    if String.equal c.A.c_alias a && not (List.mem c.A.c_col !cols) then
      cols := c.A.c_col :: !cols
  in
  let fold_pred p =
    ignore (Walk.fold_pred_cols ~deep:true (fun () c -> record c) () p)
  in
  let fold_expr e = ignore (Walk.fold_expr_cols (fun () c -> record c) () e) in
  List.iter (fun si -> fold_expr si.A.si_expr) b.A.select;
  List.iter fold_pred b.A.where;
  List.iter fold_expr b.A.group_by;
  List.iter fold_pred b.A.having;
  List.iter (fun (e, _) -> fold_expr e) b.A.order_by;
  List.iter
    (fun fe ->
      List.iter fold_pred fe.A.fe_cond;
      match fe.A.fe_source with
      | A.S_view v ->
          ignore
            (Walk.fold_query_cols (fun () c -> record c) () v)
      | A.S_table _ -> ())
    b.A.from;
  List.rev !cols

(** Substitute view-output columns by their defining expressions,
    everywhere in a block (deeply, including correlated references
    inside subqueries). *)
let substitute_view_cols ~(alias : string) ~(subst : (string * A.expr) list)
    (b : A.block) : A.block =
  let f c =
    if String.equal c.A.c_alias alias then
      match List.assoc_opt c.A.c_col subst with
      | Some e -> e
      | None -> A.Col c
    else A.Col c
  in
  Walk.map_block_cols f b

(* The deprecated [deep_copy] identity is gone: the IR is immutable, so
   the paper's "capability for deep copying query blocks" (Section 3.1)
   comes for free. Per-state copying would also defeat the
   identity-keyed annotation reuse in {!Planner.Optimizer};
   {!Analysis.Copy_check} (rule TX001) alerts when a transformation
   rebuilds blocks it did not change. *)

(** Primary-or-unique key of a base-table entry, if declared. *)
let entry_key (cat : Catalog.t) (fe : A.from_entry) : string list option =
  match fe.A.fe_source with
  | A.S_view _ -> None
  | A.S_table t ->
      let def = Catalog.find_table cat t in
      if def.t_pkey <> [] then Some def.t_pkey
      else (
        match def.t_uniques with key :: _ -> Some key | [] -> None)

(* ------------------------------------------------------------------ *)
(* Cost-based transformations (paper Section 3.1)                       *)
(* ------------------------------------------------------------------ *)

(** A transformation object: the [qb_name] of the block it lives in, a
    key that finds it again inside that block, and the label naming it
    in traces and search reports. *)
type obj = { block : string; key : string; label : string }

(** A cost-based transformation: its objects, in state-bit order, and
    the application of a state — a mask with one bit per object (bits
    past the end are unset). The application returns the input tree
    physically unchanged for the all-unset state and reports the blocks
    it rebuilt in [?touched] (the dirty-set protocol, DESIGN.md). *)
type t = {
  name : string;
  discover : Catalog.t -> A.query -> obj list;
  apply_mask :
    ?touched:Walk.Sset.t ref -> Catalog.t -> A.query -> bool list -> A.query;
}

let objects (t : t) (cat : Catalog.t) (q : A.query) : string list =
  List.map (fun o -> o.label) (t.discover cat q)

let apply_all (t : t) (cat : Catalog.t) (q : A.query) : A.query =
  t.apply_mask cat q (List.map (fun _ -> true) (t.discover cat q))

(** The elements of [xs] whose bit is set in [mask], with their index. *)
let selected (mask : bool list) (xs : 'a list) : (int * 'a) list =
  let rec go i mask xs =
    match (mask, xs) with
    | true :: mask, x :: xs -> (i, x) :: go (i + 1) mask xs
    | false :: mask, _ :: xs -> go (i + 1) mask xs
    | [], _ | _, [] -> []
  in
  go 0 mask xs

(** A selected object as the replay hands it to its transformation. *)
type site = {
  index : int;  (** the object's state bit *)
  nth : int;  (** earlier objects of the same block with the same key *)
  key : string;
  visit : A.block;
      (** the block as the traversal reached it, before any of its
          objects was applied *)
}

(** A cost-based transformation whose objects live in query blocks.

    [find cat b] lists the objects of block [b] alone as [(key, tag)]
    pairs, labelled ["qb:tag"]; discovery visits the blocks in the order
    {!map_query_bottom_up} rewrites them. [apply cat q] is evaluated once
    per mask application (it may hold fresh-name state over [q]); the
    function it returns applies one selected object to its block as
    rewritten by the block's earlier objects. It re-checks the object
    there and returns the block unchanged when an earlier application
    invalidated it, or a query to replace the block; a block replaced by
    a set operation takes no further objects. *)
let in_blocks ~(name : string)
    ~(find : Catalog.t -> A.block -> (string * string) list)
    ~(apply : Catalog.t -> A.query -> site -> A.block -> A.query) : t =
  let discover cat q =
    let objs = ref [] in
    iter_blocks
      (fun b ->
        List.iter
          (fun (key, tag) ->
            objs :=
              { block = b.A.qb_name; key; label = b.A.qb_name ^ ":" ^ tag }
              :: !objs)
          (find cat b))
      q;
    List.rev !objs
  in
  let apply_mask ?touched cat q mask =
    let seen = Hashtbl.create 8 in
    let with_nth o =
      let nth =
        Option.value ~default:0 (Hashtbl.find_opt seen (o.block, o.key))
      in
      Hashtbl.replace seen (o.block, o.key) (nth + 1);
      (nth, o)
    in
    match selected mask (List.map with_nth (discover cat q)) with
    | [] -> q
    | plan ->
        let apply1 = apply cat q in
        map_query_bottom_up ?touched
          (fun b ->
            List.fold_left
              (fun acc (index, (nth, o)) ->
                match acc with
                | A.Block cur when String.equal o.block b.A.qb_name ->
                    apply1 { index; nth; key = o.key; visit = b } cur
                | _ -> acc)
              (A.Block b) plan)
          q
  in
  { name; discover; apply_mask }

(** The entry of [b] with alias [alias]. *)
let entry (b : A.block) (alias : string) : A.from_entry option =
  List.find_opt (fun fe -> String.equal fe.A.fe_alias alias) b.A.from

(* ------------------------------------------------------------------ *)
(* Property-delta reporting                                             *)
(* ------------------------------------------------------------------ *)

(** Structural delta between the before/after versions of one query
    block, paired by [qb_name]. This is the unit {!Analysis.Sem_check}
    verifies: each SEM rule looks for a characteristic delta (a removed
    subquery predicate, a dropped FROM entry, a changed GROUP BY, …) and
    demands the corresponding legality witness. Only blocks whose name
    occurs exactly once in each tree are paired — transformations that
    rename blocks ([_or<i>], [_sj], …) opt out of delta checking by
    construction. *)
type block_delta = {
  bd_name : string;
  bd_before : A.block;
  bd_after : A.block;
  bd_removed_entries : A.from_entry list;  (** in before-FROM order *)
  bd_added_entries : A.from_entry list;  (** in after-FROM order *)
  bd_kind_changes : (A.from_entry * A.from_entry) list;
      (** same alias on both sides, different join role *)
  bd_removed_where : A.pred list;  (** in before-WHERE order *)
  bd_added_where : A.pred list;  (** in after-WHERE order *)
  bd_group_changed : bool;
  bd_select_names_changed : bool;
}

let multiset_diff (pp : 'a -> string) (xs : 'a list) (ys : 'a list) : 'a list =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun y ->
      let k = pp y in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    ys;
  List.filter
    (fun x ->
      let k = pp x in
      match Hashtbl.find_opt counts k with
      | Some n when n > 0 ->
          Hashtbl.replace counts k (n - 1);
          false
      | _ -> true)
    xs

let block_delta (before : A.block) (after : A.block) : block_delta =
  let aliases b = List.map (fun fe -> fe.A.fe_alias) b.A.from in
  let removed_entries =
    List.filter
      (fun fe -> not (List.mem fe.A.fe_alias (aliases after)))
      before.A.from
  in
  let added_entries =
    List.filter
      (fun fe -> not (List.mem fe.A.fe_alias (aliases before)))
      after.A.from
  in
  let kind_changes =
    List.filter_map
      (fun bfe ->
        match
          List.find_opt
            (fun afe -> afe.A.fe_alias = bfe.A.fe_alias)
            after.A.from
        with
        | Some afe when afe.A.fe_kind <> bfe.A.fe_kind -> Some (bfe, afe)
        | _ -> None)
      before.A.from
  in
  let pp = Pp.pred_to_string in
  {
    bd_name = before.A.qb_name;
    bd_before = before;
    bd_after = after;
    bd_removed_entries = removed_entries;
    bd_added_entries = added_entries;
    bd_kind_changes = kind_changes;
    bd_removed_where = multiset_diff pp before.A.where after.A.where;
    bd_added_where = multiset_diff pp after.A.where before.A.where;
    bd_group_changed =
      List.map Pp.expr_to_string before.A.group_by
      <> List.map Pp.expr_to_string after.A.group_by;
    bd_select_names_changed =
      List.map (fun si -> si.A.si_name) before.A.select
      <> List.map (fun si -> si.A.si_name) after.A.select;
  }

(** Pair the blocks of [base] and [out] by [qb_name] (names occurring
    exactly once on each side) and report the non-empty deltas. Blocks
    physically shared between the trees are skipped outright. *)
let query_deltas ~(base : A.query) ~(out : A.query) : block_delta list =
  let collect q =
    let tbl = Hashtbl.create 16 in
    iter_blocks
      (fun b ->
        Hashtbl.replace tbl b.A.qb_name
          (match Hashtbl.find_opt tbl b.A.qb_name with
          | None -> [ b ]
          | Some bs -> b :: bs))
      q;
    tbl
  in
  let bt = collect base and at = collect out in
  let deltas = ref [] in
  Hashtbl.iter
    (fun name bs ->
      match (bs, Hashtbl.find_opt at name) with
      | [ b ], Some [ a ] when b != a ->
          let d = block_delta b a in
          if
            d.bd_removed_entries <> [] || d.bd_added_entries <> []
            || d.bd_kind_changes <> [] || d.bd_removed_where <> []
            || d.bd_added_where <> [] || d.bd_group_changed
            || d.bd_select_names_changed
          then deltas := d :: !deltas
      | _ -> ())
    bt;
  List.sort (fun a b -> compare a.bd_name b.bd_name) !deltas
