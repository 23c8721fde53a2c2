(** Shared optimizer context: catalog, caches and counters, threaded
    through the split planner modules ({!Access_path}, {!Join_enum},
    {!Block_cost}) behind the {!Optimizer} façade.

    Two annotation caches implement the cost-annotation reuse of
    Section 3.4.2:

    - the {e identity cache} keys on the physical identity of the query
      node (plus the output alias). Transformations preserve sharing
      ({!Transform.Tx.map_blocks_bottom_up}), so a block untouched by a
      search state is the {e same} node across states and its annotation
      is found without re-fingerprinting or re-walking the subtree;
    - the {e fingerprint cache} keys on the structural fingerprint hash
      ({!Sqlir.Fingerprint}, [With_peeks] mode — bind-peek values
      matter for costing) mixed with the output alias, and catches
      structurally-equal blocks that are not physically shared (e.g. a
      view regenerated identically by two different masks). Hash
      buckets are verified by full structural comparison against the
      canonical form; a bucket entry that fails the comparison is a
      true hash collision and is counted
      ({!Opt_stats.t.fp_collisions}). Both caches deliberately ignore
      the outer environment, like the pre-split implementation.

    The [dirty] set is the transformation's report of which blocks the
    current state rebuilt ([qb_name]s). It is advisory: identity is the
    correctness guard; a clean block that misses the identity cache is
    only counted ({!Opt_stats.t.dirty_misses}), never mis-costed. *)

open Sqlir
module Info = Cost.Info
module Model = Cost.Model
module Sel = Cost.Selectivity
module Plan = Exec.Plan

exception Unsupported of string
exception Cost_cap_exceeded

(** Maximum number of FROM entries for exhaustive left-deep DP; larger
    blocks use a greedy ordering. *)
let dp_threshold = 9

(** Hashing on the physical identity of a query node. [Hashtbl.hash] is
    depth-bounded, so hashing is O(1) in the subtree size; [( == )]
    makes structural collisions harmless. *)
module Qtbl = Hashtbl.Make (struct
  type t = Ast.query

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type t = {
  cat : Catalog.t;
  stats : Opt_stats.t;
  annot_cache :
    (int, (string * Ast.query * Annotation.t) list) Hashtbl.t option;
      (** fingerprint-keyed annotation cache, shared across every state
          of every transformation of one driver run: structural hash ->
          [(out_alias, canonical query, annotation)] bucket *)
  ident_cache : (string * Annotation.t) list Qtbl.t;
      (** identity-keyed annotation cache: query node -> annotations by
          output alias; only populated when [annot_cache] is present *)
  mutable dirty : Walk.Sset.t option;
      (** block names the current search state rebuilt ([None] = no
          dirty information; everything may be new) *)
  mutable cost_cap : float option;
      (** abort optimization when a block's cost exceeds this (cost
          cut-off, Section 3.4.1); also drives branch-and-bound pruning
          inside {!Join_enum} *)
  mutable fresh : int;
  info_cache : (string, (string * Cost.Info.colinfo) list) Hashtbl.t;
      (** per-table column properties, derived from catalog statistics
          once per optimizer and reused across every state of every
          transformation — the analogue of the paper's caching of
          expensive optimizer computations such as dynamic sampling
          (Section 3.4.4) *)
  tracer : Obs.Trace.t;
      (** observability spans ({!Obs.Trace.disabled} unless the driver
          threads a live trace through) — block-level spans are emitted
          by {!Block_cost} for every optimization actually entered *)
  mutable block_hook : (Ast.query -> Annotation.t -> unit) option;
      (** invoked by {!Block_cost} on every freshly computed (non-cached)
          per-block annotation; the sanitizer installs the CB002/CB003
          cost cross-checks here. Exceptions propagate. *)
}

let create ?annot_cache ?(tracer = Obs.Trace.disabled) cat =
  {
    cat;
    stats = Opt_stats.create ();
    annot_cache;
    ident_cache = Qtbl.create 64;
    dirty = None;
    cost_cap = None;
    fresh = 0;
    info_cache = Hashtbl.create 32;
    tracer;
    block_hook = None;
  }

(** Annotation reuse is on iff a fingerprint cache was supplied. *)
let memo_enabled t = t.annot_cache <> None

let gensym t base =
  t.fresh <- t.fresh + 1;
  Printf.sprintf "%s%d" base t.fresh

(* ------------------------------------------------------------------ *)
(* Identity cache                                                       *)
(* ------------------------------------------------------------------ *)

let ident_find t ~(out_alias : string) (q : Ast.query) : Annotation.t option =
  match Qtbl.find_opt t.ident_cache q with
  | None -> None
  | Some entries -> List.assoc_opt out_alias entries

let ident_store t ~(out_alias : string) (q : Ast.query) (ann : Annotation.t) :
    unit =
  if memo_enabled t then
    let entries =
      match Qtbl.find_opt t.ident_cache q with None -> [] | Some es -> es
    in
    Qtbl.replace t.ident_cache q ((out_alias, ann) :: entries)

(* ------------------------------------------------------------------ *)
(* Fingerprint cache                                                    *)
(* ------------------------------------------------------------------ *)

(** Cache key of [q] under output alias [out_alias]: the [With_peeks]
    structural hash mixed with the alias, plus the canonical query the
    bucket entry is verified against. Computed once per probe/store
    pair. *)
let fp_key ~(out_alias : string) (q : Ast.query) : int * Ast.query =
  let kq = Fingerprint.canonical ~mode:With_peeks q in
  (Fingerprint.hash ~mode:With_peeks kq lxor Hashtbl.hash out_alias, kq)

let fp_find t ~(out_alias : string) ~(h : int) ~(kq : Ast.query) :
    Annotation.t option =
  match t.annot_cache with
  | None -> None
  | Some c -> (
      match Hashtbl.find_opt c h with
      | None -> None
      | Some entries ->
          let rec scan = function
            | [] -> None
            | (a, q', ann) :: rest ->
                if String.equal a out_alias && q' = kq then Some ann
                else (
                  (* same hash, different structure: a true collision *)
                  t.stats.Opt_stats.fp_collisions <-
                    t.stats.Opt_stats.fp_collisions + 1;
                  scan rest)
          in
          scan entries)

let fp_store t ~(out_alias : string) ~(h : int) ~(kq : Ast.query)
    (ann : Annotation.t) : unit =
  match t.annot_cache with
  | None -> ()
  | Some c ->
      let entries =
        match Hashtbl.find_opt c h with None -> [] | Some es -> es
      in
      Hashtbl.replace c h ((out_alias, kq, ann) :: entries)

(* ------------------------------------------------------------------ *)
(* Statistics helpers shared by the split modules                       *)
(* ------------------------------------------------------------------ *)

(** Table info with the Section 3.4.4 cache: the (alias-independent)
    per-column derivation happens once per optimizer instance. *)
let table_info t ~table ~alias : Info.rel_info =
  let cols =
    match Hashtbl.find_opt t.info_cache table with
    | Some cols -> cols
    | None ->
        let info = Info.of_table t.cat ~table ~alias:"$t" in
        let cols = List.map (fun ((_, c), ci) -> (c, ci)) info.Info.ri_cols in
        Hashtbl.replace t.info_cache table cols;
        cols
  in
  let rows =
    match Catalog.stats t.cat table with
    | Some s -> float_of_int (max 1 s.s_rows)
    | None -> 1000.
  in
  {
    Info.ri_rows = rows;
    ri_cols = List.map (fun (c, ci) -> ((alias, c), ci)) cols;
  }

let merge_env (infos : Info.rel_info list) : Info.rel_info =
  {
    Info.ri_rows = 1.;
    ri_cols = List.concat_map (fun i -> i.Info.ri_cols) infos;
  }

(** Filter-evaluation cost of [preds] over [rows] input rows, charging
    expensive procedural predicates per surviving row (cheap conjuncts
    are ordered first, both here and in the built plans). *)
let filter_cost env ~rows (preds : Ast.pred list) : float =
  let cheap = List.filter (fun p -> Plan.n_expensive_preds [ p ] = 0) preds in
  Model.pred_eval_cost ~rows
    ~cheap_sel:(Sel.conj_sel env cheap)
    ~n_expensive:(Plan.n_expensive_preds preds)

let default_expr_info env ~rows (e : Ast.expr) : Info.colinfo =
  match e with
  | Ast.Col c -> (
      match Info.find_col env c with
      | Some ci -> ci
      | None -> { Info.default_colinfo with ci_ndv = Float.max 1. rows })
  | Ast.Const v ->
      { Info.default_colinfo with ci_ndv = 1.; ci_min = v; ci_max = v }
  | Ast.Bind (_, v) when not (Value.is_null v) ->
      (* execution-constant; the peeked value steers the estimate *)
      { Info.default_colinfo with ci_ndv = 1.; ci_min = v; ci_max = v }
  | Ast.Agg ((Ast.Count | Ast.Count_star), _, _) ->
      { Info.default_colinfo with ci_ndv = Float.max 1. (rows /. 2.) }
  | _ -> { Info.default_colinfo with ci_ndv = Float.max 1. (rows /. 3.) }
