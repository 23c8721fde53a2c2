(** Public façade of the physical optimizer.

    A System-R style per-query-block optimizer: it chooses access paths
    (full scan vs. B-tree index), join order (left-deep dynamic
    programming, greedy beyond a size threshold) and join methods
    (nested loops with or without index, hash, sort-merge), honouring
    the partial orders that semijoin, antijoin, outerjoin and
    correlated (join-predicate-pushed-down) views impose on the join
    sequence (Sections 2.1.1 and 2.2.3).

    The implementation is split by layer:

    - {!Opt_ctx} — catalog, DP threshold, annotation caches (identity +
      fingerprint), cost cap, dirty set, counters;
    - {!Access_path} — per-table access-path choice and join methods;
    - {!Join_enum} — left-deep DP with partial-order constraints and
      branch-and-bound pruning against the state cost cap;
    - {!Block_cost} — per-block costing recursion and the annotation
      store;
    - {!Opt_stats} — observability counters.

    Callers keep compiling against [Opt.*]: the context record and its
    exceptions are re-exported here. *)

exception Unsupported = Opt_ctx.Unsupported
exception Cost_cap_exceeded = Opt_ctx.Cost_cap_exceeded

type t = Opt_ctx.t = {
  cat : Catalog.t;
  stats : Opt_stats.t;
  annot_cache :
    (int, (string * Sqlir.Ast.query * Annotation.t) list) Hashtbl.t option;
  ident_cache : (string * Annotation.t) list Opt_ctx.Qtbl.t;
  mutable dirty : Sqlir.Walk.Sset.t option;
  mutable cost_cap : float option;
  mutable fresh : int;
  info_cache : (string, (string * Cost.Info.colinfo) list) Hashtbl.t;
  tracer : Obs.Trace.t;
  mutable block_hook : (Sqlir.Ast.query -> Annotation.t -> unit) option;
}

let create = Opt_ctx.create

(* --- counters (see {!Opt_stats} for the full set) --- *)

let blocks_optimized (t : t) = t.stats.Opt_stats.blocks_optimized
let cache_hits (t : t) = Opt_stats.cache_hits t.stats
let stats (t : t) = t.stats

(* --- incremental-costing controls --- *)

let set_cost_cap (t : t) cap = t.cost_cap <- cap

(** Declare which blocks the next query to be optimized rebuilt
    ([None] = no information; everything may be new). Advisory — see
    {!Opt_ctx}. *)
let set_dirty (t : t) dirty = t.dirty <- dirty

(** Install (or clear) the per-block annotation hook — called on every
    freshly computed block annotation; the driver's check mode wires the
    CB-series cost cross-checks through it. *)
let set_block_hook (t : t) hook = t.block_hook <- hook

let optimize (t : t) (q : Sqlir.Ast.query) : Annotation.t =
  Block_cost.optimize_query t ~outer:Cost.Info.empty ~out_alias:"" q
