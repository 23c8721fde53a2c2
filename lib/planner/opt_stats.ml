(** Optimizer observability counters (Section 3.4 accounting).

    One record per optimizer instance, shared by reference across the
    split planner modules ({!Opt_ctx}, {!Block_cost}, {!Join_enum}) and
    surfaced through [Driver.report] and the bench JSON.

    [blocks_optimized] is counted at {e completion} of a query-block
    optimization — a block whose optimization is aborted mid-way by the
    cost cut-off (branch-and-bound pruning in {!Join_enum}, or a nested
    block exceeding the cap) counts as started but not optimized, which
    is exactly the work the cut-off saves. *)

type t = {
  mutable blocks_started : int;
      (** query-block optimizations entered (cache misses) *)
  mutable blocks_optimized : int;
      (** query-block optimizations completed — the unit of Table 1 /
          Table 2 accounting *)
  mutable fp_hits : int;
      (** annotation reuse via the fingerprint-keyed cache
          (Section 3.4.2) *)
  mutable ident_hits : int;
      (** annotation reuse via physical identity of the query node —
          no re-fingerprinting, no re-walking *)
  mutable dp_pruned : int;
      (** partial join orders discarded by branch-and-bound against the
          state cost cap (Section 3.4.1 pushed into the DP), each
          distinct partial once *)
  mutable dirty_misses : int;
      (** blocks reported clean by the transformation's dirty set that
          nevertheless missed the identity cache (advisory: indicates a
          transformation over-copying untouched blocks) *)
  mutable fp_collisions : int;
      (** fingerprint-hash bucket entries whose full structural
          comparison failed on probe — true hash collisions, expected to
          stay at (or very near) zero *)
}

let create () =
  {
    blocks_started = 0;
    blocks_optimized = 0;
    fp_hits = 0;
    ident_hits = 0;
    dp_pruned = 0;
    dirty_misses = 0;
    fp_collisions = 0;
  }

let reset s =
  s.blocks_started <- 0;
  s.blocks_optimized <- 0;
  s.fp_hits <- 0;
  s.ident_hits <- 0;
  s.dp_pruned <- 0;
  s.dirty_misses <- 0;
  s.fp_collisions <- 0

(** Block optimizations entered but aborted by the cost cut-off. *)
let blocks_aborted s = s.blocks_started - s.blocks_optimized

(** Total annotation reuse, identity and fingerprint combined (the
    pre-split [cache_hits] figure). *)
let cache_hits s = s.fp_hits + s.ident_hits

let copy s =
  {
    blocks_started = s.blocks_started;
    blocks_optimized = s.blocks_optimized;
    fp_hits = s.fp_hits;
    ident_hits = s.ident_hits;
    dp_pruned = s.dp_pruned;
    dirty_misses = s.dirty_misses;
    fp_collisions = s.fp_collisions;
  }

(** [delta ~before ~after] — counter increments between two snapshots,
    as trace attributes. Keys carry the ["d_"] prefix the trace
    validator checks for non-negativity (counters only ever grow). *)
let delta ~before ~after : (string * int) list =
  [
    ("d_blocks_started", after.blocks_started - before.blocks_started);
    ("d_blocks_optimized", after.blocks_optimized - before.blocks_optimized);
    ("d_fp_hits", after.fp_hits - before.fp_hits);
    ("d_ident_hits", after.ident_hits - before.ident_hits);
    ("d_dp_pruned", after.dp_pruned - before.dp_pruned);
    ("d_dirty_misses", after.dirty_misses - before.dirty_misses);
    ("d_fp_collisions", after.fp_collisions - before.fp_collisions);
  ]

let pp ppf s =
  Fmt.pf ppf
    "blocks optimized %d (aborted %d), reuse ident %d + fp %d, dp pruned %d, \
     dirty misses %d, fp collisions %d"
    s.blocks_optimized (blocks_aborted s) s.ident_hits s.fp_hits s.dp_pruned
    s.dirty_misses s.fp_collisions
