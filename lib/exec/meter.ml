(** Work metering.

    Every executor operator charges work units to a meter while it runs.
    The weighted total plays the role of execution time in the
    evaluation: it is hardware-independent, perfectly repeatable, and —
    crucially for reproducing Section 4 — it is the {e true} cost that
    the optimizer's {e estimated} cost approximates, so cost
    mis-estimation shows up as real regressions. *)

type t = {
  mutable rows_scanned : int;  (** tuples read by scans *)
  mutable pages_read : int;  (** heap pages touched by full scans *)
  mutable idx_probes : int;  (** B-tree descents *)
  mutable idx_entries : int;  (** index entries touched *)
  mutable rows_joined : int;  (** join-pair evaluations *)
  mutable hash_build : int;
  mutable hash_probe : int;
  mutable sort_compares : int;
  mutable agg_rows : int;  (** rows consumed by aggregation *)
  mutable rows_out : int;  (** rows produced by operators *)
  mutable subq_execs : int;  (** TIS subquery executions *)
  mutable subq_cache_hits : int;
  mutable expensive_calls : int;
      (** invocations of expensive (procedural / user-defined) functions,
          the subject of predicate pullup (Section 2.2.6) *)
  mutable key_build : int;
      (** values copied into TIS / NL-inner cache keys; the key-build
          cost of the subquery-filter caches (Section 2.1.1) *)
}

let create () =
  {
    rows_scanned = 0;
    pages_read = 0;
    idx_probes = 0;
    idx_entries = 0;
    rows_joined = 0;
    hash_build = 0;
    hash_probe = 0;
    sort_compares = 0;
    agg_rows = 0;
    rows_out = 0;
    subq_execs = 0;
    subq_cache_hits = 0;
    expensive_calls = 0;
    key_build = 0;
  }

let reset t =
  t.rows_scanned <- 0;
  t.pages_read <- 0;
  t.idx_probes <- 0;
  t.idx_entries <- 0;
  t.rows_joined <- 0;
  t.hash_build <- 0;
  t.hash_probe <- 0;
  t.sort_compares <- 0;
  t.agg_rows <- 0;
  t.rows_out <- 0;
  t.subq_execs <- 0;
  t.subq_cache_hits <- 0;
  t.expensive_calls <- 0;
  t.key_build <- 0

(* Weights chosen to mirror the cost model's relative charges: a page
   read costs about as much as processing the tuples on it; an index
   probe costs a few page reads' worth of pointer chasing. *)
let w_page = 50.
let w_row = 1.
let w_probe = 6.
let w_entry = 0.5
let w_join = 0.6
let w_hash_build = 1.5
let w_hash_probe = 0.8
let w_cmp = 0.35
let w_agg = 0.9
let w_out = 0.2
let w_expensive = 250.
let w_key = 0.05

(** Total work units charged so far. *)
let work t =
  (w_page *. float_of_int t.pages_read)
  +. (w_row *. float_of_int t.rows_scanned)
  +. (w_probe *. float_of_int t.idx_probes)
  +. (w_entry *. float_of_int t.idx_entries)
  +. (w_join *. float_of_int t.rows_joined)
  +. (w_hash_build *. float_of_int t.hash_build)
  +. (w_hash_probe *. float_of_int t.hash_probe)
  +. (w_cmp *. float_of_int t.sort_compares)
  +. (w_agg *. float_of_int t.agg_rows)
  +. (w_out *. float_of_int t.rows_out)
  +. (w_expensive *. float_of_int t.expensive_calls)
  +. (w_key *. float_of_int t.key_build)

let copy t =
  {
    rows_scanned = t.rows_scanned;
    pages_read = t.pages_read;
    idx_probes = t.idx_probes;
    idx_entries = t.idx_entries;
    rows_joined = t.rows_joined;
    hash_build = t.hash_build;
    hash_probe = t.hash_probe;
    sort_compares = t.sort_compares;
    agg_rows = t.agg_rows;
    rows_out = t.rows_out;
    subq_execs = t.subq_execs;
    subq_cache_hits = t.subq_cache_hits;
    expensive_calls = t.expensive_calls;
    key_build = t.key_build;
  }

(** [diff cur before] — the charges accrued between the [before]
    snapshot and [cur], as a fresh meter. Field-wise subtraction, so
    [work (diff cur before) = work cur - work before] exactly (the
    weighted total is linear in the fields). *)
let diff cur before =
  {
    rows_scanned = cur.rows_scanned - before.rows_scanned;
    pages_read = cur.pages_read - before.pages_read;
    idx_probes = cur.idx_probes - before.idx_probes;
    idx_entries = cur.idx_entries - before.idx_entries;
    rows_joined = cur.rows_joined - before.rows_joined;
    hash_build = cur.hash_build - before.hash_build;
    hash_probe = cur.hash_probe - before.hash_probe;
    sort_compares = cur.sort_compares - before.sort_compares;
    agg_rows = cur.agg_rows - before.agg_rows;
    rows_out = cur.rows_out - before.rows_out;
    subq_execs = cur.subq_execs - before.subq_execs;
    subq_cache_hits = cur.subq_cache_hits - before.subq_cache_hits;
    expensive_calls = cur.expensive_calls - before.expensive_calls;
    key_build = cur.key_build - before.key_build;
  }

(** [add acc d] accumulates [d] into [acc] in place. *)
let add acc d =
  acc.rows_scanned <- acc.rows_scanned + d.rows_scanned;
  acc.pages_read <- acc.pages_read + d.pages_read;
  acc.idx_probes <- acc.idx_probes + d.idx_probes;
  acc.idx_entries <- acc.idx_entries + d.idx_entries;
  acc.rows_joined <- acc.rows_joined + d.rows_joined;
  acc.hash_build <- acc.hash_build + d.hash_build;
  acc.hash_probe <- acc.hash_probe + d.hash_probe;
  acc.sort_compares <- acc.sort_compares + d.sort_compares;
  acc.agg_rows <- acc.agg_rows + d.agg_rows;
  acc.rows_out <- acc.rows_out + d.rows_out;
  acc.subq_execs <- acc.subq_execs + d.subq_execs;
  acc.subq_cache_hits <- acc.subq_cache_hits + d.subq_cache_hits;
  acc.expensive_calls <- acc.expensive_calls + d.expensive_calls;
  acc.key_build <- acc.key_build + d.key_build

(** The single canonical ordering of meter field names. Everything that
    renders or keys meter fields — {!to_fields}, EXPLAIN ANALYZE
    columns, trace sinks, the metrics registry, the query store — must
    derive from this list so a newly added field cannot silently drift
    out of one surface (a sync unit test enforces it). *)
let field_names =
  [
    "rows_scanned";
    "pages_read";
    "idx_probes";
    "idx_entries";
    "rows_joined";
    "hash_build";
    "hash_probe";
    "sort_compares";
    "agg_rows";
    "rows_out";
    "subq_execs";
    "subq_cache_hits";
    "expensive_calls";
    "key_build";
  ]

(** Field values in the canonical {!field_names} order, as one flat
    array. The allocation-light accessor for per-execution accounting
    (metrics registry, query store): one unboxed int array, no pairs. *)
let values t =
  [|
    t.rows_scanned;
    t.pages_read;
    t.idx_probes;
    t.idx_entries;
    t.rows_joined;
    t.hash_build;
    t.hash_probe;
    t.sort_compares;
    t.agg_rows;
    t.rows_out;
    t.subq_execs;
    t.subq_cache_hits;
    t.expensive_calls;
    t.key_build;
  |]

(** Field name / value pairs, for structured sinks and for tests that
    check meter algebra field by field. Built by zipping the canonical
    {!field_names} with {!values} — [List.combine] raises if the two
    ever disagree in length, so a field added to {!t} without a name
    (or vice versa) fails loudly. *)
let to_fields t = List.combine field_names (Array.to_list (values t))

let pp ppf t =
  Fmt.pf ppf
    "scan=%d pages=%d probes=%d entries=%d join=%d hb=%d hp=%d cmp=%d agg=%d \
     out=%d subq=%d cache=%d key=%d work=%.0f"
    t.rows_scanned t.pages_read t.idx_probes t.idx_entries t.rows_joined
    t.hash_build t.hash_probe t.sort_compares t.agg_rows t.rows_out
    t.subq_execs t.subq_cache_hits t.key_build (work t)

(* ------------------------------------------------------------------ *)
(* Columnar buffer accounting                                           *)
(* ------------------------------------------------------------------ *)

(** Words allocated for columnar buffers — typed column vectors, null
    bitmaps, selection vectors — since process start. Deliberately kept
    {e outside} {!t}: the row and vectorized engines must stay
    meter-equal field by field (the differential oracle the test suite
    checks), and buffer allocation is an engine artifact, not query
    work. The bench reads this counter to report honest bytes/row under
    the struct-of-arrays layout: [Gc.allocated_bytes] already includes
    these buffers, and the explicit counter shows how much of the total
    they are (and would keep counting them if the buffers ever moved
    off the OCaml heap). Atomic: exchange tasks build column images on
    helper domains. *)
let vec_alloc_words = Atomic.make 0

let charge_vec_alloc words =
  ignore (Atomic.fetch_and_add vec_alloc_words words)
let vec_alloc_bytes () = Atomic.get vec_alloc_words * (Sys.word_size / 8)
