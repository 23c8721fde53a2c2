(** Bounded shared plan cache: structural query fingerprint -> compiled
    plan.

    Keys are the {!Sqlir.Fingerprint} [Generic]-mode hash of the
    canonical parameterized query (bind-peek values excluded — one
    cached plan serves every bind vector of the same query shape).
    Probes are verified against the canonical query itself, so a hash
    collision is only counted, never returned.

    Entries carry the stats-epoch snapshot of every base table the
    query reads. The cache itself never consults the catalog:
    {!Service} compares the snapshot against the live epochs on each
    hit and drives recompilation ({e lazy invalidation} — a bumped
    epoch costs nothing until the next probe of an affected plan).

    Storage, sharding, least-recently-used replacement and the exact
    hit / miss / collision / eviction / memory accounting are
    {!Concur.Lru}'s: every operation takes one shard lock, so workers
    probing different shards never contend. Those counters are the only
    count of evictions and footprint; {!publish_metrics} publishes the
    registry's [plan_cache_*] metrics from them at report time. Racing
    hard parses of the same new query are deduped at insert: [store]
    returns the entry that won, and the loser's plan is dropped rather
    than double-counted. The default [shards = 1] keeps one global LRU
    order.

    Each entry also carries its {e executable form} ({!exec}): the
    plan every execution actually runs, built by the first execution
    and shared by every worker. It lives and dies with the entry, so
    eviction and invalidation release it with the plan. *)

open Sqlir
module A = Ast
module Mx = Obs.Metrics
module Lru = Concur.Lru

(* the cache's footprint and churn, published to the process-wide
   registry by [publish_metrics] at report time from the LRU's own
   counters, so the hot path never sums shards *)
let m_evictions = Mx.counter Mx.default "plan_cache_evictions_total"
let m_words = Mx.gauge Mx.default "plan_cache_memory_words"
let m_entries = Mx.gauge Mx.default "plan_cache_entries"

(** What an execution runs: the optimizer's plan after the
    {!Planner.Parallel} post-pass, and the {!Planner.Plan_est} per-node
    cardinality hints over that plan, which drive the executor's hybrid
    engine choice. Immutable once built: [x_card_of] only reads a
    finished table, so any domain may call it. *)
type exec = { x_plan : Exec.Plan.t; x_card_of : Exec.Plan.t -> float option }

(** Build the executable form of [plan] at degree-of-parallelism policy
    [dop]. *)
let executable (cat : Catalog.t) ~(dop : Planner.Parallel.dop)
    (plan : Exec.Plan.t) : exec =
  let x_plan = Planner.Parallel.apply cat ~dop plan in
  { x_plan; x_card_of = Planner.Plan_est.pipeline_hints cat x_plan }

type entry = {
  e_key : A.query;
      (** canonical ([Generic]) parameterized query — the verified part
          of the cache key *)
  e_ann : Planner.Annotation.t;  (** optimized plan + cost annotation *)
  e_binds : int;  (** size of the bind vector the plan references *)
  e_tables : string list;  (** base tables the query reads *)
  mutable e_epochs : (string * int) list;
      (** stats-epoch snapshot per table, refreshed on revalidation;
          mutated only under the owning shard's lock *)
  e_exec : exec option Atomic.t;
      (** executable form of [e_ann]'s plan, [None] until the first
          execution builds it ({!exec_of}); write-once. Built after
          insertion, so {!memory_words} does not count it. *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
      (** probes whose epoch snapshot was stale (recompiled; the old
          plan may still have been kept by the cost-delta guard) *)
  collisions : int;  (** bucket entries that failed the key comparison *)
}

type t = {
  lru : (A.query, entry) Lru.t;
  invalidations : int Atomic.t;
  evictions_pub : int Atomic.t;
      (** the LRU eviction count already added to the registry *)
}

(** [shards] is rounded up to a power of two; the default [1] keeps the
    single-lock, single-LRU behavior of a private cache. A server
    passes its worker count (or more) so probes spread over
    independently-locked shards. *)
let create ?(capacity = 128) ?(shards = 1) () =
  {
    lru = Lru.create ~capacity ~shards;
    invalidations = Atomic.make 0;
    evictions_pub = Atomic.make 0;
  }

(** Point-in-time totals summed over the shards. *)
let stats t : stats =
  let s = Lru.stats t.lru in
  {
    hits = s.hits;
    misses = s.misses;
    evictions = s.evictions;
    invalidations = Atomic.get t.invalidations;
    collisions = s.collisions;
  }

let memory_words t = (Lru.stats t.lru).words
let length t = (Lru.stats t.lru).entries

(** Probe for [key] under hash [h]: counts a hit or a miss and bumps
    the entry's recency. *)
let find t ~(h : int) ~(key : A.query) : entry option = Lru.find t.lru ~h key

(** Insert a fresh entry, evicting its shard down to capacity first.
    Returns the stored entry — which is the {e winning} entry if
    another domain raced the same key in first. *)
let store t ~(h : int) ~(key : A.query) ~(ann : Planner.Annotation.t)
    ~(binds : int) ~(tables : string list) ~(epochs : (string * int) list) :
    entry =
  Lru.add t.lru ~h key (fun () ->
      {
        e_key = key;
        e_ann = ann;
        e_binds = binds;
        e_tables = tables;
        e_epochs = epochs;
        e_exec = Atomic.make None;
      })

(** Replace [old_e] (same hash bucket) with a recompiled entry.
    Tolerates [old_e] having been evicted or replaced concurrently —
    the result is the entry now live for the key. *)
let replace t ~(h : int) ~(old_e : entry) ~(ann : Planner.Annotation.t)
    ~(epochs : (string * int) list) : entry =
  Lru.replace t.lru ~h ~old:old_e old_e.e_key
    (fun () ->
      { old_e with e_ann = ann; e_epochs = epochs; e_exec = Atomic.make None })

(** The executable form of [e], built at [dop] by the first caller.
    Racing first builds each compute one and the first published wins,
    which is the rule {!store} applies to racing hard parses. Every
    caller sharing the cache should therefore pass the same [dop]. *)
let exec_of (e : entry) (cat : Catalog.t) ~(dop : Planner.Parallel.dop) :
    exec =
  match Atomic.get e.e_exec with
  | Some x -> x
  | None ->
      let x = executable cat ~dop e.e_ann.Planner.Annotation.an_plan in
      if Atomic.compare_and_set e.e_exec None (Some x) then x
      else Option.get (Atomic.get e.e_exec)

(** [h] names the probe's hash like every other operation; the count
    itself is one atomic add. *)
let count_invalidation t ~h:(_ : int) = Atomic.incr t.invalidations

(** Refresh a revalidated entry's epoch snapshot under its shard lock,
    so a concurrent reader never observes a half-published snapshot
    list. *)
let refresh_epochs t ~(h : int) (e : entry) ~(epochs : (string * int) list) =
  Lru.exclusive t.lru ~h (fun () -> e.e_epochs <- epochs)

(** Push the footprint gauges and the evictions since the last publish
    to the registry (report-time; the hot path never pays the shard
    sweep). Services sharing the cache publish concurrently: each claims
    its delta by compare-and-set, so an eviction is added once and the
    counter never steps back when a staler snapshot loses the race. *)
let publish_metrics t =
  if !Mx.enabled then begin
    let s = Lru.stats t.lru in
    let rec claim () =
      let pub = Atomic.get t.evictions_pub in
      if s.evictions > pub then
        if Atomic.compare_and_set t.evictions_pub pub s.evictions then
          Mx.add m_evictions (s.evictions - pub)
        else claim ()
    in
    claim ();
    Mx.set m_words (float_of_int s.words);
    Mx.set m_entries (float_of_int s.entries)
  end

let hit_rate t =
  let st = stats t in
  let total = st.hits + st.misses in
  if total = 0 then 0. else float_of_int st.hits /. float_of_int total
