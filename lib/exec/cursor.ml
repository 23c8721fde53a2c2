(** Shared execution substrate for the row ({!Executor}) and columnar
    ({!Vector}) engines: the cursor protocol, block combinators, the
    execution context with the hybrid engine choice, the engine stats
    (the executor's one count of dispatches, partitions and DOP; it
    writes no registry counter), analyze-mode statistics, and the
    aggregation accumulators.

    Both engines compile plans into trees of {!cursor}s exchanging
    {!Batch.t} blocks, charge work to the same {!Meter}, and must stay
    meter-equal field by field — everything here is engine-neutral so
    neither side can drift. *)

open Sqlir
module A = Ast
module Db = Storage.Db
module Relation = Storage.Relation
module B = Batch
module Vec = Batch.Vec

type row = Eval.row
type layout = Eval.layout

(* ------------------------------------------------------------------ *)
(* Engine choice                                                        *)
(* ------------------------------------------------------------------ *)

(** Which interpretation the executor uses for eligible pipelines.
    [Auto] consults the planner's cardinality estimate per pipeline
    (vectorized for high-cardinality scans, row for tiny ones); [Row]
    and [Vector] force one path, for differential testing and
    benchmarking. Operators outside the vectorizable grammar always run
    on the row path, whatever the mode. *)
type engine = Auto | Row | Vector

let engine_name = function Auto -> "auto" | Row -> "row" | Vector -> "vector"

let engine_of_string = function
  | "auto" -> Some Auto
  | "row" -> Some Row
  | "vector" | "vectorized" -> Some Vector
  | _ -> None

(** Per-execution counters of engine choices, one count per pipeline
    source (scan) prepared, plus the partition-execution counters of
    this run: partitions scanned / pruned by [Part_scan]s and
    [Exchange]s, and the widest effective exchange DOP. The only
    counter of these facts: trace spans, the service report, the query
    store and the registry's [exec_*] metrics (published per request by
    the service) all read this record. *)
type engine_stats = {
  mutable es_vector : int;
  mutable es_row : int;
  mutable es_parts_scanned : int;
  mutable es_parts_pruned : int;
  mutable es_dop : int;  (** max effective [Exchange] worker count; 0 = serial *)
}

let engine_stats_create () =
  { es_vector = 0; es_row = 0; es_parts_scanned = 0; es_parts_pruned = 0; es_dop = 0 }

(** Count a pruning outcome: [scanned] surviving partitions read,
    [pruned] skipped. *)
let count_parts (es : engine_stats) ~scanned ~pruned =
  es.es_parts_scanned <- es.es_parts_scanned + scanned;
  es.es_parts_pruned <- es.es_parts_pruned + pruned

(** Fold one exchange task's engine stats into the caller's, the way
    its meter folds into the caller's meter. *)
let add_engine_stats (d : engine_stats) (src : engine_stats) =
  d.es_vector <- d.es_vector + src.es_vector;
  d.es_row <- d.es_row + src.es_row;
  d.es_parts_scanned <- d.es_parts_scanned + src.es_parts_scanned;
  d.es_parts_pruned <- d.es_parts_pruned + src.es_parts_pruned;
  d.es_dop <- max d.es_dop src.es_dop

(* the two per-event histograms no per-request record copies: batch
   fills and the exchange task-queue depth a worker sees as it claims
   a task. Module-level handles, so any domain may observe them. *)
module Mx = Obs.Metrics

let m_batch_fill = Mx.histogram Mx.default "exec_batch_fill_rows"
let m_exchange_queue = Mx.histogram Mx.default "exec_exchange_queue_depth"

let observe_exchange_queue depth =
  if !Mx.enabled then Mx.observe_int m_exchange_queue depth

let observe_batch_fill (b : B.t) =
  if !Mx.enabled then Mx.observe_int m_batch_fill b.B.len

(* ------------------------------------------------------------------ *)
(* Analyze-mode statistics                                              *)
(* ------------------------------------------------------------------ *)

(** Per-operator runtime statistics collected in analyze mode. Rows and
    meter charges accumulate over {e all} executions of the node
    (nested-loop inner sides and TIS subquery plans run once per outer
    row), and the meter includes the node's children — the self-only
    share is recovered at report time by subtracting the children's
    totals. [ns_engine] records which engine interpreted the node;
    [ns_sel_in] counts the rows entering a vectorized operator (its
    selection-vector capacity), so [ns_rows /. ns_sel_in] is the
    operator's selection density; it stays 0 for row-engine nodes. *)
type node_stat = {
  mutable ns_calls : int;
  mutable ns_rows : int;
  ns_meter : Meter.t;
  mutable ns_engine : string;  (** "row" or "vector" *)
  mutable ns_sel_in : int;
}

(* plan nodes keyed by physical identity: annotation reuse can share
   subtrees, and a shared node must accumulate into one stat record *)
module Ptbl = Hashtbl.Make (struct
  type t = Plan.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let node_stat_of (tbl : node_stat Ptbl.t) (p : Plan.t) : node_stat =
  match Ptbl.find_opt tbl p with
  | Some st -> st
  | None ->
      let st =
        {
          ns_calls = 0;
          ns_rows = 0;
          ns_meter = Meter.create ();
          ns_engine = "row";
          ns_sel_in = 0;
        }
      in
      Ptbl.add tbl p st;
      st

(* ------------------------------------------------------------------ *)
(* Execution context                                                    *)
(* ------------------------------------------------------------------ *)

type ctx = {
  db : Db.t;
  meter : Meter.t;
  analyze : node_stat Ptbl.t option;
  binds : Value.t array;  (** values for the plan's [Bind] markers *)
  size : int;  (** batch capacity, rows per block / vector segment *)
  engine : engine;
  card_of : Plan.t -> float option;
      (** planner cardinality hint per plan node (physical identity);
          [None] falls back to the table's actual cardinality. Read
          only while preparing; exchange tasks inherit it unchanged and
          are prepared on the calling domain, so it is never read on a
          helper domain. *)
  vector_threshold : float;
      (** [Auto] vectorizes a pipeline whose source-scan cardinality
          estimate reaches this *)
  estats : engine_stats;
  restrict : int option;
      (** partition restriction installed by an {!Plan.Exchange} task:
          [Some i] makes every [Part_scan] in the (sub)plan read only
          partition [i] (when [i] survives its pruning), [None] reads
          every surviving partition. Top-level executions always start
          at [None]. *)
}

(** The rows a table or partition scan reads, shared by both engines:
    per open, charge the node's access cost and return the rows to read
    as ascending [lo, hi) slices of an array. A table scan is the single
    slice [0, n) of the heap at [Relation.pages]. A partition scan is
    the slices of its surviving partitions at the sum of their
    [part_pages] — partitions being contiguous ascending slices of
    [r_rows], an unpruned partition scan reads exactly the rows of a
    table scan, in the same order. *)
let scan_slices (ctx : ctx) (p : Plan.t) :
    unit -> row array * (int * int) array =
  let meter = ctx.meter in
  match p with
  | Plan.Table_scan { table; _ } ->
      let rel = Db.relation ctx.db table in
      let rows = rel.Relation.r_rows in
      let whole = (rows, [| (0, Array.length rows) |]) in
      fun () ->
        meter.pages_read <- meter.pages_read + Relation.pages rel;
        whole
  | Plan.Part_scan { table; prune; _ } ->
      let rel = Db.relation ctx.db table in
      let spec =
        match Relation.part rel with
        | Some pt -> pt.Relation.p_spec
        | None ->
            invalid_arg
              (Printf.sprintf "Executor: PART SCAN over unpartitioned %s"
                 table)
      in
      fun () ->
        (* pruning happens here, against the actual binds of this
           execution — never against plan-time values *)
        let surv = Prune.survivors_runtime ~binds:ctx.binds spec prune in
        let surv =
          match ctx.restrict with
          | None ->
              (* a top-level (non-exchange) scan accounts its pruning
                 outcome; under an exchange the Exchange node accounts
                 it once per execution, not once per task *)
              count_parts ctx.estats ~scanned:(List.length surv)
                ~pruned:(spec.Catalog.ps_n - List.length surv);
              surv
          | Some i -> if List.mem i surv then [ i ] else []
        in
        List.iter
          (fun i ->
            meter.pages_read <- meter.pages_read + Relation.part_pages rel i)
          surv;
        ( rel.Relation.r_rows,
          Array.of_list (List.map (Relation.part_bounds rel) surv) )
  | _ -> invalid_arg "Cursor.scan_slices: not a table or partition scan"

(** Split join conjuncts into the equi-conjuncts usable as hash or merge
    keys — (left expr, right expr) pairs, in conjunct order — and the
    residual conjuncts, by the aliases each side of an equality reads
    from the [left] and [right] input layouts. *)
let equi_split (left : layout) (right : layout) (cond : A.pred list) :
    (A.expr * A.expr) list * A.pred list =
  let module S = Walk.Sset in
  let aliases l = Array.fold_left (fun s (a, _) -> S.add a s) S.empty l in
  let la = aliases left and ra = aliases right in
  List.fold_left
    (fun (keys, residual) c ->
      match c with
      | A.Cmp (A.Eq, a, b) ->
          let aa = Walk.expr_aliases a and ab = Walk.expr_aliases b in
          if S.subset aa la && S.subset ab ra then (keys @ [ (a, b) ], residual)
          else if S.subset ab la && S.subset aa ra then
            (keys @ [ (b, a) ], residual)
          else (keys, residual @ [ c ])
      | _ -> (keys, residual @ [ c ]))
    ([], []) cond

let charge_sort ctx n =
  if n > 1 then
    ctx.meter.Meter.sort_compares <-
      ctx.meter.Meter.sort_compares
      + int_of_float (float_of_int n *. (log (float_of_int n) /. log 2.))

(* ------------------------------------------------------------------ *)
(* Aggregation accumulators                                             *)
(* ------------------------------------------------------------------ *)

module Vkey = Map.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare_total
end)

type acc = {
  mutable a_count : int;
  mutable a_sum : Value.t;  (* running sum; Null until first value *)
  mutable a_min : Value.t;
  mutable a_max : Value.t;
  mutable a_seen : unit Vkey.t;  (* for DISTINCT aggregates *)
}

let acc_create () =
  {
    a_count = 0;
    a_sum = Value.Null;
    a_min = Value.Null;
    a_max = Value.Null;
    a_seen = Vkey.empty;
  }

let acc_add distinct acc (v : Value.t) =
  let proceed =
    if not distinct then true
    else if Vkey.mem [ v ] acc.a_seen then false
    else (
      acc.a_seen <- Vkey.add [ v ] () acc.a_seen;
      true)
  in
  if proceed && not (Value.is_null v) then (
    acc.a_count <- acc.a_count + 1;
    acc.a_sum <-
      (if Value.is_null acc.a_sum then v else Value.arith `Add acc.a_sum v);
    acc.a_min <-
      (if Value.is_null acc.a_min || Value.compare_total v acc.a_min < 0 then v
       else acc.a_min);
    acc.a_max <-
      (if Value.is_null acc.a_max || Value.compare_total v acc.a_max > 0 then v
       else acc.a_max))

let acc_result (a : A.agg) acc ~rows_in_group =
  match a with
  | A.Count_star -> Value.Int rows_in_group
  | A.Count -> Value.Int acc.a_count
  | A.Sum -> acc.a_sum
  | A.Min -> acc.a_min
  | A.Max -> acc.a_max
  | A.Avg ->
      if acc.a_count = 0 then Value.Null
      else Value.arith `Div acc.a_sum (Value.Int acc.a_count)

(* A [Partial_agg] group's state columns for one aggregate: Avg
   decomposes into running sum + non-null count, the only
   decomposition that recombines exactly (see
   {!Plan.partial_state_cols}). *)
let partial_state nrows (a : A.agg) acc =
  match a with
  | A.Count_star -> [ Value.Int nrows ]
  | A.Count -> [ Value.Int acc.a_count ]
  | A.Sum -> [ acc.a_sum ]
  | A.Min -> [ acc.a_min ]
  | A.Max -> [ acc.a_max ]
  | A.Avg -> [ acc.a_sum; Value.Int acc.a_count ]

(* Single-value keys with the equality of value-list keys (Int and
   Float compare numerically under [Value.compare_total], so numeric
   values hash through their float image): join buckets on one-column
   fk equi-joins and one-key group tables skip the per-row key-list
   allocation. *)
module Hval = Hashtbl.Make (struct
  type t = Value.t

  let equal a b = Value.compare_total a b = 0
  let hash = Value.hash_total
end)

(* ------------------------------------------------------------------ *)
(* Cursors                                                              *)
(* ------------------------------------------------------------------ *)

(** The operator interface. [c_open] (re)binds the correlation rows and
    resets per-execution state; [c_next] yields the next block, [None]
    at end of stream. The returned batch belongs to the cursor and is
    reused by the following [c_next] — row pointers may be retained,
    the container may not. Cursors are re-openable: nested-loop inner
    sides and TIS sub-plans are opened once per (uncached) outer row.
    Prepare-time state (result caches) survives re-opens; per-execution
    state does not. *)
type cursor = {
  c_open : row list -> unit;
  c_next : unit -> B.t option;
  c_close : unit -> unit;
}

(** Open [c] under [orows], stream every row through [f], close it.
    For consumers that fold over the stream once (hash builds,
    aggregation, the root result), this avoids materializing — and
    repeatedly regrowing — an intermediate vector. *)
let iter_rows (c : cursor) (orows : row list) (f : row -> unit) : unit =
  c.c_open orows;
  let rec go () =
    match c.c_next () with
    | Some b ->
        observe_batch_fill b;
        B.iter f b;
        go ()
    | None -> ()
  in
  go ();
  c.c_close ()

(** Open [c] under [orows], pull it dry into a row vector, close it. *)
let drain (c : cursor) (orows : row list) : Vec.t =
  c.c_open orows;
  let v = Vec.create () in
  let rec go () =
    match c.c_next () with
    | Some b ->
        observe_batch_fill b;
        Vec.blit_in v b.B.data b.B.len;
        go ()
    | None -> ()
  in
  go ();
  c.c_close ();
  v

(** Streaming (non-expanding) operator: each input row contributes at
    most one output row, pushed by the per-open step function. Input
    blocks are consumed whole (they may be larger than [size] — view
    batches carry a breaker's entire result) and each non-empty
    survivor set is emitted as one view batch, so rows are never copied
    out in capacity-sized chunks. *)
let streaming ?(on_open = fun (_ : row list) -> ()) ~size (child : cursor)
    (step : row list -> row -> Vec.t -> unit) : cursor =
  let out = Vec.create ~cap:size () in
  let orows_r = ref [] in
  let c_open orows =
    on_open orows;
    orows_r := orows;
    child.c_open orows
  in
  let rec fill () =
    match child.c_next () with
    | None -> if Vec.length out = 0 then None else Some (Vec.to_batch out)
    | Some b ->
        let orows = !orows_r in
        (* at most one output row per input row: one growth, not a
           doubling series, when a view batch outgrows the buffer *)
        Vec.reserve out (Vec.length out + b.B.len);
        B.iter (fun r -> step orows r out) b;
        if Vec.length out > 0 then Some (Vec.to_batch out) else fill ()
  in
  let c_next () =
    Vec.clear out;
    fill ()
  in
  { c_open; c_next; c_close = child.c_close }

(** Expanding operator (joins): each input row may contribute any number
    of output rows, pushed into a pending vector that is emitted as one
    view batch per consumed input block. *)
let expanding ?(on_open = fun (_ : row list) -> ()) ~size (child : cursor)
    (step : row list -> row -> Vec.t -> unit) : cursor =
  let pending = Vec.create ~cap:size () in
  let orows_r = ref [] in
  let c_open orows =
    on_open orows;
    orows_r := orows;
    Vec.clear pending;
    child.c_open orows
  in
  let rec c_next () =
    match child.c_next () with
    | None -> None
    | Some b ->
        Vec.clear pending;
        let orows = !orows_r in
        B.iter (fun r -> step orows r pending) b;
        if Vec.length pending > 0 then Some (Vec.to_batch pending)
        else c_next ()
  in
  { c_open; c_next; c_close = child.c_close }

(** Pipeline breaker: [build] opens and drains its input(s) itself and
    returns the complete materialized result, which is then emitted as
    a single view batch. *)
let breaker (build : row list -> Vec.t) : cursor =
  let result : Vec.t option ref = ref None in
  let emitted = ref false in
  let orows_r = ref [] in
  let c_open orows =
    orows_r := orows;
    result := None;
    emitted := false
  in
  let c_next () =
    let v =
      match !result with
      | Some v -> v
      | None ->
          let v = build !orows_r in
          result := Some v;
          v
    in
    if !emitted || Vec.length v = 0 then None
    else begin
      emitted := true;
      Some (Vec.to_batch v)
    end
  in
  { c_open; c_next; c_close = (fun () -> result := None) }
