(** Per-shape query store: an AWR-style workload repository.

    One entry per canonical query — the same key the plan cache uses,
    so every literal variant of a query shape accumulates into one
    record. Each entry carries execution and parse counts, a latency
    histogram ({!Metrics.histogram}, constant-memory), rows returned,
    per-field meter totals, the engine mix (row vs vectorized
    pipelines), transformation attempt/accept counts from the optimizer
    report of every hard parse, and per-operator Q-error aggregates
    from EXPLAIN-ANALYZE feedback. This is the data foundation adaptive
    reoptimization needs: which shapes dominate total time, where
    estimates go wrong, and whether the cost-based transformations pay
    off per shape.

    The store is a {!Concur.Lru} keyed by the caller's fingerprint hash
    and verified against the caller's canonical key, so two shapes whose
    fingerprints collide keep two entries. It is bounded: when a {e new}
    shape would exceed the capacity, the least-recently-executed entry
    is evicted (and counted).

    {b Domain safety.} [observe] performs {e every} mutation of the
    entry — counts, meters, the embedded latency histogram, and the
    optional hard-parse transformation and Q-error attachments — under
    the one shard lock of its key, so an entry's fields never tear
    apart under concurrent executions of the same query shape and no
    observation is lost. The default [shards = 1] keeps the single-lock
    behavior (and one global LRU order) of a private store.

    Generic in the key type so it can live below {!Sqlir} in the build
    graph; the service layer owns the fingerprinting and rendering. The
    JSON snapshot separates wall-clock-derived fields under a per-entry
    ["wall"] object so that, for a fixed workload and seed, the rest of
    the snapshot is bit-identical across runs — the determinism
    property the test suite checks. *)

module M = Metrics

type entry = {
  qe_fp : int;  (** Generic fingerprint hash *)
  qe_text : string;  (** canonical parameterized query, one line *)
  mutable qe_execs : int;
  mutable qe_soft : int;  (** soft parses (cache hits) *)
  mutable qe_hard : int;  (** hard parses (miss / invalidated / revalidated) *)
  mutable qe_reval : int;  (** hard parses kept by the cost-delta guard *)
  mutable qe_inval : int;  (** hard parses that replaced the plan *)
  mutable qe_rows : int;  (** total rows returned *)
  qe_secs : float array;
      (** [exec; parse] total wall seconds. A flat float array rather
          than mutable float fields so accumulating them in the mixed
          record does not box per execution. *)
  qe_latency : M.histogram;  (** per-execution wall seconds *)
  qe_meter_names : string array;  (** canonical meter field names *)
  qe_meter : int array;  (** meter field totals, same order *)
  mutable qe_vec_pipelines : int;
  mutable qe_row_pipelines : int;
  mutable qe_dop_max : int;
      (** max effective exchange worker count observed; 0 = serial *)
  mutable qe_parts_scanned : int;  (** partitions actually read *)
  mutable qe_parts_pruned : int;  (** partitions skipped by pruning *)
  qe_tx : (string, int * int) Hashtbl.t;  (** tx -> (attempts, accepts) *)
  mutable qe_qerr_max : float;  (** worst per-operator Q-error observed *)
  mutable qe_qerr_sum : float;
  mutable qe_qerr_n : int;  (** per-operator Q-error samples *)
}

(** Total execution / parse wall seconds accumulated by an entry. *)
let qe_exec_s e = e.qe_secs.(0)

let qe_parse_s e = e.qe_secs.(1)

(** A store whose entries are verified against keys of type ['k]. *)
type 'k t = ('k, entry) Concur.Lru.t

let create ?(capacity = 256) ?(shards = 1) () : 'k t =
  Concur.Lru.create ~capacity ~shards

let length (t : _ t) = (Concur.Lru.stats t).entries
let evictions (t : _ t) = (Concur.Lru.stats t).evictions
let entries (t : _ t) : entry list = Concur.Lru.values t

(** One execution observed for the canonical query [key] with
    fingerprint hash [fp]. [text] is evaluated only when the entry is
    created (rendering the canonical query is not hot-path work).
    [meter] is the execution's meter delta in the canonical order named
    by [meter_names] ([Exec.Meter.field_names] upstream); callers pass
    one shared physically-equal [meter_names] array, which keeps
    accumulation a positional unboxed loop. Raises [Invalid_argument]
    when [meter_names] or the length of [meter] differ from the
    entry's. [txs] (transformation attempts of a hard parse) and
    [qerrs] (per-operator Q-errors of an EXPLAIN-ANALYZE run) are
    folded in under the same shard lock as the rest of the update.
    Returns the (created or updated) entry. *)
let observe ?(txs : (string * bool) list = []) ?(qerrs : float list = [])
    ?(dop = 0) ?(parts_scanned = 0) ?(parts_pruned = 0) (t : 'k t) ~(fp : int)
    ~(key : 'k) ~(text : unit -> string) ~(outcome : string) ~(rows : int)
    ~(exec_s : float) ~(parse_s : float) ~(meter_names : string array)
    ~(meter : int array) ~(vec_pipelines : int) ~(row_pipelines : int) : entry
    =
  let fresh () =
    {
      qe_fp = fp;
      qe_text = text ();
      qe_execs = 0;
      qe_soft = 0;
      qe_hard = 0;
      qe_reval = 0;
      qe_inval = 0;
      qe_rows = 0;
      qe_secs = [| 0.; 0. |];
      qe_latency = M.hist_create "latency_seconds";
      qe_meter_names = meter_names;
      qe_meter = Array.make (Array.length meter_names) 0;
      qe_vec_pipelines = 0;
      qe_row_pipelines = 0;
      qe_dop_max = 0;
      qe_parts_scanned = 0;
      qe_parts_pruned = 0;
      qe_tx = Hashtbl.create 8;
      qe_qerr_max = nan;
      qe_qerr_sum = 0.;
      qe_qerr_n = 0;
    }
  in
  let update e =
    if
      (e.qe_meter_names != meter_names && e.qe_meter_names <> meter_names)
      || Array.length meter <> Array.length e.qe_meter
    then
      invalid_arg "Query_store.observe: meter fields differ from the entry's";
    e.qe_execs <- e.qe_execs + 1;
    (match outcome with
    | "hit" -> e.qe_soft <- e.qe_soft + 1
    | "miss" -> e.qe_hard <- e.qe_hard + 1
    | "revalidated" ->
        e.qe_hard <- e.qe_hard + 1;
        e.qe_reval <- e.qe_reval + 1
    | "invalidated" ->
        e.qe_hard <- e.qe_hard + 1;
        e.qe_inval <- e.qe_inval + 1
    | _ -> e.qe_hard <- e.qe_hard + 1);
    e.qe_rows <- e.qe_rows + rows;
    e.qe_secs.(0) <- e.qe_secs.(0) +. exec_s;
    e.qe_secs.(1) <- e.qe_secs.(1) +. parse_s;
    M.observe e.qe_latency exec_s;
    Array.iteri (fun i v -> e.qe_meter.(i) <- e.qe_meter.(i) + v) meter;
    e.qe_vec_pipelines <- e.qe_vec_pipelines + vec_pipelines;
    e.qe_row_pipelines <- e.qe_row_pipelines + row_pipelines;
    if dop > e.qe_dop_max then e.qe_dop_max <- dop;
    e.qe_parts_scanned <- e.qe_parts_scanned + parts_scanned;
    e.qe_parts_pruned <- e.qe_parts_pruned + parts_pruned;
    List.iter
      (fun (name, accepted) ->
        let att, acc =
          match Hashtbl.find_opt e.qe_tx name with Some p -> p | None -> (0, 0)
        in
        Hashtbl.replace e.qe_tx name
          (att + 1, if accepted then acc + 1 else acc))
      txs;
    List.iter
      (fun q ->
        if Float.is_finite q then begin
          if Float.is_nan e.qe_qerr_max || q > e.qe_qerr_max then
            e.qe_qerr_max <- q;
          e.qe_qerr_sum <- e.qe_qerr_sum +. q;
          e.qe_qerr_n <- e.qe_qerr_n + 1
        end)
      qerrs
  in
  Concur.Lru.add ~update t ~h:fp key fresh

let qerr_mean e =
  if e.qe_qerr_n = 0 then nan else e.qe_qerr_sum /. float_of_int e.qe_qerr_n

(* ------------------------------------------------------------------ *)
(* Top-N reports                                                        *)
(* ------------------------------------------------------------------ *)

type order = By_time | By_qerr | By_execs

let order_name = function
  | By_time -> "total time"
  | By_qerr -> "q-error"
  | By_execs -> "executions"

(** Sort key: the requested measure descending, then (fp, text) for a
    deterministic total order. *)
let top t (order : order) (n : int) : entry list =
  let measure e =
    match order with
    | By_time -> qe_exec_s e +. qe_parse_s e
    | By_qerr -> if Float.is_nan e.qe_qerr_max then neg_infinity else e.qe_qerr_max
    | By_execs -> float_of_int e.qe_execs
  in
  let sorted =
    List.sort
      (fun a b ->
        match compare (measure b) (measure a) with
        | 0 -> compare (a.qe_fp, a.qe_text) (b.qe_fp, b.qe_text)
        | c -> c)
      (entries t)
  in
  List.filteri (fun i _ -> i < n) sorted

let truncate_text n s =
  if String.length s <= n then s else String.sub s 0 (n - 1) ^ "~"

let meter_field e name =
  match Array.find_index (String.equal name) e.qe_meter_names with
  | Some i -> e.qe_meter.(i)
  | None -> 0

(** One aligned top-N table. *)
let top_table t (order : order) (n : int) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "top %d by %s\n" n (order_name order));
  Buffer.add_string buf
    (Printf.sprintf "  %-16s %6s %5s %5s %9s %9s %8s %7s %7s  %s\n"
       "fingerprint" "execs" "soft" "hard" "rows" "time_ms" "p99_ms" "qe_max"
       "qe_mean" "query");
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  %016x %6d %5d %5d %9d %9.2f %8.2f %7s %7s  %s\n"
           e.qe_fp e.qe_execs e.qe_soft e.qe_hard e.qe_rows
           (1000. *. (qe_exec_s e +. qe_parse_s e))
           (1000. *. M.quantile e.qe_latency 0.99)
           (if Float.is_nan e.qe_qerr_max then "-"
            else Printf.sprintf "%.2f" e.qe_qerr_max)
           (if e.qe_qerr_n = 0 then "-"
            else Printf.sprintf "%.2f" (qerr_mean e))
           (truncate_text 48 e.qe_text)))
    (top t order n);
  Buffer.contents buf

(** The standard three-table report: by total time, by worst Q-error,
    by executions. *)
let report_string ?(top_n = 10) t : string =
  String.concat "\n"
    [
      Printf.sprintf "query store: %d fingerprints, %d evictions" (length t)
        (evictions t);
      top_table t By_time top_n;
      top_table t By_qerr top_n;
      top_table t By_execs top_n;
    ]

(* ------------------------------------------------------------------ *)
(* JSON snapshot                                                        *)
(* ------------------------------------------------------------------ *)

let jfloat f = if Float.is_finite f then Json.Float f else Json.Null

(** Snapshot of one entry. Deterministic for a fixed workload and
    seed, except the fields under ["wall"] (wall-clock derived:
    timings and the latency histogram); [wall:false] drops them. *)
let entry_to_json ?(wall = true) (e : entry) : Json.t =
  let tx =
    Hashtbl.fold (fun name (att, acc) l -> (name, att, acc) :: l) e.qe_tx []
    |> List.sort compare
    |> List.map (fun (name, att, acc) ->
           ( name,
             Json.Obj [ ("attempts", Json.Int att); ("accepts", Json.Int acc) ]
           ))
  in
  let base =
    [
      ("fingerprint", Json.Str (Printf.sprintf "%016x" e.qe_fp));
      ("query", Json.Str e.qe_text);
      ("executions", Json.Int e.qe_execs);
      ("soft_parses", Json.Int e.qe_soft);
      ("hard_parses", Json.Int e.qe_hard);
      ("revalidated", Json.Int e.qe_reval);
      ("invalidated", Json.Int e.qe_inval);
      ("rows", Json.Int e.qe_rows);
      ( "meter",
        Json.Obj
          (List.map2
             (fun n v -> (n, Json.Int v))
             (Array.to_list e.qe_meter_names)
             (Array.to_list e.qe_meter)) );
      ("vec_pipelines", Json.Int e.qe_vec_pipelines);
      ("row_pipelines", Json.Int e.qe_row_pipelines);
      ("dop_max", Json.Int e.qe_dop_max);
      ("parts_scanned", Json.Int e.qe_parts_scanned);
      ("parts_pruned", Json.Int e.qe_parts_pruned);
      ("transformations", Json.Obj tx);
      ("qerr_max", jfloat e.qe_qerr_max);
      ("qerr_mean", jfloat (qerr_mean e));
      ("qerr_samples", Json.Int e.qe_qerr_n);
    ]
  in
  if not wall then Json.Obj base
  else
    Json.Obj
      (base
      @ [
          ( "wall",
            Json.Obj
              [
                ("exec_s", jfloat (qe_exec_s e));
                ("parse_s", jfloat (qe_parse_s e));
                ("latency", M.hist_to_json e.qe_latency);
              ] );
        ])

(** Whole-store snapshot, entries sorted by (fingerprint, text) so two
    runs of the same workload produce the same document (modulo the
    per-entry ["wall"] objects; [wall:false] makes it bit-identical). *)
let to_json ?(wall = true) t : Json.t =
  let es =
    List.sort
      (fun a b -> compare (a.qe_fp, a.qe_text) (b.qe_fp, b.qe_text))
      (entries t)
  in
  Json.Obj
    [
      ("fingerprints", Json.Int (length t));
      ("evictions", Json.Int (evictions t));
      ("entries", Json.List (List.map (entry_to_json ~wall) es));
    ]
