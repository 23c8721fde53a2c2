(** Metrics registry: named counters, gauges and log-bucketed
    histograms with JSON and Prometheus exporters.

    The registry is the always-on complement of {!Trace}: traces record
    {e one} run in full detail, the registry accumulates {e every} run
    into constant-memory aggregates that survive a whole [serve]
    session. Metrics are created once (find-or-create by name + label
    set) and then updated through their handle, so the hot-path cost of
    a counter bump is one atomic add; call sites that sit inside
    per-batch loops additionally gate on {!enabled} so the bench can
    measure the on/off delta honestly.

    {b Domain safety.} Every metric is safe to update concurrently from
    multiple domains and loses no observations:

    - counters and gauges are a single [Atomic.t] cell;
    - histograms are {e lock-striped}: a registry histogram holds a
      small power-of-two array of independently-locked accumulators and
      an observation locks only the stripe indexed by the observing
      domain's id, so concurrent workers almost never contend. Readouts
      merge the stripes field-wise under their locks, which is exact —
      the merged histogram is precisely the one a single-domain run of
      the same observation stream would have produced (the property the
      test suite checks with concurrent observers);
    - registration (find-or-create) and snapshotting take the
      registry's mutex; handles themselves are lock-free to use.

    Histograms are log-bucketed at a fixed ~1.2x ratio: bucket [i >= 1]
    covers [(lo*r^(i-1), lo*r^i]] with [lo = 1e-9] and [r = 1.2],
    bucket [0] is the underflow bucket ([v <= lo]), and the last bucket
    absorbs overflow. One stripe is a fixed [int array] (constant
    memory, no per-observation allocation) plus exact count / sum /
    min / max, so any quantile readout is within one bucket ratio
    (~20%) of the exact sorted-order quantile — and two histograms
    merge by field-wise addition into exactly the histogram that would
    have recorded both value streams.

    Deliberately dependency-free (stdlib + {!Json}) so every layer of
    the system, including the executor's inner loops, can charge
    metrics without a dependency cycle. *)

(* ------------------------------------------------------------------ *)
(* Bucket scheme                                                        *)
(* ------------------------------------------------------------------ *)

let bucket_ratio = 1.2
let bucket_lo = 1e-9

(** Bucket count: [lo * ratio^(n-2)] must clear the largest values we
    ever record (row counts up to ~1e12, seconds up to ~1e3). 268 log
    buckets reach [1e-9 * 1.2^267 ~ 1.4e12]. *)
let n_buckets = 268

let inv_log_ratio = 1. /. Float.log bucket_ratio

(** Upper edge of bucket [i] (the value reported for quantiles landing
    in it). *)
let bucket_upper i =
  if i <= 0 then bucket_lo else bucket_lo *. (bucket_ratio ** float_of_int i)

let bucket_of (v : float) : int =
  if not (v > bucket_lo) then 0
  else
    let i =
      1 + int_of_float (Float.floor (Float.log (v /. bucket_lo) *. inv_log_ratio))
    in
    if i >= n_buckets then n_buckets - 1 else i

(* ------------------------------------------------------------------ *)
(* Metric records                                                       *)
(* ------------------------------------------------------------------ *)

type counter = {
  c_name : string;
  c_labels : (string * string) list;
  c_cell : int Atomic.t;
}

type gauge = {
  g_name : string;
  g_labels : (string * string) list;
  g_cell : float Atomic.t;
}

(** One histogram stripe: an independently-locked accumulator. All
    mutation happens under [p_mu]; [p_stats] is [sum; min; max] kept as
    a flat float array (in a mixed record every float store boxes, so
    the hot observe path would allocate per observation). *)
type stripe = {
  p_mu : Mutex.t;
  p_buckets : int array;  (** per-bucket observation counts *)
  mutable p_count : int;
  p_stats : float array;
}

type histogram = {
  h_name : string;
  h_labels : (string * string) list;
  h_stripes : stripe array;  (** power-of-two length *)
  h_smask : int;  (** [Array.length h_stripes - 1] *)
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

(** Process-wide switch for call sites inside hot loops (per-batch,
    per-pipeline). Registry bookkeeping itself is always available;
    this only gates the highest-frequency observation points so the
    bench can measure metrics-on vs metrics-off. A plain [ref]: the
    only writer is the bench's single-threaded toggle, and a stale read
    merely delays the gate by one observation (word-sized reads never
    tear under the OCaml memory model). *)
let enabled = ref true

let inc c = Atomic.incr c.c_cell
let add c n = ignore (Atomic.fetch_and_add c.c_cell n)
let set g v = Atomic.set g.g_cell v
let counter_value c = Atomic.get c.c_cell
let gauge_value g = Atomic.get g.g_cell

(** The stripe an observation on this domain goes to. Domain ids are
    small consecutive ints, so workers spread across stripes; two
    domains sharing a stripe is only a (rare) contention cost, never a
    lost update. *)
let stripe_of h = Array.unsafe_get h.h_stripes ((Domain.self () :> int) land h.h_smask)

let observe h v =
  let s = stripe_of h in
  Mutex.lock s.p_mu;
  let i = bucket_of v in
  s.p_buckets.(i) <- s.p_buckets.(i) + 1;
  s.p_count <- s.p_count + 1;
  let st = s.p_stats in
  st.(0) <- st.(0) +. v;
  if v < st.(1) then st.(1) <- v;
  if v > st.(2) then st.(2) <- v;
  Mutex.unlock s.p_mu

(* small non-negative ints (batch fills, row counts) hit a precomputed
   bucket table instead of paying a [Float.log] per observation — the
   integer observation points sit in per-batch loops. Kept as [Bytes]
   (4 KB, one page) rather than an int array (32 KB) to limit cache
   footprint on the hot path; bucket_of 4095. = 160 so every index
   fits a byte with current bucket constants (checked at build). Built
   eagerly at module init: a [lazy] here would race when the first
   observation comes from two domains at once. *)
let int_bucket_table =
  Bytes.init 4096 (fun i ->
      let b = bucket_of (float_of_int i) in
      assert (b < 256);
      Char.chr b)

let observe_int h n =
  if n >= 0 && n < 4096 then begin
    let v = float_of_int n in
    let i = Char.code (Bytes.unsafe_get int_bucket_table n) in
    let s = stripe_of h in
    Mutex.lock s.p_mu;
    s.p_buckets.(i) <- s.p_buckets.(i) + 1;
    s.p_count <- s.p_count + 1;
    let st = s.p_stats in
    st.(0) <- st.(0) +. v;
    if v < st.(1) then st.(1) <- v;
    if v > st.(2) then st.(2) <- v;
    Mutex.unlock s.p_mu
  end
  else observe h (float_of_int n)

(* ------------------------------------------------------------------ *)
(* Histogram readouts (stripe merges)                                   *)
(* ------------------------------------------------------------------ *)

(** A merged point-in-time copy of a histogram: what a single
    accumulator would hold had it recorded every stripe's stream. *)
type hist_snapshot = {
  sn_count : int;
  sn_buckets : int array;
  sn_sum : float;
  sn_min : float;  (** [infinity] while empty *)
  sn_max : float;  (** [neg_infinity] while empty *)
}

(** Merge every stripe under its lock. Concurrent observations landing
    while the merge walks the stripes appear in the next snapshot. *)
let hist_snapshot h : hist_snapshot =
  let buckets = Array.make n_buckets 0 in
  let count = ref 0 and sum = ref 0. in
  let mn = ref infinity and mx = ref neg_infinity in
  Array.iter
    (fun s ->
      Mutex.lock s.p_mu;
      Array.iteri (fun i n -> if n > 0 then buckets.(i) <- buckets.(i) + n) s.p_buckets;
      count := !count + s.p_count;
      sum := !sum +. s.p_stats.(0);
      if s.p_stats.(1) < !mn then mn := s.p_stats.(1);
      if s.p_stats.(2) > !mx then mx := s.p_stats.(2);
      Mutex.unlock s.p_mu)
    h.h_stripes;
  { sn_count = !count; sn_buckets = buckets; sn_sum = !sum; sn_min = !mn; sn_max = !mx }

let hist_count h = (hist_snapshot h).sn_count
let hist_sum h = (hist_snapshot h).sn_sum
let hist_min h = (hist_snapshot h).sn_min
let hist_max h = (hist_snapshot h).sn_max

(** Merged copy of the per-bucket counts (for tests and tooling). *)
let hist_buckets h = (hist_snapshot h).sn_buckets

let quantile_of_snapshot (s : hist_snapshot) q =
  if s.sn_count = 0 then nan
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int s.sn_count)) in
    let rank = max 1 (min rank s.sn_count) in
    let i = ref 0 and cum = ref 0 in
    while !cum < rank && !i < n_buckets do
      cum := !cum + s.sn_buckets.(!i);
      if !cum < rank then incr i
    done;
    Float.max s.sn_min (Float.min (bucket_upper !i) s.sn_max)
  end

(** [quantile h q] for [q] in [[0,1]]: the upper edge of the bucket
    holding the rank-[ceil(q*count)] observation, clamped into
    [[min, max]]. For any observation stream of values above
    {!bucket_lo} this is within one bucket ratio {e above} the exact
    sorted-order quantile; the underflow bucket carries no bound.
    [nan] while empty. *)
let quantile h q = quantile_of_snapshot (hist_snapshot h) q

(** Merge [src] into [dst] field-wise: afterwards [dst] reads exactly
    like the histogram that would have recorded both observation
    streams. The merge lands in [dst]'s first stripe. *)
let merge_into ~dst (src : histogram) =
  let s = hist_snapshot src in
  let d = dst.h_stripes.(0) in
  Mutex.lock d.p_mu;
  Array.iteri (fun i n -> if n > 0 then d.p_buckets.(i) <- d.p_buckets.(i) + n) s.sn_buckets;
  d.p_count <- d.p_count + s.sn_count;
  d.p_stats.(0) <- d.p_stats.(0) +. s.sn_sum;
  if s.sn_min < d.p_stats.(1) then d.p_stats.(1) <- s.sn_min;
  if s.sn_max > d.p_stats.(2) then d.p_stats.(2) <- s.sn_max;
  Mutex.unlock d.p_mu

let stripe_create () =
  {
    p_mu = Mutex.create ();
    p_buckets = Array.make n_buckets 0;
    p_count = 0;
    p_stats = [| 0.; infinity; neg_infinity |];
  }

(** Registry histograms spread observers over this many stripes; small
    enough that a full merge stays cheap, large enough that a worker
    pool rarely shares one. *)
let default_stripes = 8

(** Standalone histogram, not attached to any registry. [stripes]
    defaults to 1 — the embedded use case ({!Query_store} holds one per
    entry, already under the store's shard lock) should not pay 8
    bucket arrays per entry. *)
let hist_create ?(labels = []) ?(stripes = 1) name =
  let n =
    let rec np2 k = if k >= stripes then k else np2 (k * 2) in
    np2 1
  in
  {
    h_name = name;
    h_labels = labels;
    h_stripes = Array.init n (fun _ -> stripe_create ());
    h_smask = n - 1;
  }

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)
(* ------------------------------------------------------------------ *)

type t = {
  tbl : (string, metric) Hashtbl.t;
  mu : Mutex.t;  (** guards [tbl]: registration and snapshots *)
}

let create () : t = { tbl = Hashtbl.create 64; mu = Mutex.create () }

(** The process-wide default registry. Everything in the system charges
    here unless handed an explicit registry; exporters snapshot it. *)
let default : t = create ()

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=%S" k v)
             (List.sort compare labels))
      ^ "}"

let key name labels = name ^ render_labels labels

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let find_or_create t name labels (make : unit -> metric) (extract : metric -> 'a)
    : 'a =
  let k = key name labels in
  Mutex.lock t.mu;
  let m =
    match Hashtbl.find_opt t.tbl k with
    | Some m -> m
    | None ->
        let m = make () in
        Hashtbl.replace t.tbl k m;
        m
  in
  Mutex.unlock t.mu;
  extract m

(** Find-or-create a counter. Raises [Invalid_argument] if the name is
    already registered as a different metric kind. *)
let counter ?(labels = []) t name : counter =
  find_or_create t name labels
    (fun () ->
      Counter { c_name = name; c_labels = labels; c_cell = Atomic.make 0 })
    (function
      | Counter c -> c
      | m ->
          invalid_arg
            (Printf.sprintf "Metrics.counter: %s is a %s" name (kind_name m)))

let gauge ?(labels = []) t name : gauge =
  find_or_create t name labels
    (fun () ->
      Gauge { g_name = name; g_labels = labels; g_cell = Atomic.make 0. })
    (function
      | Gauge g -> g
      | m ->
          invalid_arg
            (Printf.sprintf "Metrics.gauge: %s is a %s" name (kind_name m)))

let histogram ?(labels = []) t name : histogram =
  find_or_create t name labels
    (fun () -> Histogram (hist_create ~labels ~stripes:default_stripes name))
    (function
      | Histogram h -> h
      | m ->
          invalid_arg
            (Printf.sprintf "Metrics.histogram: %s is a %s" name (kind_name m)))

(** Zero every metric in place. Registrations (and any handles call
    sites cached) stay valid — only the accumulated values drop. *)
let reset t =
  Mutex.lock t.mu;
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> Atomic.set c.c_cell 0
      | Gauge g -> Atomic.set g.g_cell 0.
      | Histogram h ->
          Array.iter
            (fun s ->
              Mutex.lock s.p_mu;
              Array.fill s.p_buckets 0 n_buckets 0;
              s.p_count <- 0;
              s.p_stats.(0) <- 0.;
              s.p_stats.(1) <- infinity;
              s.p_stats.(2) <- neg_infinity;
              Mutex.unlock s.p_mu)
            h.h_stripes)
    t.tbl;
  Mutex.unlock t.mu

(** Snapshot in deterministic (sorted-key) order. *)
let sorted_bindings t : (string * metric) list =
  Mutex.lock t.mu;
  let bs = Hashtbl.fold (fun k m acc -> (k, m) :: acc) t.tbl [] in
  Mutex.unlock t.mu;
  List.sort (fun (a, _) (b, _) -> compare a b) bs

(* ------------------------------------------------------------------ *)
(* Exporters                                                            *)
(* ------------------------------------------------------------------ *)

let jfloat f = if Float.is_finite f then Json.Float f else Json.Null

(** Histogram summary object: exact count/sum/min/max, the standard
    quantile readouts, and the sparse bucket array (index, count). *)
let hist_to_json h : Json.t =
  let s = hist_snapshot h in
  let buckets =
    Array.to_list s.sn_buckets
    |> List.mapi (fun i n -> (i, n))
    |> List.filter (fun (_, n) -> n > 0)
    |> List.map (fun (i, n) -> Json.List [ Json.Int i; Json.Int n ])
  in
  Json.Obj
    [
      ("count", Json.Int s.sn_count);
      ("sum", jfloat s.sn_sum);
      ("min", jfloat s.sn_min);
      ("max", jfloat s.sn_max);
      ("p50", jfloat (quantile_of_snapshot s 0.5));
      ("p90", jfloat (quantile_of_snapshot s 0.9));
      ("p99", jfloat (quantile_of_snapshot s 0.99));
      ("buckets", Json.List buckets);
    ]

(** JSON snapshot of the whole registry, grouped by metric kind, keys
    sorted (deterministic for identical metric values). *)
let to_json t : Json.t =
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  List.iter
    (fun (k, m) ->
      match m with
      | Counter c -> counters := (k, Json.Int (counter_value c)) :: !counters
      | Gauge g -> gauges := (k, jfloat (gauge_value g)) :: !gauges
      | Histogram h -> hists := (k, hist_to_json h) :: !hists)
    (List.rev (sorted_bindings t));
  Json.Obj
    [
      ("counters", Json.Obj !counters);
      ("gauges", Json.Obj !gauges);
      ("histograms", Json.Obj !hists);
    ]

let prom_escape v =
  String.concat ""
    (List.map
       (function
         | '\\' -> "\\\\" | '"' -> "\\\"" | '\n' -> "\\n" | c -> String.make 1 c)
       (List.init (String.length v) (String.get v)))

let prom_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v))
             (List.sort compare labels))
      ^ "}"

let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

(** Prometheus text exposition (version 0.0.4): one [# TYPE] line per
    metric family, histograms as cumulative [_bucket{le=...}] series
    (up to the last occupied bucket, then [+Inf]) plus [_sum] and
    [_count]. *)
let to_prometheus t : string =
  let buf = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  let type_line name kind =
    if not (Hashtbl.mem typed name) then begin
      Hashtbl.replace typed name ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun (_, m) ->
      match m with
      | Counter c ->
          type_line c.c_name "counter";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" c.c_name (prom_labels c.c_labels)
               (counter_value c))
      | Gauge g ->
          type_line g.g_name "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" g.g_name (prom_labels g.g_labels)
               (prom_float (gauge_value g)))
      | Histogram h ->
          type_line h.h_name "histogram";
          let s = hist_snapshot h in
          let last =
            let l = ref (-1) in
            Array.iteri (fun i n -> if n > 0 then l := i) s.sn_buckets;
            !l
          in
          let cum = ref 0 in
          for i = 0 to last do
            cum := !cum + s.sn_buckets.(i);
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" h.h_name
                 (prom_labels (("le", prom_float (bucket_upper i)) :: h.h_labels))
                 !cum)
          done;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" h.h_name
               (prom_labels (("le", "+Inf") :: h.h_labels))
               s.sn_count);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" h.h_name (prom_labels h.h_labels)
               (prom_float s.sn_sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" h.h_name (prom_labels h.h_labels)
               s.sn_count))
    (sorted_bindings t);
  Buffer.contents buf

(** Aligned console rendering: counters and gauges one per line,
    histograms with count / mean / p50 / p90 / p99 / max. *)
let to_text t : string =
  let buf = Buffer.create 1024 in
  let bindings = sorted_bindings t in
  let width =
    List.fold_left (fun w (k, _) -> max w (String.length k)) 8 bindings
  in
  List.iter
    (fun (k, m) ->
      match m with
      | Counter c ->
          Buffer.add_string buf
            (Printf.sprintf "%-*s %d\n" width k (counter_value c))
      | Gauge g ->
          Buffer.add_string buf
            (Printf.sprintf "%-*s %.3f\n" width k (gauge_value g))
      | Histogram h ->
          let s = hist_snapshot h in
          Buffer.add_string buf
            (Printf.sprintf
               "%-*s count=%d mean=%.3g p50=%.3g p90=%.3g p99=%.3g max=%.3g\n"
               width k s.sn_count
               (if s.sn_count = 0 then nan
                else s.sn_sum /. float_of_int s.sn_count)
               (quantile_of_snapshot s 0.5)
               (quantile_of_snapshot s 0.9)
               (quantile_of_snapshot s 0.99)
               (if s.sn_count = 0 then nan else s.sn_max)))
    bindings;
  Buffer.contents buf
