(** The repository benchmark.

    {v
    main.exe --workload NAME --seed N --seconds S --trace 0|1 [--scale F]
    main.exe --smoke BENCHMARK.json
    v}

    One run sets the workload up several times (reporting the median
    set-up time), then drives its request stream through {!Server} for
    [S] seconds from one generator thread and checks every response
    against a reference digest. [--trace 0] prints the end-to-end
    metrics. [--trace 1] also replays the same stream through the
    spanned replica ({!Replica}) and prints the per-layer metrics
    instead; the spans go to [perfbench/out/]. The last line of
    standard output is one JSON object:
    [{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}].
    A wrong result, a failed request or a replica that diverges from the
    service makes [correct] false and the exit code 1. *)

module J = Obs.Json
module W = Workloads
module Sv = Server

let setups = 5

(* a run must complete this many requests, so p99 has ten samples
   beyond it *)
let min_requests = 1000

(* the traced replay covers a prefix of the measured stream: enough
   requests for stable layer means, without doubling the run *)
let replay_seconds = 5.
let replay_min_requests = 200

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

type outcome = {
  e2e : metric list;
  layers : metric list;  (** empty unless traced *)
  correct : bool;
  attempted : int;
  failed : int;
  work_per_req : float;
}

(* the smoke test reports only its verdict *)
let quiet = ref false
let say fmt = Printf.ksprintf (fun s -> if not !quiet then print_endline s) fmt

let per_layer (w : W.t) (ms : Drive.measured) (r : Replica.result) : metric list =
  let open Replica in
  let n = fi (max 1 r.c.requests) in
  let us l = ratio (secs r l) n *. 1e6 in
  let per_call l = ratio (secs r l) (fi (calls r l)) in
  let svc_s = secs r Service_exec /. n in
  let lat_mean = ms.Drive.mean_latency_s in
  let qps = ms.Drive.qps in
  let parses = fi r.c.parses in
  let kreq = n /. 1000. in
  [
    m "server.queue_wait_ms" "ms" ((lat_mean -. svc_s) *. 1e3);
    m "server.queue_depth" "requests" ms.Drive.queue_depth;
    m "server.busy_share" "share" (Float.min 1. (qps *. svc_s /. fi w.W.workers));
    m "sqlparse.parse_us" "us" (us Parse);
    m "sqlir.fingerprint_us" "us" (us Fingerprint);
    m "service.probe_us" "us" (us Probe);
    m "service.overhead_us" "us" (overhead_secs r /. n *. 1e6);
    m "service.alloc_words_per_req" "words" (r.c.svc_alloc /. n);
    m "service.store_us" "us" (per_call Store *. 1e6);
    m "service.hit_rate" "share" (fi r.c.hits /. n);
    m "service.evictions_per_kreq" "1/kreq" (fi r.c.evictions /. kreq);
    m "service.invalidations_per_kreq" "1/kreq" (fi r.c.invalidations /. kreq);
    m "service.guard_kept_share" "share"
      (ratio (fi r.c.revalidated) (fi (r.c.revalidated + r.c.invalidated)));
    m "core.optimize_ms" "ms" (ratio (secs r Optimize) parses *. 1e3);
    m "core.states_per_parse" "states" (ratio (fi r.c.states) parses);
    m "core.cutoff_share" "share" (ratio (fi r.c.cutoff) (fi r.c.states));
    m "planner.blocks_per_parse" "blocks" (ratio (fi r.c.blocks) parses);
    m "planner.reuse_rate" "share"
      (ratio (fi r.c.reuse) (fi (r.c.reuse + r.c.blocks)));
    m "planner.dp_pruned_per_parse" "orders" (ratio (fi r.c.dp_pruned) parses);
    m "planner.parallel_apply_us" "us" (per_plan_call r Parallel *. 1e6);
    m "exec.execute_ms" "ms" (us Execute /. 1e3);
    m "exec.rows_scanned_per_s" "rows/s" (ratio (fi r.c.rows_scanned) (secs r Execute));
    m "exec.alloc_words_per_row" "words" (ratio r.c.exec_alloc (fi r.c.rows_scanned));
    m "exec.vector_share" "share" (ratio (fi r.c.vec) (fi (r.c.vec + r.c.row)));
    m "exec.exchanges_per_req" "count" (fi r.c.exchanges /. n);
    m "exec.dop_max" "domains" (fi r.c.dop_max);
    m "exec.parts_scanned_share" "share"
      (ratio (fi r.c.parts_scanned) (fi (r.c.parts_scanned + r.c.parts_pruned)));
    m "storage.analyze_ms" "ms" (per_call Analyze *. 1e3);
    m "trace_overhead" "share"
      (ratio (r.wall_s /. n) (ms.Drive.wall_s /. fi ms.Drive.requests) -. 1.);
  ]

(** The layer shares of the replica's time and the checks that each
    workload's dominant layer is the one it was built for. *)
let dominance (w : W.t) (r : Replica.result) =
  let open Replica in
  let total = replica_secs r in
  let share l = ratio (secs r l) total in
  say "layer shares of the replica's %.3f s:" total;
  List.iter
    (fun l -> say "  %-24s %6.2f%%" (layer_name l) (100. *. share l))
    replica_layers;
  let hit_rate = ratio (fi r.c.hits) (fi r.c.requests) in
  let checks =
    match w.W.name with
    | "oltp_soft" ->
        [
          ("service.hit_rate >= 0.99", hit_rate >= 0.99);
          ("core.optimize under 1% of traced time", share Optimize < 0.01);
        ]
    | "adhoc_churn" ->
        [
          ("core.optimize at least half of traced time", share Optimize >= 0.5);
          ("0 < service.hit_rate < 1", hit_rate > 0. && hit_rate < 1.);
          ("evictions and invalidations above 0",
            r.c.evictions > 0 && r.c.invalidations > 0);
        ]
    | _ ->
        [
          ("exec.execute at least 80% of traced time", share Execute >= 0.8);
          ("exec.dop_max >= 2 when nproc >= 2",
            Domain.recommended_domain_count () < 2 || r.c.dop_max >= 2);
        ]
  in
  List.iter
    (fun (what, ok) -> say "expect %-45s %s" what (if ok then "ok" else "NOT MET"))
    checks

let run_workload ~name ~seed ~seconds ~trace ~scale ~setups ~min_requests
    ~spans_out : outcome =
  (* earlier set-ups are dropped as soon as they are timed, so only one
     database is live at a time *)
  let rec setup_n k acc =
    let s = Drive.setup name ~seed ~scale in
    let acc = (s.Drive.setup_s, s.Drive.work_per_req) :: acc in
    if k = 1 then (s, acc)
    else begin
      Sv.shutdown s.Drive.pool;
      Gc.full_major ();
      setup_n (k - 1) acc
    end
  in
  let s, timed = setup_n setups [] in
  let w = s.Drive.w in
  let deterministic =
    List.for_all (fun (_, work) -> work = s.Drive.work_per_req) timed
  in
  say "%s seed=%d scale=%g: %d shapes (%d dropped), %d statements (%d checked by \
       Refeval), %d worker(s), %d outstanding"
    name seed scale w.W.shapes w.W.dropped (Array.length w.W.stmts)
    w.W.oracle_refeval w.W.workers w.W.outstanding;
  let ms = Drive.measure s ~seed ~seconds ~min_requests in
  Sv.shutdown s.Drive.pool;
  let tl = ms.Drive.tally in
  say "measured: %d requests in %.3f s, %d latency samples in %d windows, %d \
       errors (%d digest mismatches)"
    ms.Drive.requests ms.Drive.wall_s ms.Drive.samples ms.Drive.windows tl.Drive.errors
    tl.Drive.mismatches;
  Option.iter (say "first error: %s") tl.Drive.first_error;
  Option.iter (say "warm-up error: %s") s.Drive.warm.Drive.first_error;
  if not deterministic then say "set-ups disagree on work_per_req";
  (* what the server retains once the run is over: database, plan cache,
     query store. The top heap would be the peak, but its height follows
     the GC's pacing against the workers' allocation and swung by a
     third between runs of one seed. *)
  let heap_mb =
    fi ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6
  in
  let error_rate = fi tl.Drive.errors /. fi (max 1 ms.Drive.requests) in
  let e2e =
    [
      m "setup_s" "s" (Drive.median (Array.of_list (List.map fst timed)));
      m "throughput_qps" "1/s" ms.Drive.qps;
      m "latency_p50_ms" "ms" (ms.Drive.p50_s *. 1e3);
      m "latency_p99_ms" "ms" (ms.Drive.p99_s *. 1e3);
      m "success_rate" "share" (1. -. error_rate);
      (* rows per request over the whole phase at the median rate *)
      m "scan_rows_per_s" "rows/s"
        (fi ms.Drive.rows_scanned /. fi (max 1 ms.Drive.requests) *. ms.Drive.qps);
      m "work_per_req" "work" s.Drive.work_per_req;
      m "heap_live_mb" "MB" heap_mb;
    ]
  in
  say "error_rate: %g" error_rate;
  let layers, diverged =
    if not trace then ([], false)
    else begin
      let r =
        Replica.run w ~seed ~requests:ms.Drive.requests
          ~min_requests:(min min_requests replay_min_requests)
          ~seconds:(Float.min seconds replay_seconds)
      in
      say "traced replay: %d requests in %.3f s, %d spans" r.Replica.c.Replica.requests
        r.Replica.wall_s r.Replica.spans.Replica.n;
      Option.iter (say "replica diverged: %s") r.Replica.divergence;
      let sums = Replica.sums_agree r in
      if not sums then say "recorded spans do not add up to the traced service time";
      dominance w r;
      (match spans_out with
      | None -> ()
      | Some dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          Replica.write_spans r (Filename.concat dir (name ^ ".spans.jsonl")));
      (per_layer w ms r, r.Replica.divergence <> None || not sums)
    end
  in
  let warm_errors = s.Drive.warm.Drive.errors in
  let failed = tl.Drive.errors + warm_errors in
  {
    e2e;
    layers;
    correct = failed = 0 && deterministic && not diverged;
    attempted = ms.Drive.requests + s.Drive.warm.Drive.submitted;
    failed;
    work_per_req = s.Drive.work_per_req;
  }

(* Obs.Json prints floats to six significant digits; a measured value
   keeps all of its digits *)
let rec json_line = function
  | J.Float f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | J.Obj kvs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> J.to_string (J.Str k) ^ ":" ^ json_line v) kvs)
      ^ "}"
  | j -> J.to_string j

let result_json (o : outcome) metrics =
  J.Obj
    [
      ("correct", J.Bool o.correct);
      ("attempted", J.Int o.attempted);
      ("failed", J.Int o.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun x ->
               (x.name, J.Obj [ ("value", J.Float x.value); ("unit", J.Str x.unit) ]))
             metrics) );
    ]

(* ------------------------------------------------------------------ *)
(* Smoke test                                                           *)
(* ------------------------------------------------------------------ *)

(** Every workload at minimal size, twice at one seed: every metric
    BENCHMARK.json names is emitted, [error_rate] is 0 and
    [work_per_req] is bit-identical across the two runs. *)
let smoke bench_json =
  let ic = open_in_bin bench_json in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let doc =
    match J.parse text with Ok d -> d | Error e -> failwith (bench_json ^ ": " ^ e)
  in
  let names key =
    match J.member key doc with
    | Some (J.List xs) ->
        List.filter_map (fun x -> Option.bind (J.member "name" x) J.as_string) xs
    | _ -> failwith (bench_json ^ ": no " ^ key)
  in
  let e2e_names = names "end_to_end" and layer_names = names "per_layer" in
  quiet := true;
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun name ->
      let run () =
        run_workload ~name ~seed:11 ~seconds:0.05 ~trace:true ~scale:0.1
          ~setups:1 ~min_requests:50 ~spans_out:None
      in
      let a = run () and b = run () in
      let emitted = List.map (fun x -> x.name) in
      List.iter
        (fun n ->
          if not (List.mem n (emitted a.e2e)) then problem "%s: %s not emitted" name n)
        e2e_names;
      List.iter
        (fun n ->
          if not (List.mem n (emitted a.layers)) then problem "%s: %s not emitted" name n)
        layer_names;
      if not (a.correct && b.correct) then
        problem "%s: a request failed, a result was wrong or the replica diverged"
          name;
      if Int64.bits_of_float a.work_per_req <> Int64.bits_of_float b.work_per_req then
        problem "%s: work_per_req %.17g then %.17g" name a.work_per_req b.work_per_req)
    W.names;
  List.iter prerr_endline (List.rev !problems);
  if !problems <> [] then exit 1;
  print_endline "smoke: ok"

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (oltp_soft|adhoc_churn|analytic_scan) --seed N \
     --seconds S --trace 0|1 [--scale F]\n\
    \       main.exe --smoke BENCHMARK.json";
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10. in
  let trace = ref false and scale = ref 1. and smoke_json = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v <> "0"; parse rest
    | "--scale" :: v :: rest -> scale := float_of_string v; parse rest
    | "--smoke" :: v :: rest -> smoke_json := Some v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match (!smoke_json, !workload) with
  | Some f, _ -> smoke f
  | None, Some name when List.mem name W.names ->
      let o =
        run_workload ~name ~seed:!seed ~seconds:!seconds ~trace:!trace ~scale:!scale
          ~setups ~min_requests ~spans_out:(Some (Filename.concat "perfbench" "out"))
      in
      List.iter
        (fun x -> say "%-32s %14.6g %s" x.name x.value x.unit)
        (o.e2e @ o.layers);
      print_endline (json_line (result_json o (if !trace then o.layers else o.e2e)));
      if not o.correct then exit 1
  | _ -> usage ()
