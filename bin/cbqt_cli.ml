(** Command-line front end: parse a SQL query against the demo HR-like
    schema (or a generated workload schema), run it through the CBQT
    pipeline, and show the transformed query tree, the chosen physical
    plan, the transformation report, and optionally the results.

    Examples:

    {v
    dune exec bin/cbqt_cli.exe -- explain "SELECT ..."
    dune exec bin/cbqt_cli.exe -- run --mode heuristic "SELECT ..."
    dune exec bin/cbqt_cli.exe -- schema
    v} *)

open Cmdliner
module A = Sqlir.Ast
module V = Sqlir.Value

(* ------------------------------------------------------------------ *)
(* Demo database: the paper's HR-style schema, generated rows          *)
(* ------------------------------------------------------------------ *)

(* mid and fact tables are partitioned (8 ways) so [--dop] has a real
   surface: pruning and Exchange plans are visible out of the box *)
let demo_db () : Storage.Db.t =
  let db, _ =
    Workload.Schema_gen.build ~families:2 ~sample_frac:0.3 ~partitions:8
      ~seed:2006 ()
  in
  db

let mode_conv =
  Arg.enum
    [
      ("cost", `Cost);
      ("heuristic", `Heuristic);
      ("none", `None);
    ]

let engine_conv =
  Arg.enum
    [
      ("auto", Exec.Executor.Auto);
      ("row", Exec.Executor.Row);
      ("vector", Exec.Executor.Vector);
    ]

let engine_arg =
  Arg.(
    value
    & opt engine_conv Exec.Executor.Auto
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "execution engine: $(b,auto) picks row or vectorized per pipeline \
           from the planner's cardinality estimates, $(b,row) and \
           $(b,vector) force one path (results do not depend on it)")

let dop_conv =
  let parse s =
    match Planner.Parallel.dop_of_string s with
    | Some d -> Ok d
    | None ->
        Error (`Msg (Printf.sprintf "invalid dop %S (serial | auto | N)" s))
  in
  Arg.conv
    (parse, fun ppf d -> Fmt.string ppf (Planner.Parallel.dop_to_string d))

let dop_arg =
  Arg.(
    value
    & opt dop_conv Planner.Parallel.Serial
    & info [ "dop" ] ~docv:"DOP"
        ~doc:
          "degree of parallelism: $(b,serial) leaves plans untouched, a \
           number $(b,N) wraps eligible partitioned regions in exchange \
           operators running $(docv) OCaml domains, $(b,auto) sizes the \
           degree from estimated scan volume and the machine's core count \
           (results and work meters do not depend on it)")

let config_of_mode ?(check = false) mode =
  let base =
    match mode with
    | `Cost -> Some Cbqt.Driver.default_config
    | `Heuristic -> Some Cbqt.Driver.heuristic_config
    | `None -> None
  in
  Option.map
    (fun c -> { c with Cbqt.Driver.check = c.Cbqt.Driver.check || check })
    base

let check_flag =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Sanitizer mode: re-run the IR well-formedness checker after \
           every transformation and every search state, and lint the final \
           plan (same as CBQT_CHECK=1).")

(** Static IR findings for the untransformed tree (used by $(b,--check)
    with $(b,--mode none) and by the $(b,check) subcommand). *)
let report_ir_findings cat q : int =
  let ds = Analysis.Ir_check.check cat q in
  List.iter (fun d -> Fmt.epr "%s@." (Analysis.Diagnostics.to_string d)) ds;
  List.length (Analysis.Diagnostics.errors ds)

let with_query sql f =
  let db = demo_db () in
  match Sqlparse.Parser.parse db.Storage.Db.cat sql with
  | Error msg ->
      Fmt.epr "parse error: %s@." msg;
      1
  | Ok q -> f db q

let explain_cmd =
  let sql = Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL") in
  let mode =
    Arg.(value & opt mode_conv `Cost & info [ "mode" ] ~doc:"cost | heuristic | none")
  in
  let no_exec =
    Arg.(
      value & flag
      & info [ "no-exec" ]
          ~doc:
            "Skip execution: show only the transformed query and the plan, \
             without the per-operator actual rows / Q-error table.")
  in
  let run sql mode check no_exec engine dop =
    with_query sql (fun db q ->
        let plan =
          match config_of_mode ~check mode with
          | Some config ->
              let res = Cbqt.Driver.optimize ~config db.Storage.Db.cat q in
              Fmt.pr "-- transformed query tree --@.%s@.@."
                (Sqlir.Pp.query_to_string res.Cbqt.Driver.res_query);
              Fmt.pr "-- transformation report --@.%a@." Cbqt.Driver.pp_report
                res.res_report;
              Fmt.pr "-- physical plan (cost %.1f, est. rows %.1f) --@.%s@."
                res.res_annotation.Planner.Annotation.an_cost
                res.res_annotation.an_rows
                (Exec.Plan.to_string res.res_annotation.an_plan);
              res.res_annotation.an_plan
          | None ->
              if check then
                ignore (report_ir_findings db.Storage.Db.cat q);
              let opt = Planner.Optimizer.create db.Storage.Db.cat in
              let ann = Planner.Optimizer.optimize opt q in
              Fmt.pr "-- physical plan (no transformation; cost %.1f) --@.%s@."
                ann.Planner.Annotation.an_cost
                (Exec.Plan.to_string ann.an_plan);
              ann.an_plan
        in
        let plan =
          let p = Planner.Parallel.apply db.Storage.Db.cat ~dop plan in
          if p != plan then
            Fmt.pr "@.-- parallel plan (dop %s) --@.%s@."
              (Planner.Parallel.dop_to_string dop)
              (Exec.Plan.to_string p);
          p
        in
        if not no_exec then (
          let ex = Cbqt.Explain.analyze ~engine db plan in
          Fmt.pr "@.-- explain analyze --@.%a" Cbqt.Explain.pp ex);
        0)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the transformed query and its plan, then execute it and \
          report estimated vs. actual rows and Q-error per operator")
    Term.(
      const run $ sql $ mode $ check_flag $ no_exec $ engine_arg $ dop_arg)

let trace_cmd =
  let sql = Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL") in
  let mode =
    Arg.(value & opt mode_conv `Cost & info [ "mode" ] ~doc:"cost | heuristic")
  in
  let level_conv =
    Arg.enum [ ("steps", Obs.Trace.Steps); ("full", Obs.Trace.Full) ]
  in
  let level =
    Arg.(
      value
      & opt level_conv Obs.Trace.Full
      & info [ "level" ]
          ~doc:
            "steps (one span per transformation attempt) | full (adds \
             per-state, per-costing and per-block spans)")
  in
  let sink_conv =
    Arg.enum [ ("pretty", `Pretty); ("jsonl", `Jsonl); ("chrome", `Chrome) ]
  in
  let sink =
    Arg.(
      value & opt sink_conv `Pretty
      & info [ "sink" ]
          ~doc:
            "pretty (console span tree) | jsonl (one JSON object per span) \
             | chrome (chrome://tracing / Perfetto trace-event JSON)")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"write the sink output to $(docv)")
  in
  let validate =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "check the span-tree invariants (and, with --sink jsonl, the \
             emitted document against the schema); exit non-zero on any \
             violation")
  in
  let workload =
    Arg.(
      value
      & opt (some int) None
      & info [ "workload" ] ~docv:"N"
          ~doc:"trace $(docv) generated workload queries instead of SQL")
  in
  let seed =
    Arg.(value & opt int 2006 & info [ "seed" ] ~doc:"workload seed")
  in
  let run sql mode level sink out validate workload seed check =
    let config =
      match config_of_mode ~check mode with
      | Some c -> { c with Cbqt.Driver.trace = level }
      | None ->
          Fmt.epr "trace: --mode none has nothing to trace@.";
          exit 2
    in
    let traced name cat q =
      let t0 = Unix.gettimeofday () in
      let res = Cbqt.Driver.optimize ~config cat q in
      let wall = Unix.gettimeofday () -. t0 in
      (name, res, wall)
    in
    let runs =
      match (workload, sql) with
      | Some n, _ ->
          let db, schema =
            Workload.Schema_gen.build ~families:2 ~sample_frac:0.3 ~seed ()
          in
          let g = Workload.Query_gen.create ~seed schema in
          List.map
            (fun it ->
              traced
                (Fmt.str "q%d[%s]" it.Workload.Query_gen.it_id
                   (Workload.Query_gen.class_name it.Workload.Query_gen.it_class))
                db.Storage.Db.cat it.Workload.Query_gen.it_query)
            (Workload.Query_gen.workload g n)
      | None, Some sql ->
          let db = demo_db () in
          (match Sqlparse.Parser.parse db.Storage.Db.cat sql with
          | Error msg ->
              Fmt.epr "parse error: %s@." msg;
              exit 1
          | Ok q -> [ traced "query" db.Storage.Db.cat q ])
      | None, None ->
          Fmt.epr "trace: need SQL or --workload N@.";
          exit 2
    in
    let traces = List.map (fun (_, r, _) -> r.Cbqt.Driver.res_trace) runs in
    let emit doc =
      match out with
      | None -> print_string doc
      | Some f ->
          let oc = open_out f in
          output_string oc doc;
          close_out oc;
          Fmt.epr "wrote %s (%d bytes)@." f (String.length doc)
    in
    let jsonl_doc () =
      String.concat "" (List.map Obs.Trace.to_jsonl traces)
    in
    (match sink with
    | `Pretty ->
        List.iter
          (fun (name, res, _) ->
            Fmt.pr "== %s ==@.%a" name Obs.Trace.pp_tree
              res.Cbqt.Driver.res_trace)
          runs
    | `Jsonl -> emit (jsonl_doc ())
    | `Chrome -> emit (Obs.Trace.to_chrome_many traces));
    (* per-run summary + aggregates, to stderr so sinks stay clean *)
    let tot_states = ref 0 and tot_attempts = ref 0 in
    let tot_wall = ref 0. and tot_cut = ref 0 and tot_cost = ref 0 in
    let coverages =
      List.map
        (fun (name, res, wall) ->
          let tr = res.Cbqt.Driver.res_trace in
          let cov = Obs.Trace.root_coverage tr in
          let rp = res.Cbqt.Driver.res_report in
          tot_states := !tot_states + rp.Cbqt.Driver.rp_states_total;
          tot_attempts :=
            !tot_attempts + Obs.Trace.count_kind tr Obs.Trace.Attempt;
          tot_wall := !tot_wall +. wall;
          tot_cut := !tot_cut + rp.Cbqt.Driver.rp_states_cutoff;
          tot_cost := !tot_cost + Obs.Trace.count_kind tr Obs.Trace.Cost;
          Fmt.epr
            "%-14s %4d spans  %3d attempts  %3d states  coverage %5.1f%%  \
             %.2f ms@."
            name
            (List.length (Obs.Trace.spans tr))
            (Obs.Trace.count_kind tr Obs.Trace.Attempt)
            rp.Cbqt.Driver.rp_states_total (100. *. cov) (1000. *. wall);
          cov)
        runs
    in
    let mean_cov =
      List.fold_left ( +. ) 0. coverages
      /. float_of_int (max 1 (List.length coverages))
    in
    Fmt.epr
      "total: %d runs, %d attempts, %d states in %.1f ms (%.0f states/sec), \
       cut-off share %.1f%%, mean span coverage %.1f%%@."
      (List.length runs) !tot_attempts !tot_states (1000. *. !tot_wall)
      (float_of_int !tot_states /. Float.max 1e-9 !tot_wall)
      (100.
      *. float_of_int !tot_cut
      /. float_of_int (max 1 !tot_states))
      (100. *. mean_cov);
    if validate then (
      let errs =
        List.concat_map
          (fun (name, res, _) ->
            List.map
              (fun e -> name ^ ": " ^ e)
              (Obs.Trace.validate res.Cbqt.Driver.res_trace))
          runs
        @
        match sink with
        | `Jsonl ->
            List.map
              (fun e -> "jsonl: " ^ e)
              (Obs.Trace.validate_jsonl (jsonl_doc ()))
        | _ -> []
      in
      List.iter (fun e -> Fmt.epr "invalid: %s@." e) errs;
      if errs <> [] then 1 else (Fmt.epr "validate: ok@."; 0))
    else 0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Optimize with search-space tracing on and emit the span tree \
          (pretty console, JSON-Lines, or Chrome trace-event format)")
    Term.(
      const run $ sql $ mode $ level $ sink $ out $ validate $ workload $ seed
      $ check_flag)

let run_cmd =
  let sql = Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL") in
  let mode =
    Arg.(value & opt mode_conv `Cost & info [ "mode" ] ~doc:"cost | heuristic | none")
  in
  let limit =
    Arg.(value & opt int 25 & info [ "limit" ] ~doc:"max rows to print")
  in
  let batch_size =
    Arg.(
      value
      & opt int Exec.Executor.default_batch_size
      & info [ "batch-size" ] ~docv:"N"
          ~doc:"executor rows per block (results do not depend on it)")
  in
  let run sql mode limit batch_size check engine dop =
    with_query sql (fun db q ->
        let plan =
          match config_of_mode ~check mode with
          | Some config ->
              (Cbqt.Driver.optimize ~config db.Storage.Db.cat q)
                .res_annotation
                .an_plan
          | None ->
              (Planner.Optimizer.optimize
                 (Planner.Optimizer.create db.Storage.Db.cat)
                 q)
                .an_plan
        in
        (* the same executable form a served query runs *)
        let { Service.Plan_cache.x_plan = plan; x_card_of = card_of } =
          Service.Plan_cache.executable db.Storage.Db.cat ~dop plan
        in
        let meter = Exec.Meter.create () in
        let es = Exec.Executor.engine_stats_create () in
        let _, rows, _ =
          Exec.Executor.execute ~meter ~batch_size ~engine ~engine_stats:es
            ~card_of db plan
        in
        List.iteri
          (fun i row ->
            if i < limit then
              Fmt.pr "%s@."
                (String.concat " | "
                   (List.map V.to_string (Array.to_list row))))
          rows;
        Fmt.pr "-- %d rows; %a@." (List.length rows) Exec.Meter.pp meter;
        if
          es.Exec.Executor.es_parts_scanned > 0
          || es.Exec.Executor.es_parts_pruned > 0
        then
          Fmt.pr "-- partitions: %d scanned, %d pruned%s@."
            es.Exec.Executor.es_parts_scanned es.Exec.Executor.es_parts_pruned
            (if es.Exec.Executor.es_dop > 0 then
               Printf.sprintf "; exchange dop %d" es.Exec.Executor.es_dop
             else "");
        0)
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute a query and print results + work meter")
    Term.(
      const run $ sql $ mode $ limit $ batch_size $ check_flag $ engine_arg
      $ dop_arg)

let serve_cmd =
  let file =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"SQL file, one statement per line ($(b,-) = stdin)")
  in
  let workload =
    Arg.(
      value
      & opt (some int) None
      & info [ "workload" ] ~docv:"N"
          ~doc:"serve $(docv) generated workload queries instead of a file")
  in
  let repeat =
    Arg.(
      value & opt int 2
      & info [ "repeat" ] ~docv:"R"
          ~doc:
            "run the batch $(docv) times through one service (later passes \
             exercise the warm plan cache)")
  in
  let seed =
    Arg.(value & opt int 2006 & info [ "seed" ] ~doc:"workload seed")
  in
  let capacity =
    Arg.(
      value & opt int 128
      & info [ "cache-capacity" ] ~docv:"N" ~doc:"plan-cache entry bound")
  in
  let batch_size =
    Arg.(
      value
      & opt int Exec.Executor.default_batch_size
      & info [ "batch-size" ] ~docv:"N"
          ~doc:"executor rows per block (results do not depend on it)")
  in
  let min_hit_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-hit-rate" ] ~docv:"F"
          ~doc:
            "exit non-zero unless the final pass's cache hit rate is at \
             least $(docv)")
  in
  let validate_trace =
    Arg.(
      value & flag
      & info [ "validate-trace" ]
          ~doc:
            "check the service's cache-span tree and its JSON-Lines \
             rendering; exit non-zero on any violation")
  in
  let binds =
    Arg.(
      value & opt_all string []
      & info [ "bind" ] ~docv:"VALUE"
          ~doc:
            "bind value for the explicit :n markers of every statement \
             (repeatable, in marker order; int / float / string)")
  in
  let bind_value s =
    match int_of_string_opt s with
    | Some n -> V.Int n
    | None -> (
        match float_of_string_opt s with
        | Some f -> V.Float f
        | None -> V.Str s)
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "on exit, write a JSON snapshot of the metrics registry and the \
             per-fingerprint query store to $(docv)")
  in
  let workers =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"N"
          ~doc:"domain workers serving the request queue")
  in
  let queue_depth =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"D"
          ~doc:
            "request-queue bound: submissions beyond $(docv) queued requests \
             block the batch driver (admission control)")
  in
  let deadline_ms =
    Arg.(
      value & opt float 0.
      & info [ "deadline-ms" ] ~docv:"T"
          ~doc:
            "per-request deadline: requests still queued after $(docv) ms \
             are timed out without executing (0 = none)")
  in
  let run file workload repeat seed capacity batch_size min_hit_rate
      validate_trace binds engine dop metrics_out workers queue_depth
      deadline_ms check =
    let module Svc = Service in
    let module Pc = Service.Plan_cache in
    let module Sv = Server in
    let bvs = List.map bind_value binds in
    let db, stmts =
      match (workload, file) with
      | Some n, _ ->
          let db, schema =
            Workload.Schema_gen.build ~families:2 ~sample_frac:0.3
              ~partitions:8 ~seed ()
          in
          let g = Workload.Query_gen.create ~seed schema in
          ( db,
            List.map
              (fun it -> `Ir it.Workload.Query_gen.it_query)
              (Workload.Query_gen.workload g n) )
      | None, Some f ->
          let ic = if f = "-" then stdin else open_in f in
          let lines = ref [] in
          (try
             while true do
               let l = String.trim (input_line ic) in
               if l <> "" && not (String.length l >= 2 && String.sub l 0 2 = "--")
               then lines := l :: !lines
             done
           with End_of_file -> ());
          if f <> "-" then close_in ic;
          (demo_db (), List.rev_map (fun l -> `Sql l) !lines)
      | None, None ->
          Fmt.epr "serve: need FILE or --workload N@.";
          exit 2
    in
    if stmts = [] then (
      Fmt.epr "serve: no statements@.";
      exit 2);
    (* parse up front (and filter each statement's binds to the markers
       it references) so a malformed file fails before any domain spawns *)
    let items =
      List.map
        (fun stmt ->
          let q =
            match stmt with
            | `Sql sql -> (
                match Sqlparse.Parser.parse db.Storage.Db.cat sql with
                | Ok q -> q
                | Error msg ->
                    Fmt.epr "serve: parse error: %s@." msg;
                    exit 1)
            | `Ir q -> q
          in
          let need = Sqlir.Fingerprint.binds_count q in
          if List.length bvs < need then (
            Fmt.epr "serve: statement references %d bind(s), %d given@." need
              (List.length bvs);
            exit 1);
          (Sv.Ir q, List.filteri (fun i _ -> i < need) bvs))
        stmts
    in
    let config =
      {
        Svc.default_config with
        Svc.capacity;
        trace = Obs.Trace.Steps;
        batch_size;
        engine;
        dop;
        driver =
          (if check then
             { Cbqt.Driver.default_config with Cbqt.Driver.check = true }
           else Cbqt.Driver.default_config);
      }
    in
    let pool_cfg =
      {
        Sv.workers;
        queue_depth;
        deadline_s = deadline_ms /. 1000.;
        svc = config;
      }
    in
    let pool = Sv.create ~config:pool_cfg db in
    let se = Sv.session pool in
    let n = List.length items in
    let last_rate = ref 0. in
    let failures = ref 0 in
    for pass = 1 to max 1 repeat do
      let hits0 = (Pc.stats (Sv.cache pool)).Pc.hits in
      let t0 = Unix.gettimeofday () in
      let handles =
        List.map (fun (stmt, b) -> Sv.submit_wait ~binds:b pool se stmt) items
      in
      let outcomes = List.map Sv.await handles in
      let dt = Unix.gettimeofday () -. t0 in
      let rows = ref 0 and failed = ref 0 and rej = ref 0 and timed = ref 0 in
      List.iter
        (fun o ->
          match o with
          | Sv.Done r -> rows := !rows + r.Svc.r_nrows
          | Sv.Failed msg ->
              incr failed;
              if !failed <= 3 then Fmt.epr "serve: request failed: %s@." msg
          | Sv.Rejected -> incr rej
          | Sv.Timed_out -> incr timed)
        outcomes;
      failures := !failures + !failed;
      let hits = (Pc.stats (Sv.cache pool)).Pc.hits - hits0 in
      last_rate := float_of_int hits /. float_of_int n;
      Fmt.pr
        "pass %d: %d stmts, %d rows in %.1f ms (%.0f qps), %d cache hits \
         (rate %.2f), digest %016x%s@."
        pass n !rows (1000. *. dt)
        (float_of_int n /. Float.max 1e-9 dt)
        hits !last_rate
        (Sv.outcomes_digest outcomes)
        (if !failed + !rej + !timed = 0 then ""
         else
           Fmt.str ", %d failed, %d rejected, %d timed out" !failed !rej
             !timed)
    done;
    Sv.shutdown pool;
    Sv.publish_metrics pool;
    Fmt.pr "%a" Sv.pp_report (Sv.report pool);
    (match metrics_out with
    | None -> ()
    | Some f ->
        let doc =
          Obs.Json.to_string
            (Obs.Json.Obj
               [
                 ("registry", Obs.Metrics.to_json Obs.Metrics.default);
                 ( "query_store",
                   Obs.Query_store.to_json (Sv.query_store pool) );
               ])
        in
        let oc = open_out f in
        output_string oc doc;
        output_char oc '\n';
        close_out oc;
        Fmt.epr "wrote %s (%d bytes)@." f (String.length doc));
    let bad_rate =
      match min_hit_rate with
      | Some m when !last_rate < m ->
          Fmt.epr "serve: final-pass hit rate %.2f below required %.2f@."
            !last_rate m;
          true
      | _ -> false
    in
    let bad_trace =
      if not validate_trace then false
      else (
        (* one tracer per worker service: validate each span tree *)
        let errs, spans =
          List.fold_left
            (fun (errs, spans) svc ->
              let tr = Svc.tracer svc in
              ( errs @ Obs.Trace.validate tr
                @ List.map
                    (fun e -> "jsonl: " ^ e)
                    (Obs.Trace.validate_jsonl (Obs.Trace.to_jsonl tr)),
                spans + Obs.Trace.count_kind tr Obs.Trace.Cache ))
            ([], 0) (Sv.services pool)
        in
        List.iter (fun e -> Fmt.epr "invalid: %s@." e) errs;
        if errs = [] then
          Fmt.epr "validate: ok (%d cache spans over %d workers)@." spans
            workers;
        errs <> [])
    in
    let bad_check =
      if check && !failures > 0 then (
        Fmt.epr "serve: %d requests failed under --check@." !failures;
        true)
      else false
    in
    if bad_rate || bad_trace || bad_check then 1 else 0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Batch-execute statements through a domain worker pool sharing one \
          plan cache (soft parse / bind parameterization) and report hit \
          rates, QPS and pool outcomes")
    Term.(
      const run $ file $ workload $ repeat $ seed $ capacity $ batch_size
      $ min_hit_rate $ validate_trace $ binds $ engine_arg $ dop_arg
      $ metrics_out $ workers $ queue_depth $ deadline_ms $ check_flag)

let stats_cmd =
  let workload =
    Arg.(
      value & opt int 60
      & info [ "workload" ] ~docv:"N" ~doc:"generated workload queries to run")
  in
  let seed =
    Arg.(value & opt int 2006 & info [ "seed" ] ~doc:"workload seed")
  in
  let repeat =
    Arg.(
      value & opt int 2
      & info [ "repeat" ] ~docv:"R"
          ~doc:
            "passes over the workload (later passes soft-parse against the \
             warm plan cache)")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"rows per query-store top-N table")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "emit the registry + query-store snapshot as JSON instead of \
             the console tables")
  in
  let prom =
    Arg.(
      value & flag
      & info [ "prom" ]
          ~doc:
            "emit the registry in Prometheus text exposition format instead \
             of the console tables")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"write the output to $(docv)")
  in
  let workers =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"N"
          ~doc:"domain workers serving the workload")
  in
  let run workload seed repeat top json prom out engine dop workers =
    let module Svc = Service in
    let module Sv = Server in
    let module Mx = Obs.Metrics in
    (* a fresh run: the default registry is process-wide, so zero it *)
    Mx.reset Mx.default;
    let db, schema =
      Workload.Schema_gen.build ~families:2 ~sample_frac:0.3 ~partitions:8
        ~seed ()
    in
    let g = Workload.Query_gen.create ~seed schema in
    let items = Workload.Query_gen.workload g workload in
    let config =
      {
        Svc.default_config with
        Svc.engine;
        dop;
        metrics = true;
        (* analyze-mode execution feeds per-operator Q-error into the
           query store — the point of the stats report *)
        feedback = true;
      }
    in
    let pool_cfg = { Sv.default_config with Sv.workers; svc = config } in
    let pool = Sv.create ~config:pool_cfg db in
    let se = Sv.session pool in
    let stmts =
      List.map (fun it -> Sv.Ir it.Workload.Query_gen.it_query) items
    in
    for _pass = 1 to max 1 repeat do
      ignore (Sv.run_batch pool se stmts)
    done;
    Sv.shutdown pool;
    (* refreshes the cache gauges, meter counters and pool gauges *)
    ignore (Sv.report pool);
    Sv.publish_metrics pool;
    let emit doc =
      match out with
      | None -> print_string doc
      | Some f ->
          let oc = open_out f in
          output_string oc doc;
          close_out oc;
          Fmt.epr "wrote %s (%d bytes)@." f (String.length doc)
    in
    (match (json, prom) with
    | true, _ ->
        emit
          (Obs.Json.to_string
             (Obs.Json.Obj
                [
                  ("registry", Mx.to_json Mx.default);
                  ( "query_store",
                    Obs.Query_store.to_json (Sv.query_store pool) );
                ])
          ^ "\n")
    | false, true -> emit (Mx.to_prometheus Mx.default)
    | false, false ->
        Fmt.pr "-- metrics registry --@.%s@." (Mx.to_text Mx.default);
        Fmt.pr "-- query store --@.%s@."
          (Obs.Query_store.report_string ~top_n:top (Sv.query_store pool));
        Fmt.pr "%a" Sv.pp_report (Sv.report pool));
    0
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a generated workload through the server with metrics and \
          EXPLAIN-ANALYZE feedback on, then print the metrics registry, the \
          per-fingerprint query-store top-N tables (by total time, by \
          Q-error, by executions) and the pool gauges (queued, in-flight, \
          rejected, timed-out); $(b,--json) / $(b,--prom) emit \
          machine-readable snapshots")
    Term.(
      const run $ workload $ seed $ repeat $ top $ json $ prom $ out
      $ engine_arg $ dop_arg $ workers)

let schema_cmd =
  let run () =
    let db = demo_db () in
    let cat = db.Storage.Db.cat in
    List.iter
      (fun name ->
        let def = Catalog.find_table cat name in
        let rel = Storage.Db.relation db name in
        Fmt.pr "%s (%d rows)@." name (Storage.Relation.cardinality rel);
        List.iter
          (fun c ->
            Fmt.pr "  %-12s %-8s%s@." c.Catalog.c_name
              (V.ty_name c.c_ty)
              (if c.c_nullable then " NULL" else ""))
          def.t_cols;
        List.iter
          (fun ix ->
            Fmt.pr "  index %s (%s)%s@." ix.Catalog.ix_name
              (String.concat "," ix.ix_cols)
              (if ix.ix_unique then " unique" else ""))
          (Catalog.indexes_on cat name))
      (List.sort compare (Catalog.table_names cat));
    0
  in
  Cmd.v (Cmd.info "schema" ~doc:"Print the demo schema") Term.(const run $ const ())

let check_cmd =
  let seed =
    Arg.(value & opt int 2006 & info [ "seed" ] ~doc:"workload seed")
  in
  let families =
    Arg.(value & opt int 2 & info [ "families" ] ~doc:"schema families")
  in
  let count =
    Arg.(value & opt int 30 & info [ "queries" ] ~doc:"queries to generate")
  in
  let sem =
    Arg.(
      value & flag
      & info [ "sem" ]
          ~doc:
            "Semantic-verifier summary mode: run every query in \
             diagnostic-collection mode (no fail-fast), re-deriving the \
             inferred properties around every transformation attempt, and \
             print a per-rule table of the SEM/CB rule registry — rule ID, \
             number of firings, distinct blocks affected. Exits non-zero \
             if any rule fired.")
  in
  let run seed families count sem =
    let db, schema =
      Workload.Schema_gen.build ~families ~sample_frac:0.3 ~seed ()
    in
    let cat = db.Storage.Db.cat in
    let g = Workload.Query_gen.create ~seed schema in
    let items = Workload.Query_gen.workload g count in
    let configs =
      [
        ("cost", Cbqt.Driver.default_config);
        ("heuristic", Cbqt.Driver.heuristic_config);
      ]
    in
    if sem then (
      (* collection mode: every diagnostic of every query/mode is
         tallied per rule instead of failing the first run *)
      let fires : (string, int) Hashtbl.t = Hashtbl.create 16 in
      let blocks : (string, (string, unit) Hashtbl.t) Hashtbl.t =
        Hashtbl.create 16
      in
      let record qname tx (d : Analysis.Diagnostics.t) =
        let r = d.Analysis.Diagnostics.d_rule in
        Hashtbl.replace fires r
          (1 + Option.value ~default:0 (Hashtbl.find_opt fires r));
        let bs =
          match Hashtbl.find_opt blocks r with
          | Some bs -> bs
          | None ->
              let bs = Hashtbl.create 8 in
              Hashtbl.replace blocks r bs;
              bs
        in
        Hashtbl.replace bs
          (Fmt.str "%s/%s" qname d.Analysis.Diagnostics.d_path)
          ();
        Fmt.epr "%s %s (%s): %s@." r qname tx
          d.Analysis.Diagnostics.d_message
      in
      List.iter
        (fun it ->
          let qname =
            Fmt.str "q%d[%s]" it.Workload.Query_gen.it_id
              (Workload.Query_gen.class_name it.Workload.Query_gen.it_class)
          in
          List.iter
            (fun d -> record qname "input" d)
            (Analysis.Diagnostics.errors
               (Analysis.Ir_check.check cat it.Workload.Query_gen.it_query));
          List.iter
            (fun (_, config) ->
              let config =
                {
                  config with
                  Cbqt.Driver.check = true;
                  on_diag =
                    Some (fun tx errs -> List.iter (record qname tx) errs);
                }
              in
              ignore
                (Cbqt.Driver.optimize ~config cat
                   it.Workload.Query_gen.it_query))
            configs)
        items;
      let rules =
        Analysis.Rules.of_namespace "SEM" @ Analysis.Rules.of_namespace "CB"
      in
      let other_fired =
        Hashtbl.fold
          (fun r _ acc ->
            if List.exists (fun ru -> ru.Analysis.Rules.r_id = r) rules then
              acc
            else r :: acc)
          fires []
        |> List.sort compare
        |> List.filter_map Analysis.Rules.find
      in
      let total = Hashtbl.fold (fun _ n acc -> acc + n) fires 0 in
      Fmt.pr "semantic verifier: %d queries x %d modes@." (List.length items)
        (List.length configs);
      Fmt.pr "%-8s %6s %7s  %s@." "rule" "fires" "blocks" "summary";
      List.iter
        (fun ru ->
          let r = ru.Analysis.Rules.r_id in
          let n = Option.value ~default:0 (Hashtbl.find_opt fires r) in
          let b =
            match Hashtbl.find_opt blocks r with
            | Some bs -> Hashtbl.length bs
            | None -> 0
          in
          Fmt.pr "%-8s %6d %7d  %s@." r n b ru.Analysis.Rules.r_summary)
        (rules @ other_fired);
      if total = 0 then 0
      else (
        Fmt.epr "check --sem: %d diagnostics@." total;
        1))
    else
      let failures = ref 0 in
      List.iter
        (fun it ->
          let qname =
            Fmt.str "q%d[%s]" it.Workload.Query_gen.it_id
              (Workload.Query_gen.class_name it.Workload.Query_gen.it_class)
          in
          let n_errs = report_ir_findings cat it.Workload.Query_gen.it_query in
          if n_errs > 0 then (
            Fmt.epr "FAIL %s: %d static IR errors@." qname n_errs;
            incr failures);
          List.iter
            (fun (mode_name, config) ->
              let config = { config with Cbqt.Driver.check = true } in
              match
                Cbqt.Driver.optimize ~config cat it.Workload.Query_gen.it_query
              with
              | _ -> ()
              | exception Analysis.Diagnostics.Check_failed (tx, errs) ->
                  Fmt.epr "FAIL %s (mode %s): %s@." qname mode_name
                    (Analysis.Diagnostics.check_failed_message tx errs);
                  incr failures)
            configs)
        items;
      if !failures = 0 then (
        Fmt.pr "check: %d queries x %d modes clean@." (List.length items)
          (List.length configs);
        0)
      else (
        Fmt.epr "check: %d failures@." !failures;
        1)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the IR checker and transformation sanitizer over a generated \
          workload; exit non-zero on any finding. With $(b,--sem), collect \
          semantic-legality (SEM) and cost cross-check (CB) diagnostics \
          across the whole workload and print a per-rule summary table.")
    Term.(const run $ seed $ families $ count $ sem)

let () =
  let doc = "Cost-based query transformation (VLDB'06 reproduction)" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "cbqt" ~doc)
          [
            explain_cmd;
            run_cmd;
            serve_cmd;
            stats_cmd;
            trace_cmd;
            schema_cmd;
            check_cmd;
          ]))
