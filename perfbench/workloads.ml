(** The three request workloads, their databases, statements and
    reference results.

    Every workload is a closed loop: sessions wait for each reply before
    sending the next request, as {!Server.run_batch} callers do. What
    the program receives is SQL text only (no explicit binds); literals
    rotate across variants of one shape, so the service's
    auto-parameterization maps the variants to one cached plan.

    [--seed] draws the request stream: which statement each request
    sends, the rotated literals of each variant, and the sample seeds of
    the statistics refreshes. The databases and the shape sets come from
    fixed seeds, so runs at different seeds measure the same mix and
    their figures can be compared. *)

open Sqlir
module A = Ast
module V = Value
module Fp = Fingerprint
module QG = Workload.Query_gen
module SG = Workload.Schema_gen
module Rng = Workload.Rng
module Db = Storage.Db
module Svc = Service

(** Seed of every generated database and shape set. *)
let fixed_seed = 2006

(** One distinct statement: a literal variant of a shape, rendered as
    SQL, with the digest every response to it must carry. *)
type stmt = { shape : int; sql : string; digest : int }

type event = Req of int  (** send statement [sid] *) | Refresh of int
(** re-gather sampled statistics with this sample seed *)

type t = {
  name : string;
  db : Db.t;
  stmts : stmt array;
      (** variant-major: [sid = variant * shapes + shape], so two
          neighbouring statements never share a shape *)
  shapes : int;
  dropped : int;  (** generated shapes that did not survive the checks *)
  oracle_refeval : int;  (** statements whose reference came from Refeval *)
  workers : int;
  outstanding : int;  (** requests in flight from the one generator *)
  svc : Svc.config;
  stats_sample : float;
  stream : int -> unit -> event;  (** [stream seed] yields the requests *)
}

let names = [ "oltp_soft"; "adhoc_churn"; "analytic_scan" ]

(** Statistics as {!SG.build} gathered them at load time. *)
let initial_sample_seed = fixed_seed lxor 0x5DEECE

let restats (w : t) (sample_seed : int) =
  Storage.Stats_gather.analyze
    ~sample:(Some (sample_seed, w.stats_sample))
    w.db

(* ------------------------------------------------------------------ *)
(* Statements                                                           *)
(* ------------------------------------------------------------------ *)

(* ROWNUM over an ORDER BY with ties keeps whichever tied rows the plan
   delivers first, so its result depends on the plan: no fixed digest
   can check it once statistics refreshes change plans. *)
let order_dependent sql =
  let re = "ROWNUM" in
  let n = String.length sql and m = String.length re in
  let rec go i = i + m <= n && (String.sub sql i m = re || go (i + 1)) in
  go 0

(** Rotate a literal: ints and dates move by a small seeded amount,
    strings stay (their domains are short enumerations). *)
let rotate rng = function
  | V.Int n when abs n >= 100 -> V.Int (n + Rng.int rng (1 + (abs n / 10)))
  | V.Int n -> V.Int (n + Rng.int rng 3)
  | V.Date d -> V.Date (d + Rng.int rng 60)
  | v -> v

(** [variants] renderings of [q]: the first keeps the generated
    literals, the others rotate them. *)
let render_variants rng ~variants (q : A.query) : string list =
  let shape, lits = Fp.parameterize q in
  List.init variants (fun k ->
      let lits = if k = 0 then lits else List.map (rotate rng) lits in
      Pp.query_to_string (Fp.instantiate shape (Array.of_list lits)))

(** Cross-product size of a query's table references: Refeval is a
    nested-loop interpreter, affordable only while this stays small. *)
let refeval_affordable (db : Db.t) (q : A.query) =
  let rec refs acc = function
    | A.Setop (_, l, r) -> refs (refs acc l) r
    | A.Block b ->
        let acc =
          List.fold_left
            (fun acc fe ->
              match fe.A.fe_source with
              | A.S_table t -> t :: acc
              | A.S_view v -> refs acc v)
            acc b.A.from
        in
        List.fold_left
          (fun acc p -> List.fold_left refs acc (Walk.pred_subqueries p))
          acc b.A.where
  in
  let rows t =
    float_of_int (Storage.Relation.cardinality (Hashtbl.find db.Db.rels t))
  in
  List.fold_left (fun acc t -> acc *. rows t) 1. (refs [] q) <= 2e4

let digest_of_rows rows =
  Server.result_digest
    {
      Svc.r_layout = [||];
      r_rows = rows;
      r_nrows = List.length rows;
      r_outcome = Svc.Hit;
      r_cost = 0.;
      r_parse_s = 0.;
    }

(** Reference digest of one statement, and whether Refeval gave it;
    [Error] when its SQL does not re-parse, compile or run. Refeval
    answers where affordable; a serial row-engine service answers the
    rest, and must agree with Refeval wherever Refeval answers (a
    disagreement fails the run). *)
let reference (db : Db.t) (oracle : Svc.t) (sql : string) :
    (int * bool, string) result =
  match Sqlparse.Parser.parse db.Db.cat sql with
  | Error e -> Error ("parse: " ^ e)
  | Ok q -> (
      match Svc.exec oracle sql [] with
      | exception e -> Error ("compile/run: " ^ Printexc.to_string e)
      | r ->
          let d = Server.result_digest r in
          if not (refeval_affordable db q) then Ok (d, false)
          else
            match Refeval.eval db q with
            | exception Refeval.Eval_error _ -> Ok (d, false)
            | rr ->
                let dr =
                  digest_of_rows (List.map Array.of_list rr.Refeval.rows)
                in
                if dr = d then Ok (dr, true)
                else failwith ("row engine disagrees with Refeval on: " ^ sql))

let oracle_service (db : Db.t) =
  Svc.create
    ~config:
      {
        Svc.default_config with
        Svc.engine = Exec.Executor.Row;
        dop = Planner.Parallel.Serial;
        capacity = 4096;
        metrics = false;
      }
    db

(** Keep the shapes whose every variant renders to SQL that re-parses,
    compiles and runs, with one reference digest per variant; drop
    shapes whose printed SQL is order-dependent or duplicates an
    earlier shape. [candidates] yields each shape's SQL variants and
    stops the scan at [want] kept shapes. *)
let check_shapes (db : Db.t) ~want (candidates : string list list) =
  let oracle = oracle_service db in
  let seen = Hashtbl.create 64 in
  let kept = ref [] and nkept = ref 0 and dropped = ref 0 and by_refeval = ref 0 in
  let shape_key sql =
    let q = Sqlparse.Parser.parse_exn db.Db.cat sql in
    let key = Fp.canonical ~mode:Fp.Generic (fst (Fp.parameterize q)) in
    Fp.hash ~mode:Fp.Generic key
  in
  List.iter
    (fun sqls ->
      if !nkept < want then
        let refs = List.map (reference db oracle) sqls in
        if
          List.exists order_dependent sqls
          || List.exists Result.is_error refs
        then incr dropped
        else
          let key = shape_key (List.hd sqls) in
          if Hashtbl.mem seen key then incr dropped
          else begin
            Hashtbl.add seen key ();
            let refs = List.map Result.get_ok refs in
            List.iter (fun (_, r) -> if r then incr by_refeval) refs;
            kept := List.combine sqls (List.map fst refs) :: !kept;
            incr nkept
          end)
    candidates;
  (List.rev !kept, !dropped, !by_refeval)

(** Lay the kept shapes' variants out variant-major. *)
let layout_stmts (shapes : (string * int) list list) : stmt array =
  let shapes = Array.of_list (List.map Array.of_list shapes) in
  let n = Array.length shapes in
  let variants = if n = 0 then 0 else Array.length shapes.(0) in
  Array.init (n * variants) (fun sid ->
      let shape = sid mod n and v = sid / n in
      let sql, digest = shapes.(shape).(v) in
      { shape; sql; digest })

let generated_shapes db schema ~seed ~mix ~candidates ~variants ~want =
  let g = QG.create ~seed:(fixed_seed lxor 0x5E4E) schema in
  let rng = Rng.create seed in
  let cands =
    List.map
      (fun it -> render_variants rng ~variants it.QG.it_query)
      (QG.workload ~mix g candidates)
  in
  check_shapes db ~want cands

(* ------------------------------------------------------------------ *)
(* Streams                                                              *)
(* ------------------------------------------------------------------ *)

(** Uniform over every distinct statement. *)
let uniform_stream n seed =
  let rng = Rng.create (seed lxor 0x57EA) in
  fun () -> Req (Rng.int rng n)

(** Zipf(1) popularity over the shapes in generation order (one variant
    each), with a statistics refresh before every [every]-th request. *)
let zipf_stream n ~every seed =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (i + 1));
    cdf.(i) <- !acc
  done;
  let rng = Rng.create (seed lxor 0x2F1F) in
  let sent = ref 0 and refreshes = ref 0 in
  fun () ->
    if !sent > 0 && !sent mod every = 0 && !refreshes < !sent / every then begin
      incr refreshes;
      Refresh ((seed * 7919) + !refreshes)
    end
    else begin
      incr sent;
      let u = Rng.float rng *. !acc in
      let rec find lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if cdf.(mid) < u then find (mid + 1) hi else find lo mid
      in
      Req (find 0 (n - 1))
    end

(* ------------------------------------------------------------------ *)
(* The workloads                                                        *)
(* ------------------------------------------------------------------ *)

(** About 40 optimizer-heavy shapes over tiny tables, 8 literal
    variants each. The cache holds every shape, so after the warm-up
    every request soft-parses: pool handoff, parse, fingerprint, probe
    and bookkeeping are the whole latency. *)
let oltp_soft ~seed ~scale =
  let sample = 0.3 in
  let db, schema =
    SG.build ~families:2 ~sample_frac:sample
      ~row_scale:(0.04 *. scale) ~seed:fixed_seed ()
  in
  let heavy =
    QG.
      [
        C_exists; C_not_exists; C_in_multi; C_not_in; C_agg_subq; C_gb_view;
        C_distinct_view; C_union_factor; C_gbp; C_or; C_setop;
      ]
  in
  let mix = List.map (fun c -> (c, 1. /. float_of_int (List.length heavy))) heavy in
  let shapes, dropped, by_refeval =
    generated_shapes db schema ~seed ~mix ~candidates:120 ~variants:8 ~want:40
  in
  let stmts = layout_stmts shapes in
  {
    name = "oltp_soft";
    db;
    stmts;
    shapes = List.length shapes;
    dropped;
    oracle_refeval = by_refeval;
    workers = 2;
    outstanding = 2;
    svc = { Svc.default_config with Svc.capacity = 128 };
    stats_sample = sample;
    stream = uniform_stream (Array.length stmts);
  }

(** A few hundred default-mix shapes with Zipf popularity against a
    64-entry plan cache, and a sampled statistics refresh every 150
    requests: hard parses (CBQT search and physical optimization) and
    the cache's store / evict / invalidate / keep-by-guard path
    dominate. *)
let adhoc_churn ~seed ~scale =
  let sample = 0.15 in
  let db, schema =
    SG.build ~families:4 ~sample_frac:sample ~row_scale:(0.25 *. scale)
      ~seed:fixed_seed ()
  in
  let shapes, dropped, by_refeval =
    generated_shapes db schema ~seed ~mix:QG.default_mix ~candidates:400
      ~variants:1 ~want:max_int
  in
  let stmts = layout_stmts shapes in
  {
    name = "adhoc_churn";
    db;
    stmts;
    shapes = List.length shapes;
    dropped;
    oracle_refeval = by_refeval;
    workers = 1;
    outstanding = 1;
    svc = { Svc.default_config with Svc.capacity = 64 };
    stats_sample = sample;
    stream = zipf_stream (Array.length stmts) ~every:100;
  }

(** 8-way hash-partitioned facts at 10x rows, [dop = Auto], warm cache:
    a filtered scan, two two-phase group-bys, a co-located fact-mid
    join and partition-key point lookups, 8 literal variants each. The
    executor, exchange and pruning dominate. *)
let analytic_scan ~seed ~scale =
  let sample = 0.15 in
  let db, _ =
    SG.build ~families:1 ~sample_frac:sample ~row_scale:(10. *. scale)
      ~partitions:8 ~seed:fixed_seed ()
  in
  let mid_rows =
    Storage.Relation.cardinality (Hashtbl.find db.Db.rels "f0_mid")
  in
  let templates =
    [
      (fun r ->
        Printf.sprintf "SELECT f.id, f.m1 FROM f0_fact0 f WHERE f.m1 > %d"
          (Rng.range r 7000 9500));
      (fun r ->
        Printf.sprintf
          "SELECT f.region, SUM(f.m2), COUNT(f.id) FROM f0_fact0 f WHERE f.m1 \
           > %d GROUP BY f.region"
          (Rng.range r 500 5000));
      (fun r ->
        Printf.sprintf
          "SELECT f.status_c, SUM(f.m1), COUNT(f.id) FROM f0_fact0 f WHERE \
           f.m2 < %d GROUP BY f.status_c"
          (Rng.range r 3000 9500));
      (fun r ->
        Printf.sprintf
          "SELECT f.id, m.status FROM f0_fact0 f, f0_mid m WHERE f.mid_id = \
           m.id AND f.m2 < %d"
          (Rng.range r 500 2500));
      (fun r ->
        Printf.sprintf "SELECT f.id, f.m1, f.m2 FROM f0_fact0 f WHERE f.mid_id = %d"
          (1 + Rng.int r mid_rows));
    ]
  in
  let rng = Rng.create seed in
  let cands = List.map (fun tpl -> List.init 8 (fun _ -> tpl rng)) templates in
  let shapes, dropped, by_refeval = check_shapes db ~want:max_int cands in
  let stmts = layout_stmts shapes in
  {
    name = "analytic_scan";
    db;
    stmts;
    shapes = List.length shapes;
    dropped;
    oracle_refeval = by_refeval;
    workers = 1;
    outstanding = 1;
    svc =
      {
        Svc.default_config with
        Svc.capacity = 128;
        dop = Planner.Parallel.Auto;
      };
    stats_sample = sample;
    stream = uniform_stream (Array.length stmts);
  }

let setup name ~seed ~scale =
  match name with
  | "oltp_soft" -> oltp_soft ~seed ~scale
  | "adhoc_churn" -> adhoc_churn ~seed ~scale
  | "analytic_scan" -> analytic_scan ~seed ~scale
  | n -> invalid_arg ("unknown workload " ^ n)
