(** EXPLAIN ANALYZE: estimated vs. actual per-operator cardinalities.

    Executes a physical plan with {!Exec.Executor.execute_analyzed} and
    joins the per-operator actuals (calls, rows, {!Exec.Meter} deltas)
    against the cost model's estimates ({!Planner.Plan_est}), reporting
    the Q-error — [max(est/act, act/est)], the standard multiplicative
    misestimation factor — per operator and for the whole query.

    Actual rows are normalized {e per invocation} before comparison:
    nested-loop inner sides and TIS subquery plans run once per outer
    row, and their estimates are per execution, so comparing against
    the accumulated total would misreport exactly the operators whose
    cardinality matters most.

    Per-operator meter charges are {e self} charges: the node's
    accumulated meter minus its direct children's, so the self columns
    sum to the whole-query meter (tested in [test_obs]).

    {!ops_of_run} is the walk alone, over a run that already happened;
    the service's feedback path takes its Q-error samples from it. *)

module Plan = Exec.Plan
module Meter = Exec.Meter
module Executor = Exec.Executor
module Db = Storage.Db

(** One operator row of the report, in pre-order. *)
type op = {
  op_plan : Plan.t;
  op_depth : int;
  op_label : string;
  op_est_rows : float;  (** estimated output rows per invocation *)
  op_calls : int;  (** closure invocations (0 = never executed) *)
  op_total_rows : int;  (** rows produced, summed over invocations *)
  op_act_rows : float;  (** actual rows per invocation *)
  op_self : Meter.t;  (** meter charges net of children *)
  op_q_error : float;  (** [nan] when the operator never executed *)
  op_engine : string;  (** which engine interpreted the node *)
  op_sel_density : float;
      (** vectorized operators: fraction of entering rows surviving the
          selection vector ([nan] for row-engine nodes) *)
  op_shared : bool;
      (** repeat occurrence of a physically shared node: actuals and
          self charges are reported at its first occurrence only *)
}

type t = {
  ex_ops : op list;  (** pre-order over the plan *)
  ex_rows : int;  (** result rows *)
  ex_meter : Meter.t;  (** whole-query meter *)
  ex_root_q_error : float;
  ex_max_q_error : float;  (** worst executed operator *)
  ex_median_q_error : float;
  ex_parts_scanned : int;  (** partitions actually read *)
  ex_parts_pruned : int;  (** partitions skipped by runtime pruning *)
  ex_dop : int;  (** max effective exchange worker count; 0 = serial *)
}

(** [q_error ~est ~act] = [max(est/act, act/est)] with both sides
    clamped to at least one row, so "estimated 0.3, got 0" counts as
    perfect rather than dividing by zero — the convention of the
    cardinality-estimation literature. Always >= 1. *)
let q_error ~est ~act =
  let est = Float.max 1. est and act = Float.max 1. act in
  Float.max (est /. act) (act /. est)

(** The Q-errors of the operators that executed, in pre-order: one
    sample per physical node, taken at its first occurrence. *)
let q_errors (ops : op list) : float list =
  List.filter_map
    (fun o -> if Float.is_nan o.op_q_error then None else Some o.op_q_error)
    ops

(** The operator rows of an analyze-mode execution of [plan] that
    already ran: [stat_of] is its per-node lookup, [est_of] the
    planner's per-node estimates. *)
let ops_of_run (cat : Catalog.t) (plan : Plan.t) ~est_of
    ~(stat_of : Plan.t -> Executor.node_stat option) : op list =
  let visited : unit Executor.Ptbl.t = Executor.Ptbl.create 64 in
  let ops = ref [] in
  (* partitioned scans carry the costed pruning decision in the label:
     statically estimated surviving partitions over the total *)
  let label_of p =
    let base = Plan.node_label p in
    match p with
    | Plan.Part_scan { table; prune; _ } -> (
        match Catalog.part_spec cat table with
        | Some ps ->
            let est =
              List.length
                (Exec.Prune.survivors
                   ~value_of:(Exec.Prune.value_of ~binds:[||])
                   ps prune)
            in
            Printf.sprintf "%s [parts %d/%d est]" base est ps.Catalog.ps_n
        | None -> base)
    | _ -> base
  in
  let rec walk depth p =
    let first = not (Executor.Ptbl.mem visited p) in
    if first then Executor.Ptbl.add visited p ();
    let stat = stat_of p in
    let calls, total_rows =
      if not first then (0, 0)
      else
        match stat with
        | None -> (0, 0)
        | Some st -> (st.Executor.ns_calls, st.Executor.ns_rows)
    in
    let self =
      if not first then Meter.create ()
      else
        match stat with
        | None -> Meter.create ()
        | Some st ->
            let m = Meter.copy st.Executor.ns_meter in
            (* subtract each direct child's accumulated total; children
               are unvisited here (pre-order), so a shared child is
               consumed by its first parent only *)
            List.iter
              (fun c ->
                if not (Executor.Ptbl.mem visited c) then
                  match stat_of c with
                  | Some cst ->
                      Meter.add m
                        (Meter.diff (Meter.create ()) cst.Executor.ns_meter)
                  | None -> ())
              (Plan.children p);
            m
    in
    let act_rows = float_of_int total_rows /. float_of_int (max 1 calls) in
    let est_rows = match est_of p with Some e -> e | None -> nan in
    let qe = if calls = 0 then nan else q_error ~est:est_rows ~act:act_rows in
    let engine, density =
      match stat with
      | Some st when first ->
          ( st.Executor.ns_engine,
            if st.Executor.ns_sel_in > 0 then
              float_of_int st.Executor.ns_rows
              /. float_of_int st.Executor.ns_sel_in
            else nan )
      | _ -> ("row", nan)
    in
    ops :=
      {
        op_plan = p;
        op_depth = depth;
        op_label = label_of p;
        op_est_rows = est_rows;
        op_calls = calls;
        op_total_rows = total_rows;
        op_act_rows = act_rows;
        op_self = self;
        op_q_error = qe;
        op_engine = engine;
        op_sel_density = density;
        op_shared = not first;
      }
      :: !ops;
    List.iter (walk (depth + 1)) (Plan.children p)
  in
  walk 0 plan;
  List.rev !ops

(** Execute [plan] against [db] and build the per-operator report. The
    planner's cardinality estimates double as the executor's [card_of]
    hints, so the hybrid engine choice reported here is the one a
    served query would make; [engine] forces one path. *)
let analyze ?meter ?engine (db : Db.t) (plan : Plan.t) : t =
  let _, est_of = Planner.Plan_est.estimate db.Db.cat plan in
  let es = Executor.engine_stats_create () in
  let _, rows, whole, stat_of =
    Executor.execute_analyzed ?meter ?engine ~engine_stats:es ~card_of:est_of
      db plan
  in
  let ops = ops_of_run db.Db.cat plan ~est_of ~stat_of in
  let executed_qes = q_errors ops in
  let root_qe =
    match ops with
    | o :: _ when not (Float.is_nan o.op_q_error) -> o.op_q_error
    | _ -> nan
  in
  let max_qe = List.fold_left Float.max 1. executed_qes in
  let median_qe =
    match List.sort compare executed_qes with
    | [] -> nan
    | sorted -> List.nth sorted (List.length sorted / 2)
  in
  {
    ex_ops = ops;
    ex_rows = List.length rows;
    ex_meter = whole;
    ex_root_q_error = root_qe;
    ex_max_q_error = max_qe;
    ex_median_q_error = median_qe;
    ex_parts_scanned = es.Executor.es_parts_scanned;
    ex_parts_pruned = es.Executor.es_parts_pruned;
    ex_dop = es.Executor.es_dop;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let fmt_rows f =
  if Float.is_nan f then "-"
  else if Float.is_integer f && Float.abs f < 1e7 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.1f" f

let pp ppf (t : t) =
  let width =
    List.fold_left
      (fun w o -> max w ((o.op_depth * 2) + String.length o.op_label))
      4 t.ex_ops
  in
  Fmt.pf ppf "%-*s %10s %10s %7s %8s %12s %7s %6s@." width "PLAN" "est.rows"
    "act.rows" "calls" "q-err" "self-work" "engine" "sel%";
  List.iter
    (fun o ->
      let label = String.make (o.op_depth * 2) ' ' ^ o.op_label in
      if o.op_shared then
        Fmt.pf ppf "%-*s %10s %10s %7s %8s %12s %7s %6s@." width label
          "(shared)" "" "" "" "" "" ""
      else
        Fmt.pf ppf "%-*s %10s %10s %7d %8s %12.1f %7s %6s@." width label
          (fmt_rows o.op_est_rows)
          (if o.op_calls = 0 then "-" else fmt_rows o.op_act_rows)
          o.op_calls
          (if Float.is_nan o.op_q_error then "-"
           else Printf.sprintf "%.2f" o.op_q_error)
          (Meter.work o.op_self) o.op_engine
          (if Float.is_nan o.op_sel_density then "-"
           else Printf.sprintf "%.0f%%" (100. *. o.op_sel_density)))
    t.ex_ops;
  Fmt.pf ppf "@.%d rows; total work %.1f@." t.ex_rows (Meter.work t.ex_meter);
  (* cache key-build cost of the TIS / NL-inner result caches: values
     copied into lookup keys, traded against re-executing sub-plans *)
  if
    t.ex_meter.Meter.key_build > 0
    || t.ex_meter.Meter.subq_cache_hits > 0
    || t.ex_meter.Meter.subq_execs > 0
  then
    Fmt.pf ppf "subquery caches: %d execs, %d hits, %d key values built@."
      t.ex_meter.Meter.subq_execs t.ex_meter.Meter.subq_cache_hits
      t.ex_meter.Meter.key_build;
  if t.ex_parts_scanned > 0 || t.ex_parts_pruned > 0 then
    Fmt.pf ppf "partitions: %d scanned, %d pruned%s@." t.ex_parts_scanned
      t.ex_parts_pruned
      (if t.ex_dop > 0 then Printf.sprintf "; exchange dop %d" t.ex_dop
       else "");
  Fmt.pf ppf "q-error: root %s, median %s, max %s@."
    (if Float.is_nan t.ex_root_q_error then "-"
     else Printf.sprintf "%.2f" t.ex_root_q_error)
    (if Float.is_nan t.ex_median_q_error then "-"
     else Printf.sprintf "%.2f" t.ex_median_q_error)
    (Printf.sprintf "%.2f" t.ex_max_q_error)
