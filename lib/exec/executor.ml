(** Pull-based, block-at-a-time plan executor: the row engine, and the
    dispatcher of the hybrid row/vectorized execution.

    [prepare] compiles a plan into a tree of {e cursors} (the protocol
    and block combinators live in {!Cursor}). A cursor is opened with
    the rows of its correlation scopes, then pulled with [c_next],
    which yields {!Batch.t} blocks of rows until exhaustion. Scans,
    filters, projections and the probe sides of hash joins stream
    block-at-a-time without materializing intermediates; pipeline
    breakers (sort, group-by, hash-join build sides, distinct, set ops,
    limit) collect their input into growable {!Batch.Vec} row vectors
    and then emit the whole result as a single view batch.

    At every pipeline that fits the columnar grammar (table or
    partition scan → filters → optional projection, or aggregation
    with at most one group key; or an inner one-key hash join of two
    such scan chains, optionally projected), inside exchange tasks
    too, [prepare] first offers the node to {!Vector.try_root}: under
    the [Auto] engine the choice is cost-driven — the planner's
    cardinality estimate for the pipeline's source scan (a join's
    probe scan; threaded through {!Cursor.ctx.card_of}) must reach
    [vector_threshold] — while
    [Row]/[Vector] force one path for differential testing and
    benchmarking. Vectorized pipelines
    process segments through typed column vectors and a selection
    vector ({!Colbatch}, {!Vector}); everything else runs the row path
    below. Both paths are {e meter-equal field by field} and return
    identical rows — the test suite checks this differentially against
    {!Baseline} as well.

    Inner sides of nested-loop joins and TIS subquery plans are
    re-opened per outer row — exactly the tuple-iteration semantics the
    paper describes — with result caching keyed on the outer values
    (through {!Keys}, which meters the key-build cost), modelling
    Oracle's semijoin/antijoin and subquery-filter caches
    (Section 2.1.1).

    Each operator family has one kernel, so every node and code path
    that runs it charges the same units: one slice-scan loop
    ([scan_into]) behind table, partition and index scans and the
    nested-loop leaf path, over the slices {!Cursor.scan_slices} hands
    both engines, with one B-tree probe ([probe_rowids]); one
    join-candidate test ([join_cand]) behind every join method and
    role; and one group-by fold ([group_fold]) behind [Aggregate],
    [Partial_agg] and [Final_agg].

    All data movement is charged to the context's {!Meter}; the meter's
    weighted total is the reproduction's notion of execution time.
    Charges are accounted {e identically} to the list-at-a-time
    {!Baseline} engine (checked differentially by the test suite), and
    neither results nor meter totals depend on the batch size:
    operators that could otherwise observe block boundaries (LIMIT,
    ROWNUM filters) drain their child fully, as the baseline did.

    In analyze mode every cursor's open/next/close is wrapped to
    accumulate per-node calls / rows / meter deltas into a {!node_stat}
    keyed by the plan node's physical identity; [ns_calls] counts opens
    (= executions, as before), [ns_rows] sums emitted block lengths, and
    [ns_meter] includes the node's children — the self-only share is
    recovered at report time by subtracting the children's totals.
    Vectorized nodes additionally record the engine and their
    selection-vector density inputs. *)

open Sqlir
module A = Ast
module Db = Storage.Db
module Relation = Storage.Relation
module Btree = Storage.Btree
module B = Batch
module Vec = Batch.Vec
open Cursor

type row = Eval.row
type layout = Eval.layout

(* Re-exported from {!Cursor} so existing callers keep their paths
   (tests and EXPLAIN access [st.Executor.ns_calls] etc.). *)

type engine = Cursor.engine = Auto | Row | Vector

type engine_stats = Cursor.engine_stats = {
  mutable es_vector : int;
  mutable es_row : int;
  mutable es_parts_scanned : int;
  mutable es_parts_pruned : int;
  mutable es_dop : int;
}

let engine_name = Cursor.engine_name
let engine_of_string = Cursor.engine_of_string
let engine_stats_create = Cursor.engine_stats_create

type node_stat = Cursor.node_stat = {
  mutable ns_calls : int;
  mutable ns_rows : int;
  ns_meter : Meter.t;
  mutable ns_engine : string;
  mutable ns_sel_in : int;
}

module Ptbl = Cursor.Ptbl

exception Runtime_error of string

(* Hash table over value-list keys with the same equality as {!Vkey}
   (Int and Float compare numerically under [Value.compare_total], so
   numeric values hash through their float image). Used for the hot
   per-row lookups — join buckets, group tables, distinct/set-op sets,
   TIS and NL result caches — where iteration order is unobservable;
   {!Vkey} remains wherever an iteration order could leak into meter
   charges (the SP_in null-probe scan) or where sorted order is
   convenient (window partitions). *)
let hash_value = Value.hash_total

module Hkey = Hashtbl.Make (struct
  type t = Value.t list

  let equal a b = List.compare Value.compare_total a b = 0
  let hash k = List.fold_left (fun acc v -> (acc * 31) + hash_value v) 17 k
end)

(* Lexicographic comparison of precomputed key tuples (equal widths). *)
let cmp_keys (k1 : Value.t array) (k2 : Value.t array) =
  let n = Array.length k1 in
  let rec go i =
    if i >= n then 0
    else
      let c = Value.compare_total k1.(i) k2.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Direction-aware comparison; missing directions default to ascending
   and surplus directions are ignored, as in the AST. *)
let cmp_keys_dirs (dirs : A.dir array) (k1 : Value.t array)
    (k2 : Value.t array) =
  let n = Array.length k1 in
  let nd = Array.length dirs in
  let rec go i =
    if i >= n then 0
    else
      let c = Value.compare_total k1.(i) k2.(i) in
      let c =
        if i < nd then match dirs.(i) with A.Asc -> c | A.Desc -> -c else c
      in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* --------------------------------------------------------------- *)
(* Cursor-layer specialization                                       *)
(* --------------------------------------------------------------- *)

(* Compiling to cursors makes it worthwhile to specialize the hot
   per-row paths that the generic closure compiler ({!Eval}) cannot: a
   predicate whose operands are columns of the node's own row (or
   constants) evaluates by direct array indexing — no scope stack is
   consed and no 3VL option is boxed — and a join residual over single
   columns is tested without materializing the combined row first.
   Specialization is invisible to the meter: simple comparisons charge
   nothing in either engine, and mixed conjunct lists keep the
   original left-to-right evaluation order, so expensive-function
   short-circuit counts are preserved. The resolution helpers
   ({!Eval.find_col}, {!Eval.simple_arg}) are shared with the
   vectorized engine's conjunct compiler. *)

let find_col = Eval.find_col
let simple_arg = Eval.simple_arg

type fpred = F_fast of (row -> bool) | F_slow of (row list -> bool option)

(* Compile filter conjuncts into a row test equivalent to
   [Eval.passes] over [layout :: scopes]: every conjunct must be
   [Some true], UNKNOWN folds to false. *)
let compile_filter ~meter ~binds (layout : layout) scopes
    (preds : A.pred list) : row -> row list -> bool =
  let conjunct p =
    match p with
    | A.Cmp (op, a, b) -> (
        match (simple_arg ~binds layout a, simple_arg ~binds layout b) with
        | Some fa, Some fb ->
            let test = Eval.cmp_test op in
            F_fast
              (fun r ->
                let va = fa r and vb = fb r in
                (not (Value.is_null va || Value.is_null vb))
                && test (Value.compare_total va vb))
        | _ -> F_slow (Eval.compile_pred ~meter ~binds (layout :: scopes) p))
    | _ -> F_slow (Eval.compile_pred ~meter ~binds (layout :: scopes) p)
  in
  let fps = List.map conjunct preds in
  if List.for_all (function F_fast _ -> true | F_slow _ -> false) fps then
    let fa =
      Array.of_list
        (List.filter_map (function F_fast f -> Some f | F_slow _ -> None) fps)
    in
    match fa with
    | [||] -> fun _ _ -> true
    | [| f |] -> fun r _ -> f r
    | _ ->
        let n = Array.length fa in
        fun r _ ->
          let rec go i = i >= n || ((Array.unsafe_get fa i) r && go (i + 1)) in
          go 0
  else
    fun r orows ->
      let rows = r :: orows in
      List.for_all
        (function F_fast f -> f r | F_slow g -> g rows = Some true)
        fps

(* A scalar evaluated per row (aggregate arguments, key expressions). *)
let compile_scalar ~meter ~binds (layout : layout) scopes (e : A.expr) :
    row -> row list -> Value.t =
  match simple_arg ~binds layout e with
  | Some f -> fun r _ -> f r
  | None ->
      let g = Eval.compile_expr ~meter ~binds (layout :: scopes) e in
      fun r orows -> g (r :: orows)

(* Key tuples (join / group / sort keys) built per row. Key building
   charges nothing in either engine, so specialization cannot skew the
   meter. *)
let compile_keys_list ~meter ~binds (layout : layout) scopes exprs :
    row -> row list -> Value.t list =
  let fast = List.map (simple_arg ~binds layout) exprs in
  if List.for_all Option.is_some fast then
    let fs = List.map Option.get fast in
    fun r _ -> List.map (fun f -> f r) fs
  else
    let fs =
      List.map (Eval.compile_expr ~meter ~binds (layout :: scopes)) exprs
    in
    fun r orows ->
      let rows = r :: orows in
      List.map (fun f -> f rows) fs

let compile_keys_arr ~meter ~binds (layout : layout) scopes exprs :
    row -> row list -> Value.t array =
  let fast = List.map (simple_arg ~binds layout) exprs in
  if List.for_all Option.is_some fast then
    let fa = Array.of_list (List.map Option.get fast) in
    fun r _ -> Array.map (fun f -> f r) fa
  else
    let fs =
      List.map (Eval.compile_expr ~meter ~binds (layout :: scopes)) exprs
    in
    fun r orows ->
      let rows = r :: orows in
      Array.of_list (List.map (fun f -> f rows) fs)

(* Join condition / residual test over (left row, right row) pairs.
   [J_pair] reads single columns of either side directly, so no
   combined row is needed for the test; [J_gen] additionally receives
   the combined row, built once by the caller and reusable for
   output. *)
type jtest =
  | J_triv  (** no conjuncts: always true *)
  | J_pair of (row -> row -> bool)
  | J_gen of (row -> row -> row -> row list -> bool)
      (** left, right, combined, correlation scopes *)

type fpred2 =
  | F_fast2 of (row -> row -> bool)
  | F_slow2 of (row list -> bool option)

let compile_jtest ~meter ~binds ~(left : layout) ~(right : layout) scopes
    (preds : A.pred list) : jtest =
  match preds with
  | [] -> J_triv
  | _ ->
      let combined = Array.append left right in
      (* left side first: matches resolution order against the
         combined layout *)
      let arg e =
        match simple_arg ~binds left e with
        | Some f -> Some (fun l _ -> f l)
        | None -> (
            match simple_arg ~binds right e with
            | Some f -> Some (fun _ r -> f r)
            | None -> None)
      in
      let step p =
        match p with
        | A.Cmp (op, a, b) -> (
            match (arg a, arg b) with
            | Some fa, Some fb ->
                let test = Eval.cmp_test op in
                F_fast2
                  (fun l r ->
                    let va = fa l r and vb = fb l r in
                    (not (Value.is_null va || Value.is_null vb))
                    && test (Value.compare_total va vb))
            | _ ->
                F_slow2 (Eval.compile_pred ~meter ~binds (combined :: scopes) p)
            )
        | _ -> F_slow2 (Eval.compile_pred ~meter ~binds (combined :: scopes) p)
      in
      let steps = List.map step preds in
      if List.for_all (function F_fast2 _ -> true | F_slow2 _ -> false) steps
      then
        let fa =
          Array.of_list
            (List.filter_map
               (function F_fast2 f -> Some f | F_slow2 _ -> None)
               steps)
        in
        let n = Array.length fa in
        J_pair
          (fun l r ->
            let rec go i =
              i >= n || ((Array.unsafe_get fa i) l r && go (i + 1))
            in
            go 0)
      else
        J_gen
          (fun l r j orows ->
            let rows = j :: orows in
            List.for_all
              (function F_fast2 f -> f l r | F_slow2 g -> g rows = Some true)
              steps)

(* The join-candidate test, shared by every join method and role:
   charges one [rows_joined] and tests the condition on left row [l]
   and candidate [r]. When [keep], a survivor's combined row is pushed
   to [out]; it is built once, by the test itself for a generic
   condition and otherwise only for survivors, so the reject path
   allocates nothing the condition does not need. *)
let join_cand (meter : Meter.t) jt ~keep out l r orows =
  meter.rows_joined <- meter.rows_joined + 1;
  match jt with
  | J_triv ->
      if keep then Vec.push out (Array.append l r);
      true
  | J_pair f ->
      f l r
      && begin
           if keep then Vec.push out (Array.append l r);
           true
         end
  | J_gen f ->
      let j = Array.append l r in
      f l r j orows
      && begin
           if keep then Vec.push out j;
           true
         end

(* Test every candidate [cands.(lo) .. cands.(hi - 1)] of [l]: does
   any survive? Every candidate is charged and (for generic
   conditions, which may call expensive functions) evaluated, as the
   list engine's filter did. *)
let join_cands meter jt ~keep out l orows cands lo hi =
  let matched = ref false in
  for i = lo to hi - 1 do
    if join_cand meter jt ~keep out l (Array.unsafe_get cands i) orows then
      matched := true
  done;
  !matched

(* NOT IN semantics: a candidate is a possible match unless some
   conjunct of the full condition is definitely false under 3VL. *)
let possible_match (meter : Meter.t) fconds3 l orows r =
  meter.rows_joined <- meter.rows_joined + 1;
  let j = Array.append l r in
  not (List.exists (fun f -> f (j :: orows) = Some false) fconds3)

(* Output of left row [l] against its candidates for a role that tests
   every candidate: inner and outer push each survivor's combined row,
   outer a NULL-extended row when none survives; semi and anti push
   [l] on some / no match. The null-aware antijoin has its own
   possible-match test. *)
let join_row meter jt role ~right_width out l orows cands lo hi =
  match role with
  | Plan.Inner -> ignore (join_cands meter jt ~keep:true out l orows cands lo hi)
  | Plan.Left_outer ->
      if not (join_cands meter jt ~keep:true out l orows cands lo hi) then
        Vec.push out (Array.append l (Array.make right_width Value.Null))
  | Plan.Semi | Plan.Anti ->
      if
        join_cands meter jt ~keep:false out l orows cands lo hi
        = (role = Plan.Semi)
      then Vec.push out l
  | Plan.Anti_na -> invalid_arg "Executor: null-aware antijoin has no join_row"

(* --------------------------------------------------------------- *)
(* Scans                                                             *)
(* --------------------------------------------------------------- *)

(* One B-tree probe, shared by the index-scan cursor and the
   nested-loop leaf path: prefix and range bounds are evaluated under
   the correlation rows, the tree height is charged to [idx_probes],
   and every entry a range walk touches and every rowid returned to
   [idx_entries]. A NULL in the prefix matches nothing. *)
let probe_rowids (ctx : ctx) scopes ~table ~index ~prefix ~lo ~hi :
    row list -> int list =
  let meter = ctx.meter in
  let binds = ctx.binds in
  let bt = Db.index ctx.db ~table ~name:index in
  let fprefix = List.map (Eval.compile_expr ~meter ~binds scopes) prefix in
  let bound = function
    | Plan.R_unbounded -> fun _ -> Btree.Unbounded
    | Plan.R_incl e ->
        let f = Eval.compile_expr ~meter ~binds scopes e in
        fun orows -> Btree.Incl (f orows)
    | Plan.R_excl e ->
        let f = Eval.compile_expr ~meter ~binds scopes e in
        fun orows -> Btree.Excl (f orows)
  in
  let flo = bound lo and fhi = bound hi in
  let full_key_eq = List.length prefix = List.length bt.Btree.bt_cols in
  fun orows ->
    let pvals = List.map (fun f -> f orows) fprefix in
    meter.idx_probes <- meter.idx_probes + Btree.height bt;
    let ids =
      if List.exists Value.is_null pvals && pvals <> [] then []
      else if full_key_eq then Btree.find_eq bt pvals
      else
        match (flo orows, fhi orows) with
        | Btree.Unbounded, Btree.Unbounded when pvals <> [] ->
            Btree.find_prefix bt pvals
        | lo, hi ->
            let ids, touched = Btree.range bt ~prefix:pvals ~lo ~hi in
            meter.idx_entries <- meter.idx_entries + touched;
            ids
    in
    meter.idx_entries <- meter.idx_entries + List.length ids;
    ids

(* A scan leaf as input to the one scan kernel: its compiled filter,
   and a per-open function that charges the node's own access cost and
   returns the rows to read as ascending [lo, hi) slices of an array.
   Table and partition scans take their slices from {!scan_slices},
   which the vectorized engine shares; an index scan is the single
   slice over the rows its probe returned. *)
let scan_leaf (ctx : ctx) scopes (p : Plan.t) :
    (row -> row list -> bool) * (row list -> row array * (int * int) array)
    =
  let filter_of filter =
    compile_filter ~meter:ctx.meter ~binds:ctx.binds
      (Plan.layout p ctx.db.Db.cat) scopes filter
  in
  match p with
  | Plan.Table_scan { filter; _ } | Plan.Part_scan { filter; _ } ->
      let slices = scan_slices ctx p in
      (filter_of filter, fun _ -> slices ())
  | Plan.Index_scan { table; alias = _; index; prefix; lo; hi; filter } ->
      let rel = Db.relation ctx.db table in
      let probe = probe_rowids ctx scopes ~table ~index ~prefix ~lo ~hi in
      ( filter_of filter,
        fun orows ->
          let heap = rel.Relation.r_rows in
          let ids = probe orows in
          let rows = Array.make (List.length ids) [||] in
          List.iteri (fun i rid -> Array.unsafe_set rows i heap.(rid)) ids;
          (rows, [| (0, Array.length rows) |]) )
  | _ -> invalid_arg "Executor.scan_leaf: not a scan"

(* The scan kernel: read [rows.(pos) .. rows.(hi - 1)] in order while
   [out] has room, adding each row that passes [ftest]. Charges
   [rows_scanned] per row read; returns the next position to read. *)
let scan_into (meter : Meter.t) ftest orows (rows : row array) pos hi
    (out : B.t) =
  let cap = Array.length out.B.data in
  let p = ref pos in
  while !p < hi && out.B.len < cap do
    let tup = Array.unsafe_get rows !p in
    incr p;
    if ftest tup orows then B.add out tup
  done;
  meter.rows_scanned <- meter.rows_scanned + (!p - pos);
  !p

(* A scan leaf as a cursor: per open the leaf's slices, per next the
   scan kernel across them until the block fills. *)
let scan_cursor (ctx : ctx) (ftest, slices_of) : cursor =
  let out = B.create ctx.size in
  let rows = ref [||] and slices = ref [||] in
  let si = ref 0 and pos = ref 0 in
  let orows_r = ref [] in
  let c_open orows =
    orows_r := orows;
    let r, sl = slices_of orows in
    rows := r;
    slices := sl;
    si := 0;
    pos := if Array.length sl > 0 then fst sl.(0) else 0
  in
  let c_next () =
    B.clear out;
    let sl = !slices in
    let ns = Array.length sl in
    while !si < ns && not (B.is_full out) do
      let hi = snd sl.(!si) in
      pos := scan_into ctx.meter ftest !orows_r !rows !pos hi out;
      if !pos >= hi then begin
        incr si;
        if !si < ns then pos := fst sl.(!si)
      end
    done;
    if out.B.len = 0 then None else Some out
  in
  {
    c_open;
    c_next;
    c_close =
      (fun () ->
        rows := [||];
        slices := [||]);
  }

(* Direct evaluator for a leaf plan (bare table or index scan),
   yielding the scan's surviving rows as one array. Nested-loop inner
   sides re-open their cursor once per uncached outer row; when the
   inner side is a leaf, the block machinery (batch fills, the pending
   vector of [drain], the final copy to an array) is pure overhead on
   a result that is materialized into the cache anyway. The same scan
   kernel runs into one buffer sized for every slice, so the charges
   are exactly those of the cursor path, plus the [rows_out] the
   cursor wrapper would have charged. Analyze mode keeps the generic
   path so the leaf node still records its own per-node calls and
   rows. *)
let leaf_rows (ctx : ctx) (scopes : layout list) (p : Plan.t) :
    (row list -> row array) option =
  match (ctx.analyze, p) with
  | None, (Plan.Table_scan _ | Plan.Index_scan _) ->
      let ftest, slices_of = scan_leaf ctx scopes p in
      let meter = ctx.meter in
      Some
        (fun orows ->
          let rows, slices = slices_of orows in
          let n = Array.fold_left (fun n (lo, hi) -> n + hi - lo) 0 slices in
          let out = { B.data = Array.make n [||]; len = 0 } in
          Array.iter
            (fun (lo, hi) -> ignore (scan_into meter ftest orows rows lo hi out))
            slices;
          meter.rows_out <- meter.rows_out + out.B.len;
          if out.B.len = n then out.B.data else Array.sub out.B.data 0 out.B.len)
  | _ -> None

(* --------------------------------------------------------------- *)
(* Aggregation                                                       *)
(* --------------------------------------------------------------- *)

(* The one group-by fold, behind [Aggregate], [Partial_agg] and
   [Final_agg]. Input rows are grouped by [key] in first-seen order,
   and each group owns [naccs] accumulators that [step] folds a row
   into; [emit] renders a group from its key, its row count and its
   accumulators. A keyless fold ([key = None]) is one implicit group
   that exists even on empty input — the scalar-aggregate convention,
   and what gives every exchange task exactly one partial state row —
   and skips the hash table: aggregates on nested-loop inner sides and
   in TIS subquery plans run once per outer row over tiny inputs, so
   the per-execution constant matters. For the same reason the group
   table lives at prepare time and is cleared per execution. Charges
   [agg_rows] per input row and, when [sorted], the sort of the
   input. *)
let group_fold (ctx : ctx) cchild ~key ~naccs ~sorted ~step ~emit =
  let meter = ctx.meter in
  let fresh kv = (kv, ref 0, List.init naccs (fun _ -> acc_create ())) in
  let table = Hkey.create 16 in
  breaker (fun orows ->
      let groups = ref [] in
      let group =
        match key with
        | None ->
            let g = fresh [] in
            groups := [ g ];
            fun _ -> g
        | Some fkey ->
            Hkey.reset table;
            fun r ->
              let kv = fkey r orows in
              match Hkey.find_opt table kv with
              | Some g -> g
              | None ->
                  let g = fresh kv in
                  Hkey.add table kv g;
                  groups := g :: !groups;
                  g
      in
      let nin = ref 0 in
      iter_rows cchild orows (fun r ->
          incr nin;
          meter.agg_rows <- meter.agg_rows + 1;
          let _, n, accs = group r in
          incr n;
          step orows r accs);
      if sorted then charge_sort ctx !nin;
      let result = Vec.create ~cap:(max 1 (Hkey.length table)) () in
      List.iter
        (fun (kv, n, accs) -> Vec.push result (emit kv !n accs))
        (List.rev !groups);
      result)

(* Fold one aggregate's state column(s), at position [p] of a
   [Partial_agg] row, into [acc]: counts add up into [a_count], and
   sums, minima and maxima merge by [acc_add]'s own update rules. The
   combined accumulator then finishes through [acc_result] with
   [rows_in_group = a_count]. *)
let combine_state acc (a : A.agg) (r : row) p =
  let count_of = function Value.Int n -> n | _ -> 0 in
  match a with
  | A.Count_star | A.Count -> acc.a_count <- acc.a_count + count_of r.(p)
  | A.Sum | A.Min | A.Max -> acc_add false acc r.(p)
  | A.Avg ->
      let n = acc.a_count in
      acc_add false acc r.(p);
      acc.a_count <- n + count_of r.(p + 1)

(* --------------------------------------------------------------- *)
(* The interpreter                                                   *)
(* --------------------------------------------------------------- *)

(** Compile [p] under correlation scopes [scopes] into a cursor. Every
    cursor is wrapped to charge emitted block lengths to [rows_out] —
    the batch-layer replacement for the per-operator
    [List.length]-walking `out` of the list engine — and, in analyze
    mode, to accumulate per-node calls / rows / meter deltas. The node
    is first offered to the vectorized engine; a pipeline it accepts
    comes back as a single chain cursor whose root is wrapped here like
    any row cursor (the chain charges its interior nodes itself). *)
let rec prepare (ctx : ctx) (scopes : layout list) (p : Plan.t) : cursor =
  let raw =
    match Vector.try_root ctx scopes p with
    | Some c -> c
    | None -> prepare_node ctx scopes p
  in
  match ctx.analyze with
  | None ->
      let m = ctx.meter in
      {
        raw with
        c_next =
          (fun () ->
            match raw.c_next () with
            | Some b as r ->
                m.rows_out <- m.rows_out + b.B.len;
                r
            | None -> None);
      }
  | Some tbl ->
      let st = node_stat_of tbl p in
      let m = ctx.meter in
      let measure f =
        let before = Meter.copy m in
        let r = f () in
        Meter.add st.ns_meter (Meter.diff m before);
        r
      in
      {
        c_open =
          (fun orows ->
            measure (fun () ->
                st.ns_calls <- st.ns_calls + 1;
                raw.c_open orows));
        c_next =
          (fun () ->
            measure (fun () ->
                match raw.c_next () with
                | Some b as r ->
                    m.rows_out <- m.rows_out + b.B.len;
                    st.ns_rows <- st.ns_rows + b.B.len;
                    r
                | None -> None));
        c_close = (fun () -> measure raw.c_close);
      }

and prepare_node (ctx : ctx) (scopes : layout list) (p : Plan.t) : cursor =
  let cat = ctx.db.Db.cat in
  let meter = ctx.meter in
  let binds = ctx.binds in
  let size = ctx.size in
  let self_layout = Plan.layout p cat in
  match p with
  | Plan.Table_scan _ | Plan.Part_scan _ | Plan.Index_scan _ ->
      (* reaching this branch means the vectorized engine declined the
         pipeline above this scan (or mode Row; index scans always run
         the row path): one row choice *)
      ctx.estats.es_row <- ctx.estats.es_row + 1;
      scan_cursor ctx (scan_leaf ctx scopes p)
  | Plan.Exchange { child; dop } -> prepare_exchange ctx scopes child dop
  | Plan.Filter { child; preds } ->
      let cchild = prepare ctx scopes child in
      let ftest = compile_filter ~meter ~binds self_layout scopes preds in
      streaming ~size cchild (fun orows r out ->
          if ftest r orows then Vec.push out r)
  | Plan.Project { child; alias = _; items } ->
      let child_layout = Plan.layout child cat in
      let cchild = prepare ctx scopes child in
      let fast = List.map (fun (e, _) -> simple_arg ~binds child_layout e) items in
      if List.for_all Option.is_some fast then
        (* simple projection: copy by position, no scope stack *)
        match Array.of_list (List.map Option.get fast) with
        | [| f |] ->
            streaming ~size cchild (fun _orows r out -> Vec.push out [| f r |])
        | fa ->
            let n = Array.length fa in
            streaming ~size cchild (fun _orows r out ->
                let o = Array.make n Value.Null in
                for k = 0 to n - 1 do
                  Array.unsafe_set o k ((Array.unsafe_get fa k) r)
                done;
                Vec.push out o)
      else
        let fitems =
          List.map
            (fun (e, _) ->
              Eval.compile_expr ~meter ~binds (child_layout :: scopes) e)
            items
        in
        streaming ~size cchild (fun orows r out ->
            Vec.push out
              (Array.of_list (List.map (fun f -> f (r :: orows)) fitems)))
  | Plan.Join { meth; role; left; right; cond } ->
      prepare_join ctx scopes ~meth ~role ~left ~right ~cond
  | Plan.Subq_filter { child; preds } ->
      prepare_subq_filter ctx scopes child preds
  | Plan.Aggregate { child; strategy; alias = _; keys; aggs } ->
      prepare_aggregate ctx scopes child keys
        (List.map (fun (_, _, eo, dist) -> (eo, dist)) aggs)
        ~sorted:(strategy = `Sort)
        ~finish:(fun n accs ->
          List.map2
            (fun (_, a, _, _) acc -> acc_result a acc ~rows_in_group:n)
            aggs accs)
  | Plan.Partial_agg { child; alias = _; keys; aggs } ->
      (* per-partition aggregation: the [Aggregate] fold (hash
         strategy, no DISTINCT), emitting accumulator-{e state} rows
         instead of final values *)
      prepare_aggregate ctx scopes child keys
        (List.map (fun (_, _, eo) -> (eo, false)) aggs)
        ~sorted:false
        ~finish:(fun n accs ->
          List.concat
            (List.map2 (fun (_, a, _) acc -> partial_state n a acc) aggs accs))
  | Plan.Final_agg { child; alias = _; keys; aggs } ->
      (* combine [Partial_agg] state rows, grouped by the first
         [nkeys] positions (the keys come through the partials
         verbatim); partials arrive in ascending partition order, so
         first-seen group order is the same at every dop *)
      let nkeys = List.length keys in
      let readers =
        let pos = ref nkeys in
        List.map
          (fun (_, a) ->
            let p = !pos in
            pos := !pos + (match a with A.Avg -> 2 | _ -> 1);
            (a, p))
          aggs
      in
      group_fold ctx (prepare ctx scopes child)
        ~key:
          (if nkeys = 0 then None
           else Some (fun r _ -> List.init nkeys (fun i -> r.(i))))
        ~naccs:(List.length aggs) ~sorted:false
        ~step:(fun _ r accs ->
          List.iter2 (fun (a, p) acc -> combine_state acc a r p) readers accs)
        ~emit:(fun kv _ accs ->
          Array.of_list
            (kv
            @ List.map2
                (fun (a, _) acc -> acc_result a acc ~rows_in_group:acc.a_count)
                readers accs))
  | Plan.Window { child; alias = _; wins } -> prepare_window ctx scopes child wins
  | Plan.Distinct child ->
      let cchild = prepare ctx scopes child in
      let seen : unit Hkey.t = Hkey.create 64 in
      streaming ~size
        ~on_open:(fun _ -> Hkey.reset seen)
        cchild
        (fun _orows r out ->
          meter.hash_build <- meter.hash_build + 1;
          let k = Array.to_list r in
          if not (Hkey.mem seen k) then begin
            Hkey.add seen k ();
            Vec.push out r
          end)
  | Plan.Sort { child; keys } ->
      let child_layout = Plan.layout child cat in
      let cchild = prepare ctx scopes child in
      let fkey =
        compile_keys_arr ~meter ~binds child_layout scopes (List.map fst keys)
      in
      let dirs = Array.of_list (List.map snd keys) in
      (* decorate-sort-undecorate: keys are computed once per row, not
         once per comparison *)
      breaker (fun orows ->
          let v = drain cchild orows in
          let n = Vec.length v in
          charge_sort ctx n;
          let deco =
            Array.init n (fun i ->
                let r = Vec.get v i in
                (fkey r orows, r))
          in
          Array.stable_sort
            (fun (k1, _) (k2, _) -> cmp_keys_dirs dirs k1 k2)
            deco;
          let result = Vec.create ~cap:(max 1 n) () in
          Array.iter (fun (_, r) -> Vec.push result r) deco;
          result)
  | Plan.Limit { child; n } ->
      let cchild = prepare ctx scopes child in
      (* the child is drained fully — as the list engine materialized it
         — so meter totals cannot depend on the batch size *)
      breaker (fun orows ->
          let v = drain cchild orows in
          Vec.truncate v n;
          v)
  | Plan.Limit_filter { child; preds; n } ->
      let cchild = prepare ctx scopes child in
      let ftest = compile_filter ~meter ~binds self_layout scopes preds in
      breaker (fun orows ->
          let v = drain cchild orows in
          let result = Vec.create () in
          let quota = ref n in
          (* stop evaluating predicates once the quota fills; the child
             is still drained, as above *)
          Vec.iter
            (fun r ->
              if !quota > 0 && ftest r orows then begin
                Vec.push result r;
                decr quota
              end)
            v;
          result)
  | Plan.Union_all children ->
      let cs = Array.of_list (List.map (prepare ctx scopes) children) in
      let idx = ref 0 in
      let orows_r = ref [] in
      let c_open orows =
        orows_r := orows;
        idx := 0;
        if Array.length cs > 0 then cs.(0).c_open orows
      in
      let rec c_next () =
        if !idx >= Array.length cs then None
        else
          match cs.(!idx).c_next () with
          | Some b -> Some b
          | None ->
              cs.(!idx).c_close ();
              incr idx;
              if !idx < Array.length cs then begin
                cs.(!idx).c_open !orows_r;
                c_next ()
              end
              else None
      in
      { c_open; c_next; c_close = (fun () -> ()) }
  | Plan.Setop_exec { op; left; right } ->
      let cleft = prepare ctx scopes left in
      let cright = prepare ctx scopes right in
      let rset : unit Hkey.t = Hkey.create 64 in
      let seen : unit Hkey.t = Hkey.create 64 in
      let build orows =
        Hkey.reset rset;
        Hkey.reset seen;
        iter_rows cright orows (fun r ->
            meter.hash_build <- meter.hash_build + 1;
            Hkey.replace rset (Array.to_list r) ())
      in
      streaming ~size ~on_open:build cleft (fun _orows r out ->
          meter.hash_probe <- meter.hash_probe + 1;
          let k = Array.to_list r in
          let in_right = Hkey.mem rset k in
          let keep =
            match op with `Intersect -> in_right | `Minus -> not in_right
          in
          if keep && not (Hkey.mem seen k) then begin
            Hkey.add seen k ();
            Vec.push out r
          end)

(* --------------------------------------------------------------- *)
(* Joins                                                             *)
(* --------------------------------------------------------------- *)

and prepare_join ctx scopes ~meth ~role ~left ~right ~cond =
  let cat = ctx.db.Db.cat in
  let meter = ctx.meter in
  let binds = ctx.binds in
  let size = ctx.size in
  let left_layout = Plan.layout left cat in
  let right_layout = Plan.layout right cat in
  let right_width = Array.length right_layout in
  let cleft = prepare ctx scopes left in
  let jtest preds =
    compile_jtest ~meter ~binds ~left:left_layout ~right:right_layout scopes
      preds
  in
  (* 3VL per-conjunct evaluation of the full condition, for the
     null-aware antijoin's possible-match check *)
  let fconds3 =
    match role with
    | Plan.Anti_na ->
        let combined = Array.append left_layout right_layout in
        List.map (Eval.compile_pred ~meter ~binds (combined :: scopes)) cond
    | _ -> []
  in
  (* hash and merge joins: equi-conjuncts become the keys, the rest the
     residual candidate test *)
  let equi what =
    let keys, residual = equi_split left_layout right_layout cond in
    if keys = [] then
      invalid_arg
        (Printf.sprintf "Executor: %s join requires at least one equi-conjunct"
           what);
    (keys, jtest residual)
  in
  match meth with
  | Plan.Nested_loop ->
      (* The right side may be correlated to the left row (index probes,
         pushed-down join predicates, TIS-style views). Its result is a
         deterministic function of the correlation values it reads from
         the left row, so it is executed once per distinct combination
         and cached — this models the semijoin/antijoin and subquery
         caching the paper describes (Section 2.1.1). *)
      let run_right =
        match leaf_rows ctx (left_layout :: scopes) right with
        | Some f -> f
        | None ->
            let cright = prepare ctx (left_layout :: scopes) right in
            fun orows -> Vec.to_array (drain cright orows)
      in
      let right_corr = Plan.corr_positions right left_layout in
      let jcond = jtest cond in
      let right_cache : row array Hkey.t = Hkey.create 64 in
      let cached_right l orows =
        let key = Keys.corr meter right_corr l orows in
        match Hkey.find_opt right_cache key with
        | Some rows ->
            meter.subq_cache_hits <- meter.subq_cache_hits + 1;
            rows
        | None ->
            let rows = run_right (l :: orows) in
            Hkey.add right_cache key rows;
            rows
      in
      expanding ~size cleft (fun orows l pending ->
          let rrows = cached_right l orows in
          let nr = Array.length rrows in
          match role with
          | Plan.Semi | Plan.Anti ->
              (* stop at the first match *)
              let i = ref 0 in
              while
                !i < nr
                && not
                     (join_cand meter jcond ~keep:false pending l rrows.(!i)
                        orows)
              do
                incr i
              done;
              if (!i < nr) = (role = Plan.Semi) then Vec.push pending l
          | Plan.Anti_na ->
              (* NOT IN semantics: qualify only if every right row
                 definitely mismatches *)
              if not (Array.exists (possible_match meter fconds3 l orows) rrows)
              then Vec.push pending l
          | Plan.Inner | Plan.Left_outer ->
              join_row meter jcond role ~right_width pending l orows rrows 0 nr)
  | Plan.Hash ->
      let cright = prepare ctx scopes right in
      let keys, jres = equi "hash" in
      (* Bucketed build table. Single-column keys — the overwhelmingly
         common fk equi-join — go through the [Value.t]-keyed table;
         wider keys through the generic list-keyed one. Buckets are
         mutable cells so the build does one lookup per row; candidate
         lists keep the reverse-build order of the list engine. [p_add]
         returns whether the build key contains NULL (such rows are not
         bucketed); [p_find] returns the candidates and whether the
         probe key contains NULL. *)
      let p_reset, p_add, p_find =
        match keys with
        | [ (le, re) ] ->
            let flk1 = compile_scalar ~meter ~binds left_layout scopes le in
            let frk1 = compile_scalar ~meter ~binds right_layout scopes re in
            let tbl : row list ref Hval.t = Hval.create 256 in
            ( (fun () -> Hval.reset tbl),
              (fun r orows ->
                let k = frk1 r orows in
                if Value.is_null k then true
                else begin
                  (match Hval.find_opt tbl k with
                  | Some cell -> cell := r :: !cell
                  | None -> Hval.add tbl k (ref [ r ]));
                  false
                end),
              fun l orows ->
                let k = flk1 l orows in
                if Value.is_null k then ([], true)
                else
                  ( (match Hval.find_opt tbl k with
                    | Some cell -> !cell
                    | None -> []),
                    false ) )
        | _ ->
            let flk =
              compile_keys_list ~meter ~binds left_layout scopes
                (List.map fst keys)
            in
            let frk =
              compile_keys_list ~meter ~binds right_layout scopes
                (List.map snd keys)
            in
            let tbl : row list ref Hkey.t = Hkey.create 256 in
            ( (fun () -> Hkey.reset tbl),
              (fun r orows ->
                let kv = frk r orows in
                if List.exists Value.is_null kv then true
                else begin
                  (match Hkey.find_opt tbl kv with
                  | Some cell -> cell := r :: !cell
                  | None -> Hkey.add tbl kv (ref [ r ]));
                  false
                end),
              fun l orows ->
                let kv = flk l orows in
                if List.exists Value.is_null kv then ([], true)
                else
                  ( (match Hkey.find_opt tbl kv with
                    | Some cell -> !cell
                    | None -> []),
                    false ) )
      in
      let right_with_null = ref [] in
      let right_all = ref [] in
      let right_count = ref 0 in
      (* only the null-aware antijoin re-reads build rows outside the
         buckets; other roles skip tracking them *)
      let track_all = match role with Plan.Anti_na -> true | _ -> false in
      (* build side: streamed straight into the buckets *)
      let build orows =
        p_reset ();
        right_with_null := [];
        right_all := [];
        right_count := 0;
        iter_rows cright orows (fun r ->
            incr right_count;
            meter.hash_build <- meter.hash_build + 1;
            if track_all then right_all := r :: !right_all;
            let null_key = p_add r orows in
            if null_key && track_all then
              right_with_null := r :: !right_with_null)
      in
      expanding ~size ~on_open:build cleft (fun orows l pending ->
          meter.hash_probe <- meter.hash_probe + 1;
          let cands, has_null = p_find l orows in
          let cands = Array.of_list cands in
          let nc = Array.length cands in
          match role with
          | Plan.Anti_na ->
              (* NOT IN semantics: the left row is dropped unless every
                 right row definitely mismatches. Candidate
                 possible-matches: rows in the probe bucket (residual
                 may have been UNKNOWN), null-key rows, and — when the
                 probe key itself has NULLs — every right row. *)
              if
                !right_count = 0
                || not
                     (join_cands meter jres ~keep:false pending l orows cands 0
                        nc
                     || List.exists
                          (possible_match meter fconds3 l orows)
                          (if has_null then !right_all
                           else Array.to_list cands @ !right_with_null))
              then Vec.push pending l
          | _ -> join_row meter jres role ~right_width pending l orows cands 0 nc)
  | Plan.Merge ->
      let cright = prepare ctx scopes right in
      let keys, jres = equi "merge" in
      (match role with
      | Plan.Inner | Plan.Semi | Plan.Anti -> ()
      | _ -> invalid_arg "Executor: merge join supports inner/semi/anti only");
      let flk =
        compile_keys_arr ~meter ~binds left_layout scopes (List.map fst keys)
      in
      let frk =
        compile_keys_arr ~meter ~binds right_layout scopes (List.map snd keys)
      in
      breaker (fun orows ->
          (* both inputs are pipeline breakers: materialize, decorate
             with key tuples computed once per row, sort, merge *)
          let deco c fk =
            let v = drain c orows in
            Array.init (Vec.length v) (fun i ->
                let r = Vec.get v i in
                (fk r orows, r))
          in
          let la = deco cleft flk in
          let ra = deco cright frk in
          charge_sort ctx (Array.length la);
          charge_sort ctx (Array.length ra);
          let cmpk (k1, _) (k2, _) = cmp_keys k1 k2 in
          Array.stable_sort cmpk la;
          Array.stable_sort cmpk ra;
          let rrows = Array.map snd ra in
          let result = Vec.create () in
          let nl = Array.length la and nr = Array.length ra in
          let i = ref 0 and j = ref 0 in
          (* two-pointer merge over the sorted runs; a left row whose
             key is NULL or below every remaining right key has no
             candidates *)
          while !i < nl do
            let lk, l = la.(!i) in
            let c =
              if Array.exists Value.is_null lk || !j >= nr then -1
              else cmp_keys lk (fst ra.(!j))
            in
            if c < 0 then begin
              if role = Plan.Anti then Vec.push result l;
              incr i
            end
            else if c > 0 then incr j
            else begin
              (* the right group with this key is the candidate set of
                 the run of left rows sharing it *)
              let g0 = !j and rk = fst ra.(!j) in
              while !j < nr && cmp_keys (fst ra.(!j)) rk = 0 do
                incr j
              done;
              while !i < nl && cmp_keys (fst la.(!i)) rk = 0 do
                join_row meter jres role ~right_width result (snd la.(!i))
                  orows rrows g0 !j;
                incr i
              done
            end
          done;
          result)

and prepare_subq_filter ctx scopes child preds =
  let cat = ctx.db.Db.cat in
  let meter = ctx.meter in
  let binds = ctx.binds in
  let child_layout = Plan.layout child cat in
  let cchild = prepare ctx scopes child in
  let inner_scopes = child_layout :: scopes in
  (* Each subquery plan is a deterministic function of its correlation
     columns (the child-row positions it reads) and the outer scopes;
     its result rows are computed once per distinct combination and
     cached — the subquery-filter caching of Section 2.1.1. The
     predicate itself (EXISTS / IN / comparison) is then evaluated per
     candidate row against the cached result. Caches live at prepare
     time, so they persist across re-executions of this node. *)
  let cached_rows plan =
    let cplan = prepare ctx inner_scopes plan in
    let positions = Plan.corr_positions plan child_layout in
    let cache : row array Hkey.t = Hkey.create 64 in
    fun (r : row) (orows : row list) ->
      let key = Keys.corr meter positions r orows in
      match Hkey.find_opt cache key with
      | Some rows ->
          meter.subq_cache_hits <- meter.subq_cache_hits + 1;
          rows
      | None ->
          meter.subq_execs <- meter.subq_execs + 1;
          let rows = Vec.to_array (drain cplan (r :: orows)) in
          Hkey.add cache key rows;
          rows
  in
  let compiled =
    List.map
      (fun sp ->
        match sp with
        | Plan.SP_exists { negated; plan } ->
            let rows_of = cached_rows plan in
            fun (r : row) orows ->
              let non_empty = Array.length (rows_of r orows) > 0 in
              Some (if negated then not non_empty else non_empty)
        | Plan.SP_in { negated; lhs; plan } ->
            let flhs =
              List.map (Eval.compile_expr ~meter ~binds inner_scopes) lhs
            in
            let rows_of = cached_rows plan in
            let width = List.length lhs in
            (* per inner-result index: hash set of null-free keys plus
               the rows containing NULLs (checked with 3VL) *)
            let index_cache : (unit Vkey.t * row list * bool) Hkey.t =
              Hkey.create 16
            in
            let index_of key inner =
              match Hkey.find_opt index_cache key with
              | Some ix -> ix
              | None ->
                  let set = ref Vkey.empty in
                  let nulls = ref [] in
                  Array.iter
                    (fun (ir : row) ->
                      meter.hash_build <- meter.hash_build + 1;
                      let kv = List.init width (fun i -> ir.(i)) in
                      if List.exists Value.is_null kv then nulls := ir :: !nulls
                      else set := Vkey.add kv () !set)
                    inner;
                  let ix = (!set, !nulls, Array.length inner > 0) in
                  Hkey.add index_cache key ix;
                  ix
            in
            let positions = Plan.corr_positions plan child_layout in
            fun r orows ->
              let lvals = List.map (fun f -> f (r :: orows)) flhs in
              let inner = rows_of r orows in
              let key = Keys.corr meter positions r orows in
              let set, null_rows, non_empty = index_of key inner in
              meter.hash_probe <- meter.hash_probe + 1;
              let lhs_has_null = List.exists Value.is_null lvals in
              let truth =
                if not non_empty then Some false
                else if (not lhs_has_null) && Vkey.mem lvals set then Some true
                else
                  (* possible UNKNOWN matches: rows with NULL components,
                     or (when the probe itself has NULLs) any row whose
                     other components do not definitely mismatch *)
                  let possible_unknown (ir : row) =
                    let rec go i = function
                      | [] -> true
                      | v :: rest -> (
                          match Value.compare_sql v ir.(i) with
                          | Some c when c <> 0 -> false
                          | _ -> go (i + 1) rest)
                    in
                    meter.rows_joined <- meter.rows_joined + 1;
                    go 0 lvals
                  in
                  if lhs_has_null then
                    if width = 1 then None
                    else if
                      List.exists possible_unknown null_rows
                      || Vkey.exists
                           (fun kv () ->
                             meter.rows_joined <- meter.rows_joined + 1;
                             let rec go ls ks =
                               match (ls, ks) with
                               | [], [] -> true
                               | l :: ls', k :: ks' -> (
                                   match Value.compare_sql l k with
                                   | Some c when c <> 0 -> false
                                   | _ -> go ls' ks')
                               | _ -> false
                             in
                             go lvals kv)
                           set
                    then None
                    else Some false
                  else if List.exists possible_unknown null_rows then None
                  else Some false
              in
              (match truth with
              | Some b -> Some (if negated then not b else b)
              | None -> None)
        | Plan.SP_cmp { op; lhs; quant; plan } ->
            let flhs = Eval.compile_expr ~meter ~binds inner_scopes lhs in
            let rows_of = cached_rows plan in
            let test = Eval.cmp_test op in
            let positions = Plan.corr_positions plan child_layout in
            (* per inner-result statistics for quantified comparisons:
               min / max / null presence / distinct-value set of the
               first output column *)
            let stats_cache :
                (Value.t * Value.t * bool * unit Vkey.t) Hkey.t =
              Hkey.create 16
            in
            let stats_of key inner =
              match Hkey.find_opt stats_cache key with
              | Some st -> st
              | None ->
                  let mn = ref Value.Null
                  and mx = ref Value.Null
                  and has_null = ref false
                  and set = ref Vkey.empty in
                  Array.iter
                    (fun (ir : row) ->
                      meter.hash_build <- meter.hash_build + 1;
                      let v = ir.(0) in
                      if Value.is_null v then has_null := true
                      else (
                        set := Vkey.add [ v ] () !set;
                        if Value.is_null !mn || Value.compare_total v !mn < 0
                        then mn := v;
                        if Value.is_null !mx || Value.compare_total v !mx > 0
                        then mx := v))
                    inner;
                  let st = (!mn, !mx, !has_null, !set) in
                  Hkey.add stats_cache key st;
                  st
            in
            fun r orows ->
              let lval = flhs (r :: orows) in
              let inner = rows_of r orows in
              match quant with
              | None -> (
                  match Array.length inner with
                  | 0 -> None (* scalar subquery over empty input: NULL *)
                  | 1 ->
                      Option.map test (Value.compare_sql lval inner.(0).(0))
                  | _ ->
                      raise
                        (Runtime_error
                           "scalar subquery returned more than one row"))
              | Some q ->
                  let key = Keys.corr meter positions r orows in
                  let mn, mx, has_null, set = stats_of key inner in
                  meter.hash_probe <- meter.hash_probe + 1;
                  let n_distinct = Vkey.cardinal set in
                  if Array.length inner = 0 then
                    Some (match q with A.Q_any -> false | A.Q_all -> true)
                  else if Value.is_null lval then None
                  else
                    let some_true, some_false =
                      (* does lval op s hold for some / fail for some
                         non-null s? derived from min/max/set *)
                      match op with
                      | A.Eq ->
                          let m = Vkey.mem [ lval ] set in
                          (m, n_distinct > 1 || not m)
                      | A.Ne ->
                          let m = Vkey.mem [ lval ] set in
                          (n_distinct > 1 || not m, m)
                      | A.Lt ->
                          ( (n_distinct > 0 && Value.compare_total lval mx < 0),
                            n_distinct > 0 && Value.compare_total lval mn >= 0
                          )
                      | A.Le ->
                          ( (n_distinct > 0 && Value.compare_total lval mx <= 0),
                            n_distinct > 0 && Value.compare_total lval mn > 0 )
                      | A.Gt ->
                          ( (n_distinct > 0 && Value.compare_total lval mn > 0),
                            n_distinct > 0 && Value.compare_total lval mx <= 0
                          )
                      | A.Ge ->
                          ( (n_distinct > 0 && Value.compare_total lval mn >= 0),
                            n_distinct > 0 && Value.compare_total lval mx < 0 )
                    in
                    (match q with
                    | A.Q_any ->
                        if some_true then Some true
                        else if has_null then None
                        else Some false
                    | A.Q_all ->
                        if some_false then Some false
                        else if has_null then None
                        else Some true))
      preds
  in
  streaming ~size:ctx.size cchild (fun orows r out ->
      if List.for_all (fun f -> f r orows = Some true) compiled then
        Vec.push out r)

(* [Aggregate] and [Partial_agg]: group by key expressions over the
   child row and fold each aggregate's argument, [(expr, distinct)],
   with [acc_add]; [finish] renders a group's values after its key
   columns. *)
and prepare_aggregate ctx scopes child keys args ~sorted ~finish =
  let meter = ctx.meter in
  let binds = ctx.binds in
  let child_layout = Plan.layout child ctx.db.Db.cat in
  let cchild = prepare ctx scopes child in
  let key =
    match keys with
    | [] -> None
    | _ ->
        Some
          (compile_keys_list ~meter ~binds child_layout scopes
             (List.map fst keys))
  in
  let fargs =
    List.map
      (fun (eo, dist) ->
        (Option.map (compile_scalar ~meter ~binds child_layout scopes) eo, dist))
      args
  in
  group_fold ctx cchild ~key ~naccs:(List.length args) ~sorted
    ~step:(fun orows r accs ->
      List.iter2
        (fun (feo, dist) acc ->
          match feo with
          | None -> ()
          | Some f -> acc_add dist acc (f r orows))
        fargs accs)
    ~emit:(fun kv n accs -> Array.of_list (kv @ finish n accs))

(* Partition-parallel execution of [child]. The task list is the
   ascending union of the pruning survivors of every [Part_scan] in the
   subtree — a pure function of the prune specs and the bind vector,
   identical at every dop. Each execution prepares one cursor per task
   on the calling domain, under a fresh context: its own meter, engine
   stats and analyze table, and [restrict = Some t] so every
   partitioned scan reads only partition [t]. Preparing is where the
   engine choice reads [card_of], so every hint read stays on the
   caller; helper domains only open and drain prepared cursors, and the
   column images a vectorized task reads are immutable and shared. The
   coordinator merges in ascending task order: rows concatenate, task
   meters and engine stats add into the parent's (commutative integer
   sums), task node stats fold into the parent's analyze table keyed by
   the shared plan-node identity. With [dop <= 1]
   {!Exchange.run_tasks} runs the same per-task closures on the calling
   domain — same code path, so rows and merged meters are bit-identical
   to any parallel dop. *)
and prepare_exchange ctx scopes child dop =
  match Plan.part_scans child with
  | [] ->
      (* no partitioned scan below: nothing to fan out over *)
      prepare ctx scopes child
  | scans ->
      let specs =
        List.map
          (fun (table, pr) ->
            let rel = Db.relation ctx.db table in
            match Relation.part rel with
            | Some pt -> (pt.Relation.p_spec, pr)
            | None ->
                invalid_arg
                  (Printf.sprintf
                     "Executor: EXCHANGE over unpartitioned PART SCAN of %s"
                     table))
          scans
      in
      let binds = ctx.binds in
      let prepare_task t =
        let m = Meter.create () in
        let tbl =
          match ctx.analyze with
          | None -> None
          | Some _ -> Some (Ptbl.create 16)
        in
        let es = engine_stats_create () in
        let tctx =
          {
            ctx with
            meter = m;
            analyze = tbl;
            estats = es;
            restrict = Some t;
          }
        in
        (prepare tctx scopes child, m, tbl, es)
      in
      breaker (fun orows ->
          let module Iset = Set.Make (Int) in
          (* pruning evaluated once per execution, per scan: the
             survivors give both the task set and the partition counts *)
          let survivors =
            List.map
              (fun (ps, pr) -> (ps, Prune.survivors_runtime ~binds ps pr))
              specs
          in
          let tasks =
            Iset.elements
              (List.fold_left
                 (fun acc (_, surv) ->
                   List.fold_left (fun acc i -> Iset.add i acc) acc surv)
                 Iset.empty survivors)
          in
          List.iter
            (fun (ps, surv) ->
              let s = List.length surv in
              count_parts ctx.estats ~scanned:s
                ~pruned:(ps.Catalog.ps_n - s))
            survivors;
          if tasks <> [] then
            ctx.estats.es_dop <-
              max ctx.estats.es_dop (max 1 (min dop (List.length tasks)));
          let prepared = Array.of_list (List.map prepare_task tasks) in
          let results =
            Exchange.run_tasks ~dop
              ~tasks:(List.init (Array.length prepared) Fun.id)
              ~f:(fun k ->
                let c, _, _, _ = prepared.(k) in
                drain c orows)
          in
          (* one merged vector, sized once, each task's rows blitted in
             task order *)
          let out =
            Vec.create
              ~cap:(List.fold_left (fun n (_, v) -> n + Vec.length v) 0 results)
              ()
          in
          List.iter
            (fun (k, rows) ->
              let _, m, tbl, es = prepared.(k) in
              Meter.add ctx.meter m;
              add_engine_stats ctx.estats es;
              (match (ctx.analyze, tbl) with
              | Some main, Some sub ->
                  Ptbl.iter
                    (fun node st ->
                      let dst = node_stat_of main node in
                      dst.ns_calls <- dst.ns_calls + st.ns_calls;
                      dst.ns_rows <- dst.ns_rows + st.ns_rows;
                      Meter.add dst.ns_meter st.ns_meter;
                      dst.ns_engine <- st.ns_engine;
                      dst.ns_sel_in <- dst.ns_sel_in + st.ns_sel_in)
                    sub
              | _ -> ());
              Vec.append out rows)
            results;
          out)

and prepare_window ctx scopes child wins =
  let cat = ctx.db.Db.cat in
  let meter = ctx.meter in
  let binds = ctx.binds in
  let child_layout = Plan.layout child cat in
  let inner = child_layout :: scopes in
  let cchild = prepare ctx scopes child in
  let fwins =
    List.map
      (fun (_, a, eo, (w : A.win)) ->
        ( a,
          Option.map (Eval.compile_expr ~meter ~binds inner) eo,
          List.map (Eval.compile_expr ~meter ~binds inner) w.w_pby,
          List.map (fun (e, _) -> Eval.compile_expr ~meter ~binds inner e)
            w.w_oby,
          Array.of_list (List.map snd w.w_oby) ))
      wins
  in
  breaker (fun orows ->
      let v = drain cchild orows in
      (* For each window function, compute per-row values; RANGE
         UNBOUNDED PRECEDING .. CURRENT ROW cumulative semantics with
         peer rows (equal ORDER BY keys) sharing the same result. *)
      let n = Vec.length v in
      let results = List.map (fun _ -> Array.make n Value.Null) fwins in
      List.iteri
        (fun wi (a, feo, fpby, foby, dirs) ->
          let store = List.nth results wi in
          (* partition *)
          let parts = ref Vkey.empty in
          for i = 0 to n - 1 do
            let r = Vec.get v i in
            meter.agg_rows <- meter.agg_rows + 1;
            let pk = List.map (fun f -> f (r :: orows)) fpby in
            let cur = try Vkey.find pk !parts with Not_found -> [] in
            parts := Vkey.add pk ((i, r) :: cur) !parts
          done;
          Vkey.iter
            (fun _ members ->
              let members = List.rev members in
              (* decorate-sort-undecorate over the partition: ORDER BY
                 keys are computed once per row *)
              let deco =
                List.map
                  (fun ((_, r) as m) ->
                    ( Array.of_list
                        (List.map (fun f -> f (r :: orows)) foby),
                      m ))
                  members
              in
              charge_sort ctx (List.length deco);
              let sorted =
                List.stable_sort
                  (fun (k1, _) (k2, _) -> cmp_keys_dirs dirs k1 k2)
                  deco
              in
              (* walk peer groups cumulatively *)
              let acc = acc_create () in
              let rows_so_far = ref 0 in
              let rec walk = function
                | [] -> ()
                | ((k1, _) :: _ as rest) ->
                    let peers, others =
                      List.partition (fun (k, _) -> cmp_keys k k1 = 0) rest
                    in
                    List.iter
                      (fun (_, (_, r)) ->
                        incr rows_so_far;
                        match feo with
                        | None -> ()
                        | Some f -> acc_add false acc (f (r :: orows)))
                      peers;
                    let value = acc_result a acc ~rows_in_group:!rows_so_far in
                    List.iter (fun (_, (i, _)) -> store.(i) <- value) peers;
                    walk others
              in
              walk sorted)
            !parts)
        fwins;
      let result = Vec.create ~cap:(max 1 n) () in
      for i = 0 to n - 1 do
        Vec.push result
          (Array.append (Vec.get v i)
             (Array.of_list (List.map (fun store -> store.(i)) results)))
      done;
      result)

(* --------------------------------------------------------------- *)
(* Entry points                                                      *)
(* --------------------------------------------------------------- *)

let default_batch_size = 256

(** [Auto] vectorizes a pipeline when the planner's cardinality
    estimate for its source scan reaches this. Tiny pipelines — the
    re-opened inner sides of nested-loop joins, subquery plans over
    small tables — stay on the row path, whose per-execution constant
    is lower than a chain's segment setup. *)
let default_vector_threshold = 256.

(* The root's rows as a list, consed once from the back: each batch is
   copied out (its container is reused) and the chunks are unrolled
   last to first. *)
let run_root (ctx : ctx) (plan : Plan.t) : row list =
  let c = prepare ctx [] plan in
  c.c_open [];
  let rec chunks acc =
    match c.c_next () with
    | Some b ->
        observe_batch_fill b;
        chunks (if b.B.len = 0 then acc else Array.sub b.B.data 0 b.B.len :: acc)
    | None -> acc
  in
  let cs = chunks [] in
  c.c_close ();
  List.fold_left (fun l ch -> Array.fold_right (fun r l -> r :: l) ch l) [] cs

(** Execute a complete (uncorrelated) plan against [db]. Returns the
    output layout and rows; work is charged to [meter]. [batch_size]
    (default {!default_batch_size}) sets the rows-per-block capacity;
    results and meter totals do not depend on it — nor on the engine
    choice. [engine] picks the execution engine ([Auto] consults
    [card_of], the planner's per-node cardinality hint, against
    [vector_threshold]); [engine_stats] receives per-pipeline choice
    and partition counts (a fresh record when omitted). *)
let execute ?meter ?(binds = [||]) ?(batch_size = default_batch_size)
    ?(engine = Auto) ?(card_of = fun _ -> None)
    ?(vector_threshold = default_vector_threshold)
    ?(engine_stats = engine_stats_create ()) (db : Db.t)
    (plan : Plan.t) : layout * row list * Meter.t =
  let meter = match meter with Some m -> m | None -> Meter.create () in
  let ctx =
    {
      db;
      meter;
      analyze = None;
      binds;
      size = batch_size;
      engine;
      card_of;
      vector_threshold;
      estats = engine_stats;
      restrict = None;
    }
  in
  let rows = run_root ctx plan in
  (Plan.layout plan db.Db.cat, rows, meter)

(** Like {!execute} but with per-operator instrumentation (EXPLAIN
    ANALYZE). The returned lookup maps a plan node (by physical
    identity) to its accumulated {!node_stat}; nodes the execution
    never reached have no entry. *)
let execute_analyzed ?meter ?(binds = [||])
    ?(batch_size = default_batch_size) ?(engine = Auto)
    ?(card_of = fun _ -> None)
    ?(vector_threshold = default_vector_threshold)
    ?(engine_stats = engine_stats_create ()) (db : Db.t)
    (plan : Plan.t) :
    layout * row list * Meter.t * (Plan.t -> node_stat option) =
  let meter = match meter with Some m -> m | None -> Meter.create () in
  let tbl = Ptbl.create 64 in
  let ctx =
    {
      db;
      meter;
      analyze = Some tbl;
      binds;
      size = batch_size;
      engine;
      card_of;
      vector_threshold;
      estats = engine_stats;
      restrict = None;
    }
  in
  let rows = run_root ctx plan in
  (Plan.layout plan db.Db.cat, rows, meter, fun p -> Ptbl.find_opt tbl p)

(** Multiset equality of result sets, used by the equivalence tests:
    transformations must preserve the bag of result rows (row order is
    only significant beneath an ORDER BY, which our comparisons sort
    away). *)
let rows_equal_multiset (r1 : row list) (r2 : row list) : bool =
  let norm rows =
    List.sort
      (fun a b ->
        List.compare Value.compare_total (Array.to_list a) (Array.to_list b))
      rows
  in
  List.length r1 = List.length r2
  && List.for_all2
       (fun a b ->
         List.compare Value.compare_total (Array.to_list a) (Array.to_list b)
         = 0)
       (norm r1) (norm r2)
