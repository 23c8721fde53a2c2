(** Vectorized (columnar) pipeline engine.

    Executes pipeline chains — a table or partition scan, the filters
    above it, and an optional projection or aggregation root — over
    the relation-owned column images of {!Colbatch}: each [c_next]
    processes one segment of the scanned rows through a selection
    vector, applying every predicate conjunct as a tight monomorphic
    loop over its column vector (or, for predicates the typed loops
    cannot express, over the rows themselves), then materializes the
    surviving selection at the pipeline edge — for identity pipelines
    by handing out the original row pointers, allocation-free.

    {b Grammar v2.} The source is a [Table_scan] or a [Part_scan]; a
    partition scan reads its surviving slices, honours an exchange
    task's [restrict], and charges its pages through the one slice
    function the row engine's scan leaf uses ({!Cursor.scan_slices}).
    The root is a projection, or a non-DISTINCT [Aggregate] or
    [Partial_agg] that is keyless or has one group key. A keyless
    aggregation is one group even on empty input, so a keyless
    [Partial_agg] task emits one state row. Grouped aggregation assigns
    group ids in first-seen order under {!Cursor.Hval}'s equality,
    with typed hash tables for monomorphic int (and date) and string
    key columns — NULL is one group of its own — and a [Value.t] table
    otherwise; typed int and float aggregate arguments accumulate
    unboxed per group. Everything outside the grammar (joins,
    multi-key grouping, sorts, set operators, index scans) stays on the
    row path of {!Executor}; the conversion happens only at pipeline
    edges, where breakers materialize rows anyway. Exchange tasks run
    these chains on helper domains: a chain's mutable state is its own,
    and the images it reads are immutable and shared.

    {b Meter parity is exact.} Charges are accounted field by field as
    the row engine does: [pages_read] per open, [rows_scanned] per
    segment row, [rows_out] per operator per surviving row, [agg_rows]
    per aggregated row, sort charges for sort-strategy aggregation —
    and conjuncts are applied in original order, one selection
    refinement per conjunct, so generic (possibly expensive) predicates
    are evaluated on exactly the rows that survive the preceding
    conjuncts, preserving short-circuit [expensive_calls] counts. The
    test suite runs forced-engine differential comparisons (vector vs
    row vs {!Baseline}) on randomized plans and on exchange plans to
    hold this.

    The engine choice is hybrid and cost-driven: {!try_root} consults
    the planner's estimated pipeline cardinality (threaded through
    {!Cursor.ctx.card_of}) and vectorizes only pipelines whose source
    scan is estimated above {!Cursor.ctx.vector_threshold}; tiny
    pipelines — nested-loop inner sides, subquery plans over small
    tables — keep the row path's lower per-execution constant. *)

open Sqlir
module A = Ast
module Db = Storage.Db
module Relation = Storage.Relation
module B = Batch
module C = Colbatch
open Cursor

(** Test knob: when set, scans materialize an explicit selection vector
    even while it is still the dense identity, so properties can check
    that dense and sparse selections are indistinguishable in results,
    meters and analyze stats. *)
let force_sparse = ref false

(* ------------------------------------------------------------------ *)
(* Selection blocks                                                     *)
(* ------------------------------------------------------------------ *)

(** One in-flight segment: absolute row ids [lo, hi) of the scanned
    table, narrowed by a selection. While [dense], the selection is the
    identity over the segment and [sel] is untouched; the first
    filtering conjunct switches to the explicit selection vector. *)
type vblock = {
  mutable lo : int;
  mutable hi : int;
  sel : int array;  (** selected absolute row ids, valid [0, n) when sparse *)
  mutable n : int;
  mutable dense : bool;
}

(* Narrow the selection in place to the rows passing [keep]. *)
let refine vb (keep : int -> bool) =
  let sel = vb.sel in
  let k = ref 0 in
  if vb.dense then begin
    for i = vb.lo to vb.hi - 1 do
      if keep i then begin
        Array.unsafe_set sel !k i;
        incr k
      end
    done;
    vb.dense <- false
  end
  else
    for s = 0 to vb.n - 1 do
      let i = Array.unsafe_get sel s in
      if keep i then begin
        Array.unsafe_set sel !k i;
        incr k
      end
    done;
  vb.n <- !k

(* ------------------------------------------------------------------ *)
(* Conjunct compilation                                                 *)
(* ------------------------------------------------------------------ *)

(* Monomorphic comparison tests: the signature specializes the
   polymorphic operators to unboxed ints. *)
let int_test : A.cmp -> int -> int -> bool = function
  | A.Eq -> ( = )
  | A.Ne -> ( <> )
  | A.Lt -> ( < )
  | A.Le -> ( <= )
  | A.Gt -> ( > )
  | A.Ge -> ( >= )

(* Floats go through [Stdlib.compare] so NaN orders exactly as
   [Value.compare_total] orders it. *)
let float_test op =
  let t = Eval.cmp_test op in
  fun (x : float) (y : float) -> t (Stdlib.compare x y)

(* [a op b] = [b (flip op) a] *)
let flip : A.cmp -> A.cmp = function
  | A.Eq -> A.Eq
  | A.Ne -> A.Ne
  | A.Lt -> A.Gt
  | A.Gt -> A.Lt
  | A.Le -> A.Ge
  | A.Ge -> A.Le

(** A conjunct compiled at prepare time. Typed conjuncts bind to the
    column vectors of a concrete columnar image at open time (the image
    changes when the relation is mutated between executions); the
    fallbacks are image-independent. *)
type pconj =
  | P_typed of A.cmp * pop * pop  (** simple operands, at least one column *)
  | P_fast of bool  (** constant comparison outcome *)
  | P_slow of (row list -> bool option)  (** generic 3VL closure *)

and pop = PO_col of int | PO_const of Value.t

(** A conjunct bound to a columnar image, ready to refine selections. *)
type conj =
  | K_all
  | K_none  (** drops every row (e.g. comparison against NULL) *)
  | K_col of (int -> bool)  (** row-id test over the column vectors *)
  | K_slow of (row list -> bool option)

let compile_pred ~meter ~binds (layout : layout) scopes (p : A.pred) : pconj =
  let operand e =
    match e with
    | A.Const v -> Some (PO_const v)
    | A.Bind (i, peek) ->
        Some
          (PO_const
             (if i >= 0 && i < Array.length binds then binds.(i) else peek))
    | A.Col c -> Option.map (fun j -> PO_col j) (Eval.find_col layout c)
    | _ -> None
  in
  match p with
  | A.Cmp (op, a, b) -> (
      match (operand a, operand b) with
      | Some (PO_const va), Some (PO_const vb) ->
          (* charge-free constant conjunct in both engines *)
          P_fast
            ((not (Value.is_null va || Value.is_null vb))
            && Eval.cmp_test op (Value.compare_total va vb))
      | Some pa, Some pb -> P_typed (op, pa, pb)
      | _ -> P_slow (Eval.compile_pred ~meter ~binds (layout :: scopes) p))
  | _ -> P_slow (Eval.compile_pred ~meter ~binds (layout :: scopes) p)

let col_const op (c : C.col) (v : Value.t) : conj =
  if Value.is_null v then K_none
  else
    let nulls = c.C.c_nulls in
    match (c.C.c_vec, v) with
    | C.V_int a, Value.Int k ->
        let t = int_test op in
        K_col
          (fun i -> (not (C.bitmap_get nulls i)) && t (Array.unsafe_get a i) k)
    | C.V_int a, Value.Float k ->
        let t = float_test op in
        K_col
          (fun i ->
            (not (C.bitmap_get nulls i))
            && t (float_of_int (Array.unsafe_get a i)) k)
    | C.V_float a, Value.Float k ->
        let t = float_test op in
        K_col
          (fun i -> (not (C.bitmap_get nulls i)) && t (Array.unsafe_get a i) k)
    | C.V_float a, Value.Int k ->
        let kf = float_of_int k in
        let t = float_test op in
        K_col
          (fun i -> (not (C.bitmap_get nulls i)) && t (Array.unsafe_get a i) kf)
    | C.V_date a, Value.Date k ->
        let t = int_test op in
        K_col
          (fun i -> (not (C.bitmap_get nulls i)) && t (Array.unsafe_get a i) k)
    | C.V_str a, Value.Str k ->
        let t = Eval.cmp_test op in
        K_col
          (fun i ->
            (not (C.bitmap_get nulls i))
            && t (String.compare (Array.unsafe_get a i) k))
    | C.V_bool a, Value.Bool k ->
        let t = Eval.cmp_test op in
        K_col
          (fun i ->
            (not (C.bitmap_get nulls i))
            && t (Stdlib.compare (Array.unsafe_get a i : bool) k))
    | C.V_mixed a, _ ->
        let t = Eval.cmp_test op in
        K_col
          (fun i ->
            let x = Array.unsafe_get a i in
            (not (Value.is_null x)) && t (Value.compare_total x v))
    | (C.V_int _ | C.V_float _ | C.V_str _ | C.V_bool _ | C.V_date _), _ ->
        (* cross-type comparison outside the numeric tower:
           [Value.compare_total] then depends only on the constructors,
           so the non-null outcome is one constant *)
        let sample =
          match c.C.c_vec with
          | C.V_int _ -> Value.Int 0
          | C.V_float _ -> Value.Float 0.
          | C.V_str _ -> Value.Str ""
          | C.V_bool _ -> Value.Bool false
          | C.V_date _ -> Value.Date 0
          | C.V_mixed _ -> assert false
        in
        if Eval.cmp_test op (Value.compare_total sample v) then
          K_col (fun i -> not (C.bitmap_get nulls i))
        else K_none

(** What a chain binds to at open: the scanned rows and their
    relation-owned column images, fetched — and built on first use —
    per referenced column. *)
type img = { base : row array; col : int -> C.col }

let col_col (im : img) op ja jb : conj =
  let ca = im.col ja and cb2 = im.col jb in
  let na = ca.C.c_nulls and nb = cb2.C.c_nulls in
  match (ca.C.c_vec, cb2.C.c_vec) with
  | C.V_int a, C.V_int b | C.V_date a, C.V_date b ->
      let t = int_test op in
      K_col
        (fun i ->
          (not (C.bitmap_get na i))
          && (not (C.bitmap_get nb i))
          && t (Array.unsafe_get a i) (Array.unsafe_get b i))
  | C.V_float a, C.V_float b ->
      let t = float_test op in
      K_col
        (fun i ->
          (not (C.bitmap_get na i))
          && (not (C.bitmap_get nb i))
          && t (Array.unsafe_get a i) (Array.unsafe_get b i))
  | C.V_int a, C.V_float b ->
      let t = float_test op in
      K_col
        (fun i ->
          (not (C.bitmap_get na i))
          && (not (C.bitmap_get nb i))
          && t (float_of_int (Array.unsafe_get a i)) (Array.unsafe_get b i))
  | C.V_float a, C.V_int b ->
      let t = float_test op in
      K_col
        (fun i ->
          (not (C.bitmap_get na i))
          && (not (C.bitmap_get nb i))
          && t (Array.unsafe_get a i) (float_of_int (Array.unsafe_get b i)))
  | C.V_str a, C.V_str b ->
      let t = Eval.cmp_test op in
      K_col
        (fun i ->
          (not (C.bitmap_get na i))
          && (not (C.bitmap_get nb i))
          && t (String.compare (Array.unsafe_get a i) (Array.unsafe_get b i)))
  | _ ->
      (* bool pairs, mixed columns, cross-type: through the base rows,
         exactly the row engine's specialized path *)
      let base = im.base in
      let t = Eval.cmp_test op in
      K_col
        (fun i ->
          let r = Array.unsafe_get base i in
          let va = Array.unsafe_get r ja and vb = Array.unsafe_get r jb in
          (not (Value.is_null va || Value.is_null vb))
          && t (Value.compare_total va vb))

let bind_conj (im : img) (pc : pconj) : conj =
  match pc with
  | P_fast true -> K_all
  | P_fast false -> K_none
  | P_slow f -> K_slow f
  | P_typed (op, pa, pb) -> (
      match (pa, pb) with
      | PO_col j, PO_const v -> col_const op (im.col j) v
      | PO_const v, PO_col j -> col_const (flip op) (im.col j) v
      | PO_col ja, PO_col jb -> col_col im op ja jb
      | PO_const _, PO_const _ -> assert false)

let apply_conj vb (base : row array) (orows : row list) = function
  | K_all -> ()
  | K_none ->
      vb.n <- 0;
      vb.dense <- false
  | K_col keep -> refine vb keep
  | K_slow g ->
      refine vb (fun i -> g (Array.unsafe_get base i :: orows) = Some true)

(* ------------------------------------------------------------------ *)
(* Chain recognition                                                    *)
(* ------------------------------------------------------------------ *)

(** An aggregation root: [Aggregate] (non-DISTINCT) or [Partial_agg],
    keyless or with one group key. *)
type agg_root = {
  ag_sorted : bool;  (** sort strategy: charge the sort of the input *)
  ag_key : A.expr option;
      (** [None]: one implicit group, even on empty input *)
  ag_aggs : (A.agg * A.expr option) list;
  ag_partial : bool;  (** emit [Partial_agg] state rows, not final values *)
}

type root_kind =
  | R_pipe  (** chain top is the scan or a filter: emit the base rows *)
  | R_project of (A.expr * string) list
  | R_agg of agg_root

type chain_desc = {
  cd_scan : Plan.t;  (** the [Table_scan] or [Part_scan] source *)
  cd_table : string;
  cd_nodes : (Plan.t * A.pred list) list;
      (** scan first, then each [Filter] above it, bottom-up *)
  cd_root_plan : Plan.t;
  cd_root : root_kind;
}

let rec pipe_of (p : Plan.t) =
  match p with
  | Plan.Table_scan { table; filter; _ } | Plan.Part_scan { table; filter; _ }
    ->
      Some (p, table, [ (p, filter) ])
  | Plan.Filter { child; preds } ->
      Option.map
        (fun (sp, t, nodes) -> (sp, t, nodes @ [ (p, preds) ]))
        (pipe_of child)
  | _ -> None

(** The vectorizable grammar, v2:
    [(Project | Aggregate | Partial_agg)? · Filter* · Scan], where the
    scan is a [Table_scan] or a [Part_scan] and the aggregation is
    non-DISTINCT with at most one group key. Index scans, joins,
    multi-key grouping and all breakers stay on the row path,
    converting at the pipeline edge. *)
let chain_of (p : Plan.t) : chain_desc option =
  let mk child root =
    Option.map
      (fun (sp, table, nodes) ->
        {
          cd_scan = sp;
          cd_table = table;
          cd_nodes = nodes;
          cd_root_plan = p;
          cd_root = root;
        })
      (pipe_of child)
  in
  let agg child ~sorted ~partial keys aggs =
    let root key =
      R_agg
        {
          ag_sorted = sorted;
          ag_key = key;
          ag_aggs = aggs;
          ag_partial = partial;
        }
    in
    match keys with
    | [] -> mk child (root None)
    | [ (e, _) ] -> mk child (root (Some e))
    | _ -> None
  in
  match p with
  | Plan.Project { child; items; _ } -> mk child (R_project items)
  | Plan.Aggregate { child; keys; strategy; aggs; _ }
    when List.for_all (fun (_, _, _, dist) -> not dist) aggs ->
      agg child ~sorted:(strategy = `Sort) ~partial:false keys
        (List.map (fun (_, a, eo, _) -> (a, eo)) aggs)
  | Plan.Partial_agg { child; keys; aggs; _ } ->
      agg child ~sorted:false ~partial:true keys
        (List.map (fun (_, a, eo) -> (a, eo)) aggs)
  | Plan.Table_scan _ | Plan.Part_scan _ | Plan.Filter _ -> mk p R_pipe
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Grouped accumulation                                                 *)
(* ------------------------------------------------------------------ *)

(* Typed group tables: the equality of [Hval] (and so of the row
   engine's [Hkey]) on a monomorphic int or string column. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

module Stbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* Projection item, group key or aggregate argument, compiled at
   prepare time: a column of the scanned table, or a closure over the
   row and the correlation rows. *)
type src = S_col of int | S_fun of (row -> row list -> Value.t)

let compile_src ~meter ~binds scan_layout scopes (e : A.expr) : src =
  match match e with A.Col c -> Eval.find_col scan_layout c | _ -> None with
  | Some j -> S_col j
  | None -> (
      match Eval.simple_arg ~binds scan_layout e with
      | Some f -> S_fun (fun r _ -> f r)
      | None ->
          let g = Eval.compile_expr ~meter ~binds (scan_layout :: scopes) e in
          S_fun (fun r orows -> g (r :: orows)))

(* A source bound to the open's image: row id -> value. *)
let value_of (im : img) orows = function
  | S_col j ->
      let base = im.base in
      fun i -> Array.unsafe_get (Array.unsafe_get base i) j
  | S_fun f ->
      let base = im.base in
      fun i -> f (Array.unsafe_get base i) orows

(* The group key bound to an image: typed fast paths for monomorphic
   int (and date) and string columns, with NULL as one group of its
   own; everything else hashes [Value.t]s. *)
type keyer =
  | KB_none  (** keyless: every row is in group 0 *)
  | KB_int of int array * Bytes.t * (int -> Value.t)
  | KB_str of string array * Bytes.t
  | KB_gen of (int -> Value.t)

(* Per-group state of one aggregate, indexed by group id. Typed runs
   keep unboxed running state; [G_gen] goes through the shared generic
   accumulator, so semantics (and [Value.arith] corner cases like date
   addition) cannot drift from the row engine. *)
type grun =
  | G_unit  (** no argument *)
  | G_int of int array * Bytes.t * istate
  | G_float of float array * Bytes.t * fstate
  | G_gen of (int -> Value.t) * gstate

and istate = {
  mutable ic : int array;
  mutable isum : int array;
  mutable imn : int array;
  mutable imx : int array;
}

and fstate = {
  mutable fc : int array;
  mutable fsum : float array;
  mutable fmn : float array;
  mutable fmx : float array;
}

and gstate = { mutable accs : acc array }

(* A run over [im]; its per-group arrays start empty and grow with the
   group table. *)
let mk_run (im : img) orows (s : src) : grun =
  let col = match s with S_col j -> Some (im.col j) | S_fun _ -> None in
  match col with
  | Some { C.c_vec = C.V_int a; c_nulls } ->
      G_int (a, c_nulls, { ic = [||]; isum = [||]; imn = [||]; imx = [||] })
  | Some { C.c_vec = C.V_float a; c_nulls } ->
      G_float (a, c_nulls, { fc = [||]; fsum = [||]; fmn = [||]; fmx = [||] })
  | _ -> G_gen (value_of im orows s, { accs = [||] })

let grow_to cap a fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Make room for group ids below [cap]. *)
let run_grow cap = function
  | G_unit -> ()
  | G_int (_, _, st) ->
      st.ic <- grow_to cap st.ic 0;
      st.isum <- grow_to cap st.isum 0;
      st.imn <- grow_to cap st.imn 0;
      st.imx <- grow_to cap st.imx 0
  | G_float (_, _, st) ->
      st.fc <- grow_to cap st.fc 0;
      st.fsum <- grow_to cap st.fsum 0.;
      st.fmn <- grow_to cap st.fmn 0.;
      st.fmx <- grow_to cap st.fmx 0.
  | G_gen (_, st) -> st.accs <- grow_to cap st.accs (acc_create ())

let run_init g = function
  | G_unit -> ()
  | G_int (_, _, st) -> st.ic.(g) <- 0
  | G_float (_, _, st) -> st.fc.(g) <- 0
  | G_gen (_, st) -> st.accs.(g) <- acc_create ()

(* Fold the selected rows [sel.(0 .. n-1)], of groups [gids], into
   the run. Sums run in selection order and float min/max use
   [compare]: the image of the generic accumulator, bit-exact. *)
let run_add ~n ~sel ~gids = function
  | G_unit -> ()
  | G_int (a, nulls, st) ->
      let ic = st.ic and isum = st.isum and imn = st.imn and imx = st.imx in
      for s = 0 to n - 1 do
        let i = Array.unsafe_get sel s in
        if not (C.bitmap_get nulls i) then begin
          let g = Array.unsafe_get gids s in
          let v = Array.unsafe_get a i in
          let c = Array.unsafe_get ic g in
          if c = 0 then begin
            Array.unsafe_set isum g v;
            Array.unsafe_set imn g v;
            Array.unsafe_set imx g v
          end
          else begin
            Array.unsafe_set isum g (Array.unsafe_get isum g + v);
            if v < Array.unsafe_get imn g then Array.unsafe_set imn g v;
            if v > Array.unsafe_get imx g then Array.unsafe_set imx g v
          end;
          Array.unsafe_set ic g (c + 1)
        end
      done
  | G_float (a, nulls, st) ->
      let fc = st.fc and fsum = st.fsum and fmn = st.fmn and fmx = st.fmx in
      for s = 0 to n - 1 do
        let i = Array.unsafe_get sel s in
        if not (C.bitmap_get nulls i) then begin
          let g = Array.unsafe_get gids s in
          let v = Array.unsafe_get a i in
          let c = Array.unsafe_get fc g in
          if c = 0 then begin
            Array.unsafe_set fsum g v;
            Array.unsafe_set fmn g v;
            Array.unsafe_set fmx g v
          end
          else begin
            Array.unsafe_set fsum g (Array.unsafe_get fsum g +. v);
            if Stdlib.compare v (Array.unsafe_get fmn g) < 0 then
              Array.unsafe_set fmn g v;
            if Stdlib.compare v (Array.unsafe_get fmx g) > 0 then
              Array.unsafe_set fmx g v
          end;
          Array.unsafe_set fc g (c + 1)
        end
      done
  | G_gen (f, st) ->
      let accs = st.accs in
      for s = 0 to n - 1 do
        acc_add false
          (Array.unsafe_get accs (Array.unsafe_get gids s))
          (f (Array.unsafe_get sel s))
      done

(* Group [g]'s state as a generic accumulator, so [acc_result] and
   [partial_state] render it: COUNT/SUM/MIN/MAX/AVG semantics
   (including the empty-input NULLs and integer-average promotion)
   stay shared. *)
let run_acc g = function
  | G_unit -> acc_create ()
  | G_gen (_, st) -> st.accs.(g)
  | G_int (_, _, st) ->
      let c = st.ic.(g) in
      let v x = if c = 0 then Value.Null else Value.Int x in
      {
        a_count = c;
        a_sum = v st.isum.(g);
        a_min = v st.imn.(g);
        a_max = v st.imx.(g);
        a_seen = Vkey.empty;
      }
  | G_float (_, _, st) ->
      let c = st.fc.(g) in
      let v x = if c = 0 then Value.Null else Value.Float x in
      {
        a_count = c;
        a_sum = v st.fsum.(g);
        a_min = v st.fmn.(g);
        a_max = v st.fmx.(g);
        a_seen = Vkey.empty;
      }

(* ------------------------------------------------------------------ *)
(* Chain construction                                                   *)
(* ------------------------------------------------------------------ *)

(* One chain node (the scan or a filter above it): its conjuncts and,
   in analyze mode, its stat record. [sg_charge] is false for the
   pipeline root, which the executor's standard wrapper charges. *)
type stage = {
  sg_preds : pconj array;
  mutable sg_conjs : conj array;  (* rebound per row array *)
  sg_charge : bool;
  sg_stat : node_stat option;
}

(* A chain below its root: per-open state and the segment stepper the
   root consumes. *)
type chain = {
  ch_vb : vblock;  (** the current segment's selection *)
  ch_img : img ref;  (** bound at open *)
  ch_orows : row list ref;
  ch_step : unit -> bool;  (** advance one segment; false at exhaustion *)
  ch_open : row list -> unit;
  ch_close : unit -> unit;
  ch_root_stat : node_stat option;
      (** analyze record of a non-[R_pipe] root (a pipe root's is its
          last stage's) *)
}

let chain (ctx : ctx) (scopes : layout list) (cd : chain_desc) : chain =
  let meter = ctx.meter in
  let binds = ctx.binds in
  let rel = Db.relation ctx.db cd.cd_table in
  let scan_layout = Plan.layout cd.cd_scan ctx.db.Db.cat in
  let slices_of = scan_slices ctx cd.cd_scan in
  let seg = ctx.size in
  let vb =
    { lo = 0; hi = 0; sel = Array.make (max 1 seg) 0; n = 0; dense = true }
  in
  Meter.charge_vec_alloc (max 1 seg);
  let stat_of p =
    match ctx.analyze with
    | None -> None
    | Some tbl ->
        let st = node_stat_of tbl p in
        st.ns_engine <- "vector";
        Some st
  in
  let n_nodes = List.length cd.cd_nodes in
  let is_pipe = match cd.cd_root with R_pipe -> true | _ -> false in
  let stages =
    List.mapi
      (fun k (p, preds) ->
        let is_root = is_pipe && k = n_nodes - 1 in
        {
          sg_preds =
            Array.of_list
              (List.map (compile_pred ~meter ~binds scan_layout scopes) preds);
          sg_conjs = [||];
          sg_charge = not is_root;
          sg_stat = stat_of p;
        })
      cd.cd_nodes
  in
  let root_stat = if is_pipe then None else stat_of cd.cd_root_plan in
  (* per-open chain state: the image, the slices still to read *)
  let im = ref { base = [||]; col = (fun _ -> assert false) } in
  let bound = ref false in
  let slices = ref [||] and si = ref 0 and pos = ref 0 in
  let orows_r = ref [] in
  let rebind rows =
    if not (!bound && !im.base == rows) then begin
      let i = { base = rows; col = C.column rel rows } in
      im := i;
      bound := true;
      List.iter
        (fun sg -> sg.sg_conjs <- Array.map (bind_conj i) sg.sg_preds)
        stages
    end
  in
  let open_slices () =
    let rows, sl = slices_of () in
    rebind rows;
    slices := sl;
    si := 0;
    pos := if Array.length sl > 0 then fst sl.(0) else 0
  in
  let open_chain orows =
    orows_r := orows;
    match ctx.analyze with
    | None -> open_slices ()
    | Some _ ->
        (* every charging chain node counts one execution and absorbs
           the open charges, as the nested row wrappers would *)
        let m0 = Meter.copy meter in
        open_slices ();
        let d = Meter.diff meter m0 in
        List.iter
          (fun sg ->
            match sg.sg_stat with
            | Some st when sg.sg_charge ->
                st.ns_calls <- st.ns_calls + 1;
                Meter.add st.ns_meter d
            | _ -> ())
          stages
  in
  (* Advance one segment through every chain node; false at exhaustion.
     Segments never straddle two slices. Stage k's analyze meter gets
     the cumulative segment delta after its conjuncts ran — i.e. its own
     work plus everything below it, exactly the nesting of the row
     engine's per-node measures. *)
  let step () =
    let sl = !slices in
    let ns = Array.length sl in
    while !si < ns && !pos >= snd sl.(!si) do
      incr si;
      if !si < ns then pos := fst sl.(!si)
    done;
    if !si >= ns then false
    else begin
      let lo = !pos in
      let hi = min (snd sl.(!si)) (lo + seg) in
      pos := hi;
      vb.lo <- lo;
      vb.hi <- hi;
      vb.n <- hi - lo;
      vb.dense <- true;
      if !force_sparse then begin
        let sel = vb.sel in
        for s = 0 to hi - lo - 1 do
          Array.unsafe_set sel s (lo + s)
        done;
        vb.dense <- false
      end;
      let rows = !im.base in
      let orows = !orows_r in
      let m0 =
        match ctx.analyze with
        | Some _ -> Some (Meter.copy meter)
        | None -> None
      in
      List.iteri
        (fun k sg ->
          let sel_in = if k = 0 then hi - lo else vb.n in
          if k = 0 then
            meter.Meter.rows_scanned <- meter.Meter.rows_scanned + (hi - lo);
          Array.iter (fun cj -> apply_conj vb rows orows cj) sg.sg_conjs;
          if sg.sg_charge then
            meter.Meter.rows_out <- meter.Meter.rows_out + vb.n;
          match sg.sg_stat with
          | Some st ->
              st.ns_sel_in <- st.ns_sel_in + sel_in;
              if sg.sg_charge then begin
                st.ns_rows <- st.ns_rows + vb.n;
                match m0 with
                | Some m0 -> Meter.add st.ns_meter (Meter.diff meter m0)
                | None -> ()
              end
          | None -> ())
        stages;
      true
    end
  in
  {
    ch_vb = vb;
    ch_img = im;
    ch_orows = orows_r;
    ch_step = step;
    ch_open = open_chain;
    ch_close = (fun () -> slices := [||]);
    ch_root_stat = root_stat;
  }

(* A streaming root: the surviving selection of every non-empty
   segment, mapped through [emit], as one output batch. *)
let emitting (ch : chain) ~size (emit : row -> row) : cursor =
  let vb = ch.ch_vb in
  let out = B.create (max 1 size) in
  let rec next () =
    if ch.ch_step () then
      if vb.n = 0 then next ()
      else begin
        (match ch.ch_root_stat with
        | Some st -> st.ns_sel_in <- st.ns_sel_in + vb.n
        | None -> ());
        let data = out.B.data in
        let rows = !(ch.ch_img).base in
        (if vb.dense then begin
           let k = ref 0 in
           for i = vb.lo to vb.hi - 1 do
             Array.unsafe_set data !k (emit (Array.unsafe_get rows i));
             incr k
           done
         end
         else
           let sel = vb.sel in
           for s = 0 to vb.n - 1 do
             Array.unsafe_set data s
               (emit (Array.unsafe_get rows (Array.unsafe_get sel s)))
           done);
        out.B.len <- vb.n;
        Some out
      end
    else None
  in
  { c_open = ch.ch_open; c_next = next; c_close = ch.ch_close }

(* The aggregation root over a chain: per segment, the surviving
   selection is made explicit, each row is assigned its group id
   (first-seen order, as the row engine's group fold), and every
   aggregate run folds the segment. Charges [agg_rows] per aggregated
   row and, under the sort strategy, the sort of the input. *)
let agg_cursor (ctx : ctx) (ch : chain) ~key ~args ag : cursor =
  let meter = ctx.meter and seg = ctx.size and vb = ch.ch_vb in
  let gids = Array.make (max 1 seg) 0 in
  Meter.charge_vec_alloc (max 1 seg);
  let itbl = Itbl.create 16 and stbl = Stbl.create 16 in
  let vtbl = Hval.create 16 in
  let null_gid = ref (-1) in
  let keyer = ref KB_none in
  let runs = ref [||] in
  (* groups in first-seen order: key value and row count *)
  let ng = ref 0 in
  let g_key = ref [||] and g_rows = ref [||] in
  let new_group kv =
    let g = !ng in
    if g = Array.length !g_rows then begin
      let cap = max 16 (2 * g) in
      g_key := grow_to cap !g_key Value.Null;
      g_rows := grow_to cap !g_rows 0;
      Array.iter (run_grow cap) !runs
    end;
    !g_key.(g) <- kv;
    !g_rows.(g) <- 0;
    Array.iter (run_init g) !runs;
    ng := g + 1;
    g
  in
  let null_group () =
    if !null_gid < 0 then null_gid := new_group Value.Null;
    !null_gid
  in
  (* group id of every selected row into [gids] *)
  let assign n sel =
    match !keyer with
    | KB_none -> ()
    | KB_int (a, nulls, wrap) ->
        for s = 0 to n - 1 do
          let i = Array.unsafe_get sel s in
          Array.unsafe_set gids s
            (if C.bitmap_get nulls i then null_group ()
             else
               let k = Array.unsafe_get a i in
               match Itbl.find itbl k with
               | g -> g
               | exception Not_found ->
                   let g = new_group (wrap k) in
                   Itbl.add itbl k g;
                   g)
        done
    | KB_str (a, nulls) ->
        for s = 0 to n - 1 do
          let i = Array.unsafe_get sel s in
          Array.unsafe_set gids s
            (if C.bitmap_get nulls i then null_group ()
             else
               let k = Array.unsafe_get a i in
               match Stbl.find stbl k with
               | g -> g
               | exception Not_found ->
                   let g = new_group (Value.Str k) in
                   Stbl.add stbl k g;
                   g)
        done
    | KB_gen f ->
        for s = 0 to n - 1 do
          let kv = f (Array.unsafe_get sel s) in
          Array.unsafe_set gids s
            (match Hval.find vtbl kv with
            | g -> g
            | exception Not_found ->
                let g = new_group kv in
                Hval.add vtbl kv g;
                g)
        done
  in
  let emitted = ref false in
  let c_open orows =
    ch.ch_open orows;
    emitted := false;
    let i = !(ch.ch_img) in
    keyer :=
      (match key with
      | None -> KB_none
      | Some (S_col j as s) -> (
          let c = i.col j in
          match c.C.c_vec with
          | C.V_int a -> KB_int (a, c.C.c_nulls, fun k -> Value.Int k)
          | C.V_date a -> KB_int (a, c.C.c_nulls, fun k -> Value.Date k)
          | C.V_str a -> KB_str (a, c.C.c_nulls)
          | _ -> KB_gen (value_of i orows s))
      | Some s -> KB_gen (value_of i orows s));
    Itbl.reset itbl;
    Stbl.reset stbl;
    Hval.reset vtbl;
    null_gid := -1;
    ng := 0;
    g_key := [||];
    g_rows := [||];
    runs :=
      Array.map
        (function None -> G_unit | Some s -> mk_run i orows s)
        args;
    (* the one implicit group of a keyless aggregation *)
    if Option.is_none key then ignore (new_group Value.Null)
  in
  let c_next () =
    if !emitted then None
    else begin
      emitted := true;
      let ntot = ref 0 in
      while ch.ch_step () do
        let n = vb.n in
        meter.Meter.agg_rows <- meter.Meter.agg_rows + n;
        (match ch.ch_root_stat with
        | Some st -> st.ns_sel_in <- st.ns_sel_in + n
        | None -> ());
        ntot := !ntot + n;
        let sel = vb.sel in
        if vb.dense then
          for s = 0 to n - 1 do
            Array.unsafe_set sel s (vb.lo + s)
          done;
        assign n sel;
        let rows = !g_rows in
        for s = 0 to n - 1 do
          let g = Array.unsafe_get gids s in
          Array.unsafe_set rows g (Array.unsafe_get rows g + 1)
        done;
        Array.iter (run_add ~n ~sel ~gids) !runs
      done;
      if ag.ag_sorted then charge_sort ctx !ntot;
      let aggs = List.map fst ag.ag_aggs in
      let render g =
        let n = !g_rows.(g) in
        let accs = List.map (run_acc g) (Array.to_list !runs) in
        let vals =
          if ag.ag_partial then
            List.concat (List.map2 (partial_state n) aggs accs)
          else
            List.map2
              (fun a acc -> acc_result a acc ~rows_in_group:n)
              aggs accs
        in
        Array.of_list (if Option.is_none key then vals else !g_key.(g) :: vals)
      in
      if !ng = 0 then None
      else Some { B.data = Array.init !ng render; len = !ng }
    end
  in
  { c_open; c_next; c_close = ch.ch_close }

let build (ctx : ctx) (scopes : layout list) (cd : chain_desc) : cursor =
  let meter = ctx.meter and binds = ctx.binds in
  let scan_layout = Plan.layout cd.cd_scan ctx.db.Db.cat in
  let src e = compile_src ~meter ~binds scan_layout scopes e in
  let ch = chain ctx scopes cd in
  match cd.cd_root with
  | R_pipe ->
      (* identity edge: the surviving selection materializes as the
         original base-row pointers, no copying or re-boxing *)
      emitting ch ~size:ctx.size Fun.id
  | R_project items ->
      let fitems = Array.of_list (List.map (fun (e, _) -> src e) items) in
      let ni = Array.length fitems in
      emitting ch ~size:ctx.size (fun r ->
          let orows = !(ch.ch_orows) in
          let o = Array.make ni Value.Null in
          for k = 0 to ni - 1 do
            Array.unsafe_set o k
              (match Array.unsafe_get fitems k with
              | S_col j -> Array.unsafe_get r j
              | S_fun f -> f r orows)
          done;
          o)
  | R_agg ag ->
      agg_cursor ctx ch
        ~key:(Option.map src ag.ag_key)
        ~args:
          (Array.of_list
             (List.map (fun (_, eo) -> Option.map src eo) ag.ag_aggs))
        ag

(* ------------------------------------------------------------------ *)
(* The hybrid choice                                                    *)
(* ------------------------------------------------------------------ *)

(* Estimated rows entering the pipeline. The planner hint (threaded by
   callers that ran {!Planner.Plan_est}) takes precedence; without one
   the table's cardinality stands in. *)
let pipeline_card (ctx : ctx) (cd : chain_desc) : float =
  match ctx.card_of cd.cd_scan with
  | Some c -> c
  | None ->
      float_of_int (Relation.cardinality (Db.relation ctx.db cd.cd_table))

(** Vectorize [p] if it is a vectorizable pipeline chain and the engine
    mode (plus, under [Auto], the estimated pipeline cardinality
    against {!Cursor.ctx.vector_threshold}) selects the columnar path.
    Returns the {e unwrapped} root cursor — the executor's standard
    prepare wrapper charges the root node, exactly as for a row
    cursor. *)
let try_root (ctx : ctx) (scopes : layout list) (p : Plan.t) : cursor option =
  match chain_of p with
  | None -> None
  | Some cd ->
      let use =
        match ctx.engine with
        | Row -> false
        | Vector -> true
        | Auto -> pipeline_card ctx cd >= ctx.vector_threshold
      in
      if not use then None
      else begin
        ctx.estats.es_vector <- ctx.estats.es_vector + 1;
        Some (build ctx scopes cd)
      end
