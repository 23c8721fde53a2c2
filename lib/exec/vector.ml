(** Vectorized (columnar) pipeline engine.

    Executes pipeline chains — a table or partition scan, the filters
    above it, and an optional projection or aggregation root — and
    inner hash joins of two such chains, over the relation-owned column
    images of {!Colbatch}: each [c_next] processes one segment of the
    scanned rows through a selection vector, applying every predicate
    conjunct as a tight monomorphic loop over its column vector (or,
    for predicates the typed loops cannot express, over the rows
    themselves), then materializes the surviving selection at the
    pipeline edge — for identity pipelines by handing out the original
    row pointers, allocation-free.

    {b Grammar.} A {e chain} is [Filter* · Scan], the scan a
    [Table_scan] or a [Part_scan]; a partition scan reads its surviving
    slices, honours an exchange task's [restrict], and charges its
    pages through the one slice function the row engine's scan leaf
    uses ({!Cursor.scan_slices}). A vectorized root is one of:
    - a chain, alone or under a projection, or under a non-DISTINCT
      [Aggregate] or [Partial_agg] that is keyless or has one group key.
      A keyless aggregation is one group even on empty input, so a
      keyless [Partial_agg] task emits one state row. Grouped
      aggregation assigns group ids in first-seen order under
      {!Cursor.Hval}'s equality, with typed tables for monomorphic int
      (and date) and string key columns — NULL is one group of its own
      — and a [Value.t] table otherwise; typed int and float aggregate
      arguments accumulate unboxed per group;
    - an inner [Hash] join of two chains on exactly one equi-key with
      no residual conjunct, alone or under a projection, whose columns
      are then read straight from the two base rows. The build side is
      [right], as in the row engine. Its keys get group ids through the
      same key tables (a [Value.t] table when the two key images differ
      in type), and its rows are laid out per group in one array sized
      per execution; a probe reads the left chain's key image and walks
      its group's slice, copying nothing. Each probe row's candidates
      come in the row engine's reverse build order, so rows match
      exactly, in the same order. A NULL key is charged and never
      matches.
    Everything else (other joins, multi-key grouping, sorts, set
    operators, index scans) stays on the row path of {!Executor}; the
    conversion happens only at pipeline edges, where breakers
    materialize rows anyway. Exchange tasks run these roots on helper
    domains: a root's mutable state — a join's build table too — is its
    own and lives for one execution, and the images it reads are
    immutable and shared.

    {b Meter parity is exact.} Charges are accounted field by field as
    the row engine does: [pages_read] per open, [rows_scanned] per
    segment row, [rows_out] per operator per surviving row, [agg_rows]
    per aggregated row, sort charges for sort-strategy aggregation,
    [hash_build] per build row, [hash_probe] per probe row and
    [rows_joined] per candidate — and conjuncts are applied in original
    order, one selection refinement per conjunct, so generic (possibly
    expensive) predicates are evaluated on exactly the rows that
    survive the preceding conjuncts, preserving short-circuit
    [expensive_calls] counts. Analyze mode records the same per-node
    calls, rows and meter as the row engine's wrappers would, for the
    interior nodes of a root too (a join's two chains, and the join
    itself under a projection). The test suite runs forced-engine
    differential comparisons (vector vs row vs {!Baseline}) on
    randomized plans and on exchange plans to hold this.

    The engine choice is hybrid and cost-driven: {!try_root} consults
    the planner's estimated pipeline cardinality (threaded through
    {!Cursor.ctx.card_of}) and vectorizes only roots whose source scan
    — for a join, the probe chain's — is estimated above
    {!Cursor.ctx.vector_threshold}; tiny pipelines — nested-loop inner
    sides, subquery plans over small tables — keep the row path's lower
    per-execution constant. A vectorized root counts one vector
    dispatch per source chain (a join counts two), as the row path
    counts one per scan, so dispatch counts and vector shares stay
    comparable across engines. *)

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

(** The chain grammar:
    [(Project | Aggregate | Partial_agg)? · Filter* · Scan], where the
    scan is a [Table_scan] or a [Part_scan] and the aggregation is
    non-DISTINCT with at most one group key. Joins have their own
    grammar ({!join_of}). *)
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
   engine's [Hkey]) on a monomorphic int or string column. Int keys map
   to non-negative ids by open addressing over two flat arrays —
   linear probing, a free slot's id is -1 — so neither an insert nor a
   missed lookup allocates or raises. *)
module Itbl = struct
  type t = {
    mutable keys : int array;
    mutable ids : int array;
    mutable count : int;
    initial : int;
  }

  let slots n =
    let rec up c = if c >= 2 * n then c else up (2 * c) in
    up 16

  let create n =
    let c = slots n in
    { keys = Array.make c 0; ids = Array.make c (-1); count = 0; initial = c }

  (* back to the initial capacity, as [Hashtbl.reset] *)
  let reset t =
    if Array.length t.ids = t.initial then Array.fill t.ids 0 t.initial (-1)
    else begin
      t.keys <- Array.make t.initial 0;
      t.ids <- Array.make t.initial (-1)
    end;
    t.count <- 0

  let slot t k =
    let ids = t.ids and keys = t.keys in
    let mask = Array.length ids - 1 in
    let h = k * 0x9E3779B97F4A7C1 in
    let i = ref ((h lxor (h lsr 32)) land mask) in
    while Array.unsafe_get ids !i >= 0 && Array.unsafe_get keys !i <> k do
      i := (!i + 1) land mask
    done;
    !i

  (** The id of [k], or -1. *)
  let find t k = Array.unsafe_get t.ids (slot t k)

  (** Map [k], absent, to [g >= 0]; at half full the table doubles. *)
  let rec add t k g =
    if 2 * (t.count + 1) > Array.length t.ids then begin
      let keys = t.keys and ids = t.ids in
      let c = 2 * Array.length ids in
      t.keys <- Array.make c 0;
      t.ids <- Array.make c (-1);
      t.count <- 0;
      Array.iteri (fun i g -> if g >= 0 then add t (Array.unsafe_get keys i) g) ids;
      add t k g
    end
    else begin
      let i = slot t k in
      Array.unsafe_set t.keys i k;
      Array.unsafe_set t.ids i g;
      t.count <- t.count + 1
    end
end

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

(* A key bound to an image: typed fast paths for monomorphic int (and
   date) and string columns, whose NULLs the bitmap marks; everything
   else hashes [Value.t]s. *)
type ikind = I_int | I_date

type keyer =
  | KB_none  (** keyless: every row is in group 0 *)
  | KB_int of int array * Bytes.t * ikind
  | KB_str of string array * Bytes.t
  | KB_gen of (int -> Value.t)

let keyer_of (im : img) orows (s : src) : keyer =
  match s with
  | S_col j -> (
      let c = im.col j in
      match c.C.c_vec with
      | C.V_int a -> KB_int (a, c.C.c_nulls, I_int)
      | C.V_date a -> KB_int (a, c.C.c_nulls, I_date)
      | C.V_str a -> KB_str (a, c.C.c_nulls)
      | _ -> KB_gen (value_of im orows s))
  | S_fun _ -> KB_gen (value_of im orows s)

(* The key tables behind group ids: one per keyer kind, each with the
   equality of [Hval] (and so of the row engine's [Hkey]) on its
   keys. *)
type gtbl = { itbl : Itbl.t; stbl : int Stbl.t; vtbl : int Hval.t }

(* Tables for [n] keys of [keyer]'s kind, the others minimal *)
let gtbl_create keyer n =
  let ni, ns, nv =
    match keyer with
    | KB_int _ -> (n, 1, 1)
    | KB_str _ -> (1, n, 1)
    | KB_gen _ -> (1, 1, n)
    | KB_none -> (1, 1, 1)
  in
  { itbl = Itbl.create ni; stbl = Stbl.create ns; vtbl = Hval.create nv }

let gtbl_reset gt =
  Itbl.reset gt.itbl;
  Stbl.reset gt.stbl;
  Hval.reset gt.vtbl

(* Group id of every selected row [sel.(0 .. n-1)] into [gids]: a key
   already in [gt] keeps its group, a new one gets [fresh key] — stored
   unless negative — and a NULL key gets [null ()]. Keyless, [gids] is
   left alone. Aggregation makes a group of every new key, NULL
   included; a join build makes one of every non-NULL key, and its
   probe looks keys up with [fresh] and [null] both -1. *)
let assign gt keyer ~null ~fresh n (sel : int array) (gids : int array) =
  match keyer with
  | KB_none -> ()
  | KB_int (a, nulls, kind) ->
      let t = gt.itbl in
      for s = 0 to n - 1 do
        let i = Array.unsafe_get sel s in
        Array.unsafe_set gids s
          (if C.bitmap_get nulls i then null ()
           else
             let k = Array.unsafe_get a i in
             let g = Itbl.find t k in
             if g >= 0 then g
             else
               let g =
                 fresh (match kind with I_int -> Value.Int k | I_date -> Value.Date k)
               in
               if g >= 0 then Itbl.add t k g;
               g)
      done
  | KB_str (a, nulls) ->
      let t = gt.stbl in
      for s = 0 to n - 1 do
        let i = Array.unsafe_get sel s in
        Array.unsafe_set gids s
          (if C.bitmap_get nulls i then null ()
           else
             let k = Array.unsafe_get a i in
             match Stbl.find_opt t k with
             | Some g -> g
             | None ->
                 let g = fresh (Value.Str k) in
                 if g >= 0 then Stbl.add t k g;
                 g)
      done
  | KB_gen f ->
      let t = gt.vtbl in
      for s = 0 to n - 1 do
        let kv = f (Array.unsafe_get sel s) in
        Array.unsafe_set gids s
          (if Value.is_null kv then null ()
           else
             match Hval.find_opt t kv with
             | Some g -> g
             | None ->
                 let g = fresh kv in
                 if g >= 0 then Hval.add t kv g;
                 g)
      done

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
   pipeline root, which the executor's standard wrapper charges — but
   not for the top of a join input, which no wrapper sees. *)
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
  ch_span : unit -> int;  (** rows in this open's slices: a bound on output *)
  ch_close : unit -> unit;
  ch_root_stat : node_stat option;
      (** analyze record of a non-[R_pipe] root (a pipe root's is its
          last stage's) *)
}

let chain ?(inner = false) (ctx : ctx) (scopes : layout list) (cd : chain_desc)
    : chain =
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
        let is_root = is_pipe && (not inner) && k = n_nodes - 1 in
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
  let slices = ref [||] and si = ref 0 and pos = ref 0 and span = ref 0 in
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
    pos := if Array.length sl > 0 then fst sl.(0) else 0;
    span := Array.fold_left (fun n (lo, hi) -> n + hi - lo) 0 sl
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
    ch_span = (fun () -> !span);
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
  let gt =
    { itbl = Itbl.create 16; stbl = Stbl.create 16; vtbl = Hval.create 16 }
  in
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
  let emitted = ref false in
  let c_open orows =
    ch.ch_open orows;
    emitted := false;
    let i = !(ch.ch_img) in
    keyer := (match key with None -> KB_none | Some s -> keyer_of i orows s);
    gtbl_reset gt;
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
        assign gt !keyer ~null:null_group ~fresh:new_group n sel gids;
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
(* Hash join                                                            *)
(* ------------------------------------------------------------------ *)

(** An inner hash join of two pipe chains on one equi-key, with no
    residual conjunct, under an optional projection. As in the row
    engine, [right] is the build side and [left] the probe side. *)
type join_desc = {
  jd_root : Plan.t;  (** the [Project], or the join itself *)
  jd_plan : Plan.t;  (** the [Join] node *)
  jd_probe : chain_desc;
  jd_build : chain_desc;
  jd_keys : A.expr * A.expr;  (** (probe key, build key) *)
  jd_items : (A.expr * string) list option;  (** a [Project] root's items *)
}

let pipe_desc (p : Plan.t) =
  match chain_of p with Some ({ cd_root = R_pipe; _ } as cd) -> Some cd | _ -> None

(** The join grammar:
    [Project? · HashJoin(Inner, one equi-key, no residual)] over two
    [Filter* · Scan] chains. *)
let join_of (cat : Catalog.t) (p : Plan.t) : join_desc option =
  let join items = function
    | Plan.Join { meth = Plan.Hash; role = Plan.Inner; left; right; cond } as j
      -> (
        match (pipe_desc left, pipe_desc right) with
        | Some l, Some r -> (
            match equi_split (Plan.layout left cat) (Plan.layout right cat) cond with
            | [ keys ], [] ->
                Some
                  {
                    jd_root = p;
                    jd_plan = j;
                    jd_probe = l;
                    jd_build = r;
                    jd_keys = keys;
                    jd_items = items;
                  }
            | _ -> None)
        | _ -> None)
    | _ -> None
  in
  match p with
  | Plan.Project { child; items; _ } -> join (Some items) child
  | _ -> join None p

(* The probe and build keys bound to their images: typed keyers of one
   kind on both sides, or else both generic, so every comparison is
   [Hval]'s whatever the two images' types. *)
let key_pair (pim : img) (bim : img) orows ps bs =
  match (keyer_of pim orows ps, keyer_of bim orows bs) with
  | (KB_int (_, _, pk) as p), (KB_int (_, _, bk) as b) when pk = bk -> (p, b)
  | (KB_str _ as p), (KB_str _ as b) -> (p, b)
  | _ -> (KB_gen (value_of pim orows ps), KB_gen (value_of bim orows bs))

(* A projected column of the join: read from the probe or the build
   row, a constant, or computed over the combined row. *)
type jitem =
  | J_left of int
  | J_right of int
  | J_const of Value.t
  | J_fun of (row list -> Value.t)

(* The join's cursor. Per open: the build chain runs dry into an array
   of selected row ids, the build keys get group ids in a key table
   sized once for them, and the rows of each group are laid out
   contiguously (CSR) in reverse build order — the order the row
   engine's bucket lists yield. Per [c_next]: probe segments look their
   keys up until one has candidates, then its output rows are made.
   Charges [hash_build] per build row, [hash_probe] per probe row and
   [rows_joined] per candidate, as [Executor.prepare_join]; NULL keys
   are charged and never match. *)
let join_cursor (ctx : ctx) (scopes : layout list) (jd : join_desc) : cursor =
  let meter = ctx.meter and binds = ctx.binds and seg = max 1 ctx.size in
  let cat = ctx.db.Db.cat in
  let pl = Plan.layout jd.jd_probe.cd_scan cat
  and bl = Plan.layout jd.jd_build.cd_scan cat in
  let probe = chain ~inner:true ctx scopes jd.jd_probe in
  let build = chain ~inner:true ctx scopes jd.jd_build in
  let pkey = compile_src ~meter ~binds pl scopes (fst jd.jd_keys) in
  let bkey = compile_src ~meter ~binds bl scopes (snd jd.jd_keys) in
  let stat_of p =
    Option.map
      (fun tbl ->
        let st = node_stat_of tbl p in
        st.ns_engine <- "vector";
        st)
      ctx.analyze
  in
  (* under a projection the join node is below the wrapped root: it
     charges its own [rows_out] and, in analyze mode, its own stats *)
  let own = Option.is_some jd.jd_items in
  let jstat = stat_of jd.jd_plan in
  let root_stat = if own then stat_of jd.jd_root else None in
  let emit : row -> row -> row list -> row =
    match jd.jd_items with
    | None -> fun l r _ -> Array.append l r
    | Some items ->
        let combined = Array.append pl bl and npl = Array.length pl in
        let item (e, _) =
          match match e with A.Col c -> Eval.find_col combined c | _ -> None with
          | Some k -> if k < npl then J_left k else J_right (k - npl)
          | None -> (
              match Eval.simple_arg ~binds [||] e with
              | Some f -> J_const (f [||])
              | None ->
                  J_fun (Eval.compile_expr ~meter ~binds (combined :: scopes) e))
        in
        let fitems = Array.of_list (List.map item items) in
        let ni = Array.length fitems in
        let whole =
          Array.exists (function J_fun _ -> true | _ -> false) fitems
        in
        fun l r orows ->
          let j = if whole then Array.append l r else [||] in
          let o = Array.make ni Value.Null in
          for k = 0 to ni - 1 do
            Array.unsafe_set o k
              (match Array.unsafe_get fitems k with
              | J_left i -> Array.unsafe_get l i
              | J_right i -> Array.unsafe_get r i
              | J_const v -> v
              | J_fun f -> f (j :: orows))
          done;
          o
  in
  let gids = Array.make seg 0 in
  Meter.charge_vec_alloc seg;
  let out = Vec.create ~cap:seg () in
  (* per-execution state *)
  let empty = gtbl_create KB_none 1 in
  let gt = ref empty and pkeyer = ref KB_none in
  let starts = ref [||] and cands = ref [||] in
  let orows_r = ref [] in
  let no_group () = -1 and no_fresh _ = -1 in
  let build_table orows =
    build.ch_open orows;
    let ids = Array.make (max 1 (build.ch_span ())) 0 in
    let nb = ref 0 in
    let vb = build.ch_vb in
    while build.ch_step () do
      if vb.dense then
        for s = 0 to vb.n - 1 do
          Array.unsafe_set ids (!nb + s) (vb.lo + s)
        done
      else Array.blit vb.sel 0 ids !nb vb.n;
      nb := !nb + vb.n
    done;
    build.ch_close ();
    let nb = !nb in
    meter.Meter.hash_build <- meter.Meter.hash_build + nb;
    probe.ch_open orows;
    let pim = !(probe.ch_img) and bim = !(build.ch_img) in
    let pk, bk = key_pair pim bim orows pkey bkey in
    pkeyer := pk;
    let t = gtbl_create bk nb in
    gt := t;
    let bgids = Array.make (max 1 nb) 0 in
    let ng = ref 0 in
    assign t bk ~null:no_group
      ~fresh:(fun _ ->
        let g = !ng in
        ng := g + 1;
        g)
      nb ids bgids;
    (* CSR: count per group, running ends, then each row in build order
       into the last free slot of its group *)
    let ng = !ng in
    let st = Array.make (ng + 1) 0 in
    for b = 0 to nb - 1 do
      let g = Array.unsafe_get bgids b in
      if g >= 0 then Array.unsafe_set st g (Array.unsafe_get st g + 1)
    done;
    for g = 1 to ng - 1 do
      Array.unsafe_set st g (Array.unsafe_get st g + Array.unsafe_get st (g - 1))
    done;
    if ng > 0 then st.(ng) <- st.(ng - 1);
    let base = bim.base in
    let cs = Array.make (max 1 st.(ng)) [||] in
    for b = 0 to nb - 1 do
      let g = Array.unsafe_get bgids b in
      if g >= 0 then begin
        let p = Array.unsafe_get st g - 1 in
        Array.unsafe_set st g p;
        Array.unsafe_set cs p (Array.unsafe_get base (Array.unsafe_get ids b))
      end
    done;
    Meter.charge_vec_alloc (Array.length ids + (2 * nb) + ng + 1);
    starts := st;
    cands := cs
  in
  let c_open orows =
    orows_r := orows;
    match jstat with
    | Some st when own ->
        let m0 = Meter.copy meter in
        st.ns_calls <- st.ns_calls + 1;
        build_table orows;
        Meter.add st.ns_meter (Meter.diff meter m0)
    | _ -> build_table orows
  in
  let pvb = probe.ch_vb in
  (* The join half of a step, which the join node's measure covers:
     probe segments until one has candidates; their count, 0 at
     exhaustion. The segment's group ids stay in [gids]. *)
  let rec probe_segment () =
    if not (probe.ch_step ()) then 0
    else begin
      let n = pvb.n in
      meter.Meter.hash_probe <- meter.Meter.hash_probe + n;
      (match jstat with
      | Some st -> st.ns_sel_in <- st.ns_sel_in + n
      | None -> ());
      let sel = pvb.sel in
      if pvb.dense then
        for s = 0 to n - 1 do
          Array.unsafe_set sel s (pvb.lo + s)
        done;
      assign !gt !pkeyer ~null:no_group ~fresh:no_fresh n sel gids;
      let st = !starts in
      let k = ref 0 in
      for s = 0 to n - 1 do
        let g = Array.unsafe_get gids s in
        if g >= 0 then
          k := !k + Array.unsafe_get st (g + 1) - Array.unsafe_get st g
      done;
      meter.Meter.rows_joined <- meter.Meter.rows_joined + !k;
      if !k > 0 then !k else probe_segment ()
    end
  in
  let join_step =
    match jstat with
    | Some st when own ->
        fun () ->
          let m0 = Meter.copy meter in
          let k = probe_segment () in
          meter.Meter.rows_out <- meter.Meter.rows_out + k;
          st.ns_rows <- st.ns_rows + k;
          Meter.add st.ns_meter (Meter.diff meter m0);
          k
    | _ when own ->
        fun () ->
          let k = probe_segment () in
          meter.Meter.rows_out <- meter.Meter.rows_out + k;
          k
    | _ -> probe_segment
  in
  (* The emit half: per probe row in selection order, one output row
     per candidate of its group's slice. *)
  let c_next () =
    let k = join_step () in
    if k = 0 then None
    else begin
      Vec.clear out;
      Vec.reserve out k;
      let sel = pvb.sel and pbase = !(probe.ch_img).base in
      let st = !starts and cs = !cands and orows = !orows_r in
      for s = 0 to pvb.n - 1 do
        let g = Array.unsafe_get gids s in
        if g >= 0 then begin
          let l = Array.unsafe_get pbase (Array.unsafe_get sel s) in
          for c = Array.unsafe_get st g to Array.unsafe_get st (g + 1) - 1 do
            Vec.push out (emit l (Array.unsafe_get cs c) orows)
          done
        end
      done;
      (match root_stat with
      | Some st -> st.ns_sel_in <- st.ns_sel_in + k
      | None -> ());
      Some (Vec.to_batch out)
    end
  in
  let c_close () =
    probe.ch_close ();
    gt := empty;
    starts := [||];
    cands := [||]
  in
  { c_open; c_next; c_close }

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

(** Vectorize [p] if it is a vectorizable pipeline chain or hash join
    and the engine mode (plus, under [Auto], the estimated cardinality
    of the pipeline's — for a join, the probe chain's — source scan
    against {!Cursor.ctx.vector_threshold}) selects the columnar path.
    Counts one vector dispatch per source chain. Returns the
    {e unwrapped} root cursor — the executor's standard prepare wrapper
    charges the root node, exactly as for a row cursor. *)
let try_root (ctx : ctx) (scopes : layout list) (p : Plan.t) : cursor option =
  let use cd =
    match ctx.engine with
    | Row -> false
    | Vector -> true
    | Auto -> pipeline_card ctx cd >= ctx.vector_threshold
  in
  let dispatch n build =
    ctx.estats.es_vector <- ctx.estats.es_vector + n;
    Some (build ())
  in
  if ctx.engine = Row then None
  else
    match chain_of p with
    | Some cd -> if use cd then dispatch 1 (fun () -> build ctx scopes cd) else None
    | None -> (
      match join_of ctx.db.Db.cat p with
      | Some jd when use jd.jd_probe ->
          dispatch 2 (fun () -> join_cursor ctx scopes jd)
      | _ -> None)
