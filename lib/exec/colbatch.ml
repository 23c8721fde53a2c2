(** Struct-of-arrays columnar images of row sets, for the vectorized
    engine ({!Vector}).

    A column image decomposes one column of an array of rows into a
    typed vector — unboxed [int]/[float]/[int] (dates) arrays where the
    column is monomorphic, pointer arrays for strings, and a generic
    [Value.t] fallback for mixed columns — paired with a null bitmap
    (bit set = NULL; the typed slot then holds a don't-care default).
    Predicates over a typed column run as tight monomorphic loops with
    no per-row closure dispatch or value boxing; anything the typed
    loops cannot express falls back to the rows themselves, which also
    serve pipeline-edge materialization: a selection over the image
    converts back to rows by handing out the original row pointers,
    allocation-free.

    {b Ownership.} Images are owned by the relation they describe
    ({!Storage.Relation.image}): one immutable image per column, built
    on first use for the relation's current [r_rows] array and
    published atomically. Any domain may read them — exchange tasks
    share one image — and only the columns some pipeline references are
    ever built. {!Storage.Relation.append} installs a fresh row array
    and drops the images, so a stale image can never be observed, and
    images die with their database. Building once amortizes the
    row→column conversion across warm executions, exchange tasks and
    the per-outer-row re-opens of nested-loop inner sides.

    All buffer allocations are charged to {!Meter.vec_alloc_words} so
    the bench can report honest bytes/row under the SoA layout. *)

open Sqlir

type row = Value.t array

type vec =
  | V_int of int array
  | V_float of float array
  | V_str of string array
  | V_bool of bool array
  | V_date of int array  (** day numbers, as in {!Value.Date} *)
  | V_mixed of Value.t array
      (** column with more than one runtime type: values as-is *)

type col = {
  c_vec : vec;
  c_nulls : Bytes.t;  (** null bitmap: bit [i] set = row [i] is NULL *)
}

(** A full-width image: every column of one row array. *)
type t = col array

(* The bitmap is indexed by absolute row id; a byte covers 8 rows. *)
let bitmap_get nb i =
  Char.code (Bytes.unsafe_get nb (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bitmap_set nb i =
  let byte = i lsr 3 in
  Bytes.unsafe_set nb byte
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get nb byte) lor (1 lsl (i land 7))))

let words_of_bytes b = (b + (Sys.word_size / 8) - 1) / (Sys.word_size / 8)

type cls = K_unknown | K_int | K_float | K_str | K_bool | K_date | K_mixed

(* Image of column [j] of [rows]. One classification pass decides the
   vector: a column is typed when every non-null value shares one
   constructor; Int-vs-Float mixes are generic (they compare
   numerically, which the monomorphic loops cannot). Charges its
   payload words — one word per slot (bool and string arrays are
   word-per-element in the OCaml heap; string payloads are shared with
   the rows, not copied) — plus the bitmap. *)
let build_col (rows : row array) (j : int) : col =
  let n = Array.length rows in
  let nb_bytes = (n + 7) / 8 in
  let nulls = Bytes.make nb_bytes '\000' in
  let cls = ref K_unknown in
  for i = 0 to n - 1 do
    let k =
      match Array.unsafe_get (Array.unsafe_get rows i) j with
      | Value.Null -> K_unknown
      | Value.Int _ -> K_int
      | Value.Float _ -> K_float
      | Value.Str _ -> K_str
      | Value.Bool _ -> K_bool
      | Value.Date _ -> K_date
    in
    if k <> K_unknown then
      match !cls with
      | K_unknown -> cls := k
      | c when c = k -> ()
      | _ -> cls := K_mixed
  done;
  let vec =
    match !cls with
    | K_int | K_unknown ->
        (* an all-null column lands here: every bit set, zero slots *)
        let a = Array.make n 0 in
        for i = 0 to n - 1 do
          match rows.(i).(j) with
          | Value.Int x -> Array.unsafe_set a i x
          | _ -> bitmap_set nulls i
        done;
        V_int a
    | K_float ->
        let a = Array.make n 0. in
        for i = 0 to n - 1 do
          match rows.(i).(j) with
          | Value.Float x -> Array.unsafe_set a i x
          | _ -> bitmap_set nulls i
        done;
        V_float a
    | K_str ->
        let a = Array.make n "" in
        for i = 0 to n - 1 do
          match rows.(i).(j) with
          | Value.Str x -> Array.unsafe_set a i x
          | _ -> bitmap_set nulls i
        done;
        V_str a
    | K_bool ->
        let a = Array.make n false in
        for i = 0 to n - 1 do
          match rows.(i).(j) with
          | Value.Bool x -> Array.unsafe_set a i x
          | _ -> bitmap_set nulls i
        done;
        V_bool a
    | K_date ->
        let a = Array.make n 0 in
        for i = 0 to n - 1 do
          match rows.(i).(j) with
          | Value.Date x -> Array.unsafe_set a i x
          | _ -> bitmap_set nulls i
        done;
        V_date a
    | K_mixed ->
        let a = Array.init n (fun i -> rows.(i).(j)) in
        for i = 0 to n - 1 do
          if Value.is_null a.(i) then bitmap_set nulls i
        done;
        V_mixed a
  in
  Meter.charge_vec_alloc (n + words_of_bytes nb_bytes);
  { c_vec = vec; c_nulls = nulls }

(** A full-width image of [rows], every column built at once (tests and
    slow paths; the engine reads relation-owned images through
    {!column}). *)
let of_rows (rows : row array) ~(width : int) : t =
  Array.init width (build_col rows)

let is_null (t : t) ~row ~col = bitmap_get t.(col).c_nulls row

(** Reconstruct the [Value.t] at (row, col) — the roundtrip inverse of
    {!of_rows}, used by tests and slow paths. *)
let get (t : t) ~row ~col : Value.t =
  let c = t.(col) in
  if bitmap_get c.c_nulls row then Value.Null
  else
    match c.c_vec with
    | V_int a -> Value.Int a.(row)
    | V_float a -> Value.Float a.(row)
    | V_str a -> Value.Str a.(row)
    | V_bool a -> Value.Bool a.(row)
    | V_date a -> Value.Date a.(row)
    | V_mixed a -> a.(row)

(* ------------------------------------------------------------------ *)
(* Relation-owned images                                                *)
(* ------------------------------------------------------------------ *)

type Storage.Relation.image += Col of col

(** The image of column [j] of [rel]'s rows [rows] (its current
    [r_rows]), built and published on first use. *)
let column (rel : Storage.Relation.t) (rows : row array) (j : int) : col =
  match
    Storage.Relation.image rel ~rows j ~build:(fun () -> Col (build_col rows j))
  with
  | Col c -> c
  | _ -> assert false
