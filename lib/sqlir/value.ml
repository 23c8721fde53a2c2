(** SQL values and their three-valued-logic semantics.

    Dates are represented as a day number (days since an arbitrary epoch);
    this is enough to express range predicates such as
    [j.start_date > '19980101'] from the paper's running examples. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Date of int  (** days since epoch *)

type ty = T_int | T_float | T_str | T_bool | T_date

let ty_name = function
  | T_int -> "int"
  | T_float -> "float"
  | T_str -> "varchar"
  | T_bool -> "bool"
  | T_date -> "date"

let is_null = function Null -> true | _ -> false

(** Total order used by sort operators, B-tree indexes and group-by
    bucketing. Nulls sort last (Oracle default for ascending order).
    Numeric values compare across [Int]/[Float]. *)
let compare_total (a : t) (b : t) : int =
  let rank = function
    | Int _ | Float _ -> 0
    | Str _ -> 1
    | Bool _ -> 2
    | Date _ -> 3
    | Null -> 4
  in
  match (a, b) with
  | Null, Null -> 0
  | Null, _ -> 1
  | _, Null -> -1
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | Int x, Float y -> Stdlib.compare (float_of_int x) y
  | Float x, Int y -> Stdlib.compare x (float_of_int y)
  | Str x, Str y -> Stdlib.compare x y
  | Bool x, Bool y -> Stdlib.compare x y
  | Date x, Date y -> Stdlib.compare x y
  | x, y -> Stdlib.compare (rank x) (rank y)

(** SQL comparison: [None] is the SQL UNKNOWN truth value. *)
let compare_sql (a : t) (b : t) : int option =
  match (a, b) with
  | Null, _ | _, Null -> None
  | _ -> Some (compare_total a b)

(** Equality under GROUP BY / DISTINCT / set-operator semantics, where
    NULL matches NULL (the paper contrasts this with join semantics in
    Section 2.2.7). *)
let equal_grouping a b = compare_total a b = 0

(** Hash consistent with {!compare_total}'s equality: values that
    compare equal hash equal — in particular [Int n] and the [Float]
    carrying its exact image land in one bucket. Integers within the
    exactly-representable float range (|v| < 2^53, i.e. all realistic
    data) hash by integer mixing with no float boxing; anything larger
    falls back to hashing through the float image, which is the value
    both sides of a cross-type equality collapse to. *)
let hash_total (v : t) : int =
  let exact = 0x20000000000000 (* 2^53 *) in
  let mix_int x =
    let h = x * 0x9E3779B1 in
    (h lxor (h lsr 16)) land max_int
  in
  match v with
  | Int x ->
      if x > -exact && x < exact then mix_int x
      else Hashtbl.hash (float_of_int x)
  | Float f ->
      if Float.is_integer f && Float.abs f < 9007199254740992. then
        mix_int (int_of_float f)
      else Hashtbl.hash f
  | Str s -> Hashtbl.hash s
  | Bool b -> 0x9e3779b9 lxor Hashtbl.hash b
  | Date d -> 0x7f4a7c15 lxor Hashtbl.hash d
  | Null -> 0x2b5f0b5d

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Date d -> Some (float_of_int d)
  | _ -> None

(* Arithmetic: any operation involving NULL yields NULL; integer
   arithmetic stays integral except division, which promotes. *)
let arith op a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> (
      match op with
      | `Add -> Int (x + y)
      | `Sub -> Int (x - y)
      | `Mul -> Int (x * y)
      | `Div -> if y = 0 then Null else Float (float_of_int x /. float_of_int y))
  | _ -> (
      match (to_float a, to_float b) with
      | Some x, Some y -> (
          match op with
          | `Add -> Float (x +. y)
          | `Sub -> Float (x -. y)
          | `Mul -> Float (x *. y)
          | `Div -> if y = 0.0 then Null else Float (x /. y))
      | _ -> Null)

let neg = function
  | Int i -> Int (-i)
  | Float f -> Float (-.f)
  | Date _ | Str _ | Bool _ -> Null
  | Null -> Null

let pp ppf = function
  | Null -> Fmt.string ppf "NULL"
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.pf ppf "%g" f
  | Str s -> Fmt.pf ppf "'%s'" s
  | Bool b -> Fmt.pf ppf "%B" b
  | Date d -> Fmt.pf ppf "DATE(%d)" d

let to_string v = Fmt.str "%a" pp v
