(** Deterministic pseudo-random number generation for workload
    synthesis (splitmix64). Everything the workload produces — schema,
    data, queries — is a pure function of the seed, so experiments are
    exactly repeatable. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let next_int64 (t : t) : int64 =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Uniform integer in [0, bound). *)
let int (t : t) (bound : int) : int =
  if bound <= 1 then 0
  else
    let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
    v mod bound

(** Uniform integer in [lo, hi] inclusive. *)
let range (t : t) lo hi = lo + int t (hi - lo + 1)

let float (t : t) : float =
  Stdlib.Int64.to_float (Int64.shift_right_logical (next_int64 t) 11)
  /. 9007199254740992.0

let bool (t : t) ~(p : float) = float t < p

let pick (t : t) (xs : 'a list) : 'a = List.nth xs (int t (List.length xs))

(** Pick [k] distinct elements (k <= length). *)
let sample (t : t) (k : int) (xs : 'a list) : 'a list =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let k = min k n in
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list (Array.sub arr 0 k)

(** Zipf-ish skewed integer in [0, bound): low values more frequent. *)
let skewed (t : t) (bound : int) : int =
  let u = float t in
  let v = int_of_float (float_of_int bound *. u *. u) in
  min (bound - 1) v
