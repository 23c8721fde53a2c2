(** Row batches and growable row vectors for the block-at-a-time
    executor.

    A {!t} is a block of rows exchanged between operator cursors: the
    producing cursor owns the container and reuses it on every [next]
    call, so a consumer must copy out any row pointers it wants to keep
    before pulling again. The rows themselves ([Value.t array]s) are
    immutable once produced and safe to retain — only the batch
    container is ephemeral. Blocks are {e not} fixed-size: operators
    that already hold their output materialized (pipeline breakers,
    join spill buffers) emit it as a single {!Vec.to_batch} view
    rather than copying it out in capacity-sized chunks, so a block may
    be larger than the pipeline's nominal batch size and consumers must
    size by [len], never by capacity.

    {!Vec} is a growable array of rows used by pipeline breakers (sort,
    group-by, hash-join build sides, limit) and by join output spill
    buffers, replacing the cons lists the previous executor materialized
    at every operator boundary. *)

type row = Sqlir.Value.t array

type t = {
  data : row array;  (** capacity-sized backing store *)
  mutable len : int;  (** number of valid rows, [0 .. Array.length data] *)
}

let create capacity =
  if capacity < 1 then invalid_arg "Batch.create: capacity must be >= 1";
  { data = Array.make capacity [||]; len = 0 }

let capacity b = Array.length b.data
let clear b = b.len <- 0
let is_full b = b.len = Array.length b.data

let add b r =
  b.data.(b.len) <- r;
  b.len <- b.len + 1

let iter f b =
  for i = 0 to b.len - 1 do
    f b.data.(i)
  done

module Vec = struct
  type vec = { mutable vdata : row array; mutable vlen : int }
  type t = vec

  let create ?(cap = 16) () = { vdata = Array.make (max 1 cap) [||]; vlen = 0 }
  let length v = v.vlen
  let get v i = v.vdata.(i)
  let clear v = v.vlen <- 0

  let push v r =
    if v.vlen = Array.length v.vdata then begin
      let grown = Array.make (2 * Array.length v.vdata) [||] in
      Array.blit v.vdata 0 grown 0 v.vlen;
      v.vdata <- grown
    end;
    v.vdata.(v.vlen) <- r;
    v.vlen <- v.vlen + 1

  (** Make room for [n] rows in all: one growth, to at least double the
      capacity, so repeated reserves stay amortized. *)
  let reserve v n =
    if n > Array.length v.vdata then begin
      let grown = Array.make (max n (2 * Array.length v.vdata)) [||] in
      Array.blit v.vdata 0 grown 0 v.vlen;
      v.vdata <- grown
    end

  (** Append rows [data.(0) .. data.(len - 1)] to [v]. *)
  let blit_in v data len =
    reserve v (v.vlen + len);
    Array.blit data 0 v.vdata v.vlen len;
    v.vlen <- v.vlen + len

  (** Append every row of [src] to [v]. *)
  let append v src = blit_in v src.vdata src.vlen

  (** Keep only the first [n] rows (no-op when already shorter). *)
  let truncate v n = if n < v.vlen then v.vlen <- n

  let iter f v =
    for i = 0 to v.vlen - 1 do
      f v.vdata.(i)
    done

  let to_array v = Array.sub v.vdata 0 v.vlen

  let of_array a = { vdata = Array.copy a; vlen = Array.length a }

  (** A batch aliasing the vector's buffer — no copy. The batch shares
      the vector's storage, so it is invalidated by the producer's next
      mutation of the vector; consumers already may not retain a batch
      container across pulls. View batches carry however many rows the
      vector holds, independent of any nominal pipeline capacity —
      consumers only ever read [len]. *)
  let to_batch v = { data = v.vdata; len = v.vlen }
end
