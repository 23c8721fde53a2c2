(** In-memory heap relations.

    A relation is a named array of tuples with a flat column schema.
    Page counts are derived from row counts with the catalog's
    rows-per-page constant so that the cost model can charge I/O-like
    units for full scans. *)

type tuple = Sqlir.Value.t array

(** Physical partitioning of a relation. Rather than [ps_n] separate row
    arrays, the partitions are contiguous {e slices} of the one
    [r_rows] array: partition [i] occupies rows
    [p_offsets.(i) .. p_offsets.(i+1) - 1] ([ps_n + 1] offsets, first 0,
    last = cardinality). One array keeps every existing consumer of
    [r_rows] (B-tree rowids, the columnar loader, the baseline engine)
    working unchanged, while a partition-parallel scan is a pair of
    bounds per domain. *)
type part = {
  p_spec : Catalog.part_spec;
  p_key : int;  (** column index of the partition key *)
  p_offsets : int array;
}

(** A per-column image derived from the rows — the columnar engine's
    typed vectors. The storage layer only owns and publishes images;
    the layer that builds them adds its constructor to this type. *)
type image = ..

(* The images of one row array, one lazily built slot per column. *)
type images = { im_rows : tuple array; im_cols : image option Atomic.t array }

type t = {
  r_name : string;
  r_schema : string array;
  mutable r_rows : tuple array;
  mutable r_part : part option;
  r_images : images Atomic.t;
}

let no_images = { im_rows = [||]; im_cols = [||] }

let of_arrays ~name ~schema rows =
  {
    r_name = name;
    r_schema = schema;
    r_rows = rows;
    r_part = None;
    r_images = Atomic.make no_images;
  }

let create ~name ~schema rows =
  of_arrays ~name ~schema:(Array.of_list schema) (Array.of_list rows)

let cardinality r = Array.length r.r_rows

let pages r =
  max 1
    ((cardinality r + Catalog.rows_per_page - 1) / Catalog.rows_per_page)

let col_index r col =
  let rec go i =
    if i >= Array.length r.r_schema then
      invalid_arg
        (Printf.sprintf "Relation.col_index: %s has no column %s" r.r_name col)
    else if String.equal r.r_schema.(i) col then i
    else go (i + 1)
  in
  go 0

let get r ~row ~col = r.r_rows.(row).(col_index r col)

let iter f r = Array.iter f r.r_rows
let iteri f r = Array.iteri f r.r_rows

(* ------------------------------------------------------------------ *)
(* Per-column images                                                    *)
(* ------------------------------------------------------------------ *)

(** The image of column [col] of [rows], built by [build] on first use.
    Images are immutable and published atomically, so any domain may
    read them and a racing second build is simply discarded. They are
    kept for the current [r_rows] array only: a mutation installs a
    fresh array and drops them, and a [rows] that is no longer current
    gets an unpublished image. They live and die with the relation. *)
let rec image r ~(rows : tuple array) col ~(build : unit -> image) : image =
  if col < 0 || col >= Array.length r.r_schema then
    invalid_arg "Relation.image: column out of range";
  let im = Atomic.get r.r_images in
  if im.im_rows == rows && Array.length im.im_cols > 0 then begin
    let slot = im.im_cols.(col) in
    match Atomic.get slot with
    | Some i -> i
    | None ->
        let i = build () in
        if Atomic.compare_and_set slot None (Some i) then i
        else Option.get (Atomic.get slot)
  end
  else if rows == r.r_rows then begin
    let fresh =
      {
        im_rows = rows;
        im_cols =
          Array.init (Array.length r.r_schema) (fun _ -> Atomic.make None);
      }
    in
    ignore (Atomic.compare_and_set r.r_images im fresh);
    image r ~rows col ~build
  end
  else build ()

(* ------------------------------------------------------------------ *)
(* Partitioning                                                         *)
(* ------------------------------------------------------------------ *)

let partitioned r = r.r_part <> None
let part r = r.r_part

(** Number of partitions (1 when unpartitioned). *)
let part_count r = match r.r_part with None -> 1 | Some p -> p.p_spec.ps_n

(** Row-index bounds [(lo, hi)] of partition [i] — [hi] exclusive. The
    whole relation when unpartitioned (so callers can treat every table
    as having at least partition 0). *)
let part_bounds r i =
  match r.r_part with
  | None ->
      if i <> 0 then invalid_arg "Relation.part_bounds: unpartitioned";
      (0, Array.length r.r_rows)
  | Some p ->
      if i < 0 || i >= p.p_spec.ps_n then
        invalid_arg "Relation.part_bounds: partition out of range";
      (p.p_offsets.(i), p.p_offsets.(i + 1))

let part_rows r i =
  let lo, hi = part_bounds r i in
  hi - lo

(** Page count of partition [i]: its own ceiling, so a table's charged
    pages under partition-wise access is the {e sum of per-partition
    ceilings} — slightly above the unpartitioned ceiling when partitions
    have ragged tails, exactly like real segmented storage. *)
let part_pages r i =
  max 1 ((part_rows r i + Catalog.rows_per_page - 1) / Catalog.rows_per_page)

(** Partition [v] routes to (0 when unpartitioned). *)
let route r (v : Sqlir.Value.t) =
  match r.r_part with None -> 0 | Some p -> Catalog.part_route p.p_spec v

(** Reorder [r]'s rows into partition-contiguous layout under [spec].
    The reorder is {e stable}: within a partition, rows keep their
    original relative order, so a full scan in ascending-partition order
    is a permutation fixed once at partition time and identical for
    every later execution. Existing B-tree rowids are invalidated — the
    caller ({!Db.partition_table}) rebuilds the indexes. *)
let partition r (spec : Catalog.part_spec) =
  let key = col_index r spec.ps_col in
  let n = spec.ps_n in
  let counts = Array.make n 0 in
  Array.iter
    (fun tup ->
      let p = Catalog.part_route spec tup.(key) in
      counts.(p) <- counts.(p) + 1)
    r.r_rows;
  let offsets = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    offsets.(i + 1) <- offsets.(i) + counts.(i)
  done;
  let cursor = Array.copy offsets in
  let dst =
    if Array.length r.r_rows = 0 then [||]
    else Array.make (Array.length r.r_rows) r.r_rows.(0)
  in
  Array.iter
    (fun tup ->
      let p = Catalog.part_route spec tup.(key) in
      dst.(cursor.(p)) <- tup;
      cursor.(p) <- cursor.(p) + 1)
    r.r_rows;
  r.r_rows <- dst;
  Atomic.set r.r_images no_images;
  r.r_part <- Some { p_spec = spec; p_key = key; p_offsets = offsets }

(** Append a tuple. Partitioned relations stay partition-contiguous:
    the row is spliced into the end of its home partition and the
    offsets of every later partition shift by one. Like the
    unpartitioned append, this moves [r_rows] to a fresh array and
    drops the column images of the old one; it leaves any B-tree rowids
    to the caller. *)
let append r tup =
  Atomic.set r.r_images no_images;
  match r.r_part with
  | None -> r.r_rows <- Array.append r.r_rows [| tup |]
  | Some p ->
      let home = Catalog.part_route p.p_spec tup.(p.p_key) in
      let at = p.p_offsets.(home + 1) in
      let n = Array.length r.r_rows in
      let dst = Array.make (n + 1) tup in
      Array.blit r.r_rows 0 dst 0 at;
      Array.blit r.r_rows at dst (at + 1) (n - at);
      r.r_rows <- dst;
      for i = home + 1 to p.p_spec.ps_n do
        p.p_offsets.(i) <- p.p_offsets.(i) + 1
      done
