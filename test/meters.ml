(* Golden meter corpus: one line per plan over a fixed set of generated
   queries, compared by a dune [diff] rule against [meters.expected].

   Every query class of {!Workload.Query_gen} is generated at fixed
   seeds and optimized twice: serially against an unpartitioned
   database, and with [Parallel.apply ~dop:(Fixed 2)] against a 4-way
   partitioned one. Each plan runs on the row engine; the line records
   the plan digest, the row count, an order-sensitive digest of the
   rows and the meter fields. The same plan is re-run at batch size 1
   and under analyze mode, and the line is flagged if either disagrees,
   so a charge that depends on the code path also shows as drift.

   Any change to a meter's semantics — in every engine at once, which
   the engine-parity tests cannot see — changes this output.
   Accept an intended change with [dune promote]. *)

module QG = Workload.Query_gen
module SG = Workload.Schema_gen
module D = Cbqt.Driver
module X = Exec.Executor
module V = Sqlir.Value

let mk parts =
  SG.build ~families:2 ~sample_frac:0.5 ~row_scale:0.08 ~partitions:parts
    ~seed:11 ()

let classes =
  [
    QG.C_spj; QG.C_exists; QG.C_not_exists; QG.C_in_multi; QG.C_not_in;
    QG.C_agg_subq; QG.C_gb_view; QG.C_distinct_view; QG.C_union_factor;
    QG.C_gbp; QG.C_or; QG.C_setop; QG.C_pullup;
  ]

let seeds = List.init 12 (fun i -> i + 1)

(* floats in hex so the digest sees every bit *)
let value_str = function
  | V.Null -> "N"
  | V.Int n -> "I" ^ string_of_int n
  | V.Float f -> Printf.sprintf "F%h" f
  | V.Str s -> "S" ^ String.escaped s
  | V.Bool b -> if b then "T" else "F"
  | V.Date d -> "D" ^ string_of_int d

let rows_digest rows =
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      Array.iter
        (fun v ->
          Buffer.add_string b (value_str v);
          Buffer.add_char b '|')
        r;
      Buffer.add_char b '\n')
    rows;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 12

let fields fs =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) fs)

let line tag db plan =
  let run ?batch_size () =
    let _, rows, m = X.execute ?batch_size ~engine:X.Row db plan in
    (rows, Exec.Meter.to_fields m)
  in
  let rows, m = run () in
  let _, arows, am, _ = X.execute_analyzed ~engine:X.Row db plan in
  let flags =
    (if run ~batch_size:1 () <> (rows, m) then " BATCH1-DIFFERS" else "")
    ^
    if (arows, Exec.Meter.to_fields am) <> (rows, m) then " ANALYZE-DIFFERS"
    else ""
  in
  Printf.printf "%s plan=%s rows=%d digest=%s %s%s\n" tag
    (String.sub (Exec.Plan.fingerprint plan) 0 12)
    (List.length rows) (rows_digest rows) (fields m) flags

let () =
  let db0, schema = mk 0 in
  let db4, _ = mk 4 in
  List.iter
    (fun cls ->
      List.iter
        (fun seed ->
          let q = QG.generate (QG.create ~seed schema) cls in
          let tag par = Printf.sprintf "%s/%d/%s" (QG.class_name cls) seed par in
          List.iter
            (fun (par, db, place) ->
              let cat = db.Storage.Db.cat in
              match (D.optimize cat q).D.res_annotation.Planner.Annotation.an_plan with
              | exception e ->
                  Printf.printf "%s optimize-error %s\n" (tag par)
                    (Printexc.to_string e)
              | plan -> line (tag par) db (place cat plan))
            [
              ("serial", db0, fun _ p -> p);
              ( "dop2",
                db4,
                fun cat p -> Planner.Parallel.apply cat ~dop:(Planner.Parallel.Fixed 2) p );
            ])
        seeds)
    classes
