(** Degree-of-parallelism post-pass.

    Runs {e after} the cost-based optimizer has settled the plan shape:
    it finds partition-local regions — chains of filters over one
    partitioned scan, co-located hash joins of two identically
    partitioned tables, hash aggregations over such regions — and wraps
    them in {!Exec.Plan.Exchange} operators, splitting aggregations
    into partial/final pairs so each domain aggregates its own
    partitions and only accumulator-state rows cross the exchange.

    The pass is shape-preserving outside the rewritten regions and
    never rewrites inside a nested-loop inner side (the exchange would
    re-spawn domains per probe row) or inside subquery plans (an
    enclosing exchange task restriction must not leak into them —
    [PL009]).

    Degree choice: [Serial] leaves the plan untouched; [Fixed n] wraps
    every eligible region at exactly [n] (including [n = 1], which is
    how the determinism tests pin the exchange path itself);
    [Auto] parallelizes only regions whose estimated scanned rows clear
    {!startup_rows} — below that, domain startup dominates — at a
    degree clamped by [Domain.recommended_domain_count]. *)

open Sqlir
module A = Ast
module Plan = Exec.Plan

type dop = Serial | Fixed of int | Auto

let dop_to_string = function
  | Serial -> "serial"
  | Fixed n -> string_of_int n
  | Auto -> "auto"

let dop_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "serial" | "0" -> Some Serial
  | "auto" -> Some Auto
  | s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> Some (Fixed n)
      | _ -> None)

(** Estimated scanned rows below which [Auto] keeps a region serial:
    the fan-out has a fixed cost per execution, worth paying only when
    each worker has real scan work. Measured on a 2-core x86-64 host,
    [Exchange.run_tasks] at dop 2 over 8 trivial tasks cost 95-330 us
    per call when it spawned and joined fresh domains every time, and
    costs 1-3 us with the persistent helper pool. The threshold has
    not been recalibrated to the lower cost. *)
let startup_rows = 8_192.

let clamp n = max 1 (min n (Domain.recommended_domain_count ()))

(* ------------------------------------------------------------------ *)
(* Partition-local regions                                              *)
(* ------------------------------------------------------------------ *)

type chain = {
  ch_plan : Plan.t;  (* scan converted to Part_scan *)
  ch_spec : Catalog.part_spec;
  ch_alias : string;
  ch_table : string;
  ch_prune : Plan.prune;
}

(** A partition-local chain: filters over exactly one scan of a
    partitioned table. Converts a [Table_scan] to a [Part_scan] with
    the prune spec derived from its own filter. *)
let rec chain_of (cat : Catalog.t) (p : Plan.t) : chain option =
  match p with
  | Plan.Table_scan { table; alias; filter } ->
      Option.map
        (fun ps ->
          let prune = Access_path.derive_prune ps ~alias filter in
          {
            ch_plan = Plan.Part_scan { table; alias; filter; prune };
            ch_spec = ps;
            ch_alias = alias;
            ch_table = table;
            ch_prune = prune;
          })
        (Catalog.part_spec cat table)
  | Plan.Part_scan { table; alias; prune; _ } ->
      Option.map
        (fun ps ->
          {
            ch_plan = p;
            ch_spec = ps;
            ch_alias = alias;
            ch_table = table;
            ch_prune = prune;
          })
        (Catalog.part_spec cat table)
  | Plan.Filter { child; preds } ->
      Option.map
        (fun ch -> { ch with ch_plan = Plan.Filter { child = ch.ch_plan; preds } })
        (chain_of cat child)
  | _ -> None

let spec_eq (a : Catalog.part_spec) (b : Catalog.part_spec) =
  a.Catalog.ps_scheme = b.Catalog.ps_scheme
  && a.Catalog.ps_n = b.Catalog.ps_n
  && a.Catalog.ps_bounds = b.Catalog.ps_bounds

(** Do [cond]'s conjuncts equate the two partition keys? Required for a
    co-located join: only then is every matching pair confined to one
    partition index. *)
let keys_equated ~(l : chain) ~(r : chain) (cond : A.pred list) : bool =
  let is c alias key =
    String.equal c.A.c_alias alias && String.equal c.A.c_col key
  in
  let lk = l.ch_spec.Catalog.ps_col and rk = r.ch_spec.Catalog.ps_col in
  List.exists
    (fun p ->
      match p with
      | A.Cmp (A.Eq, A.Col a, A.Col b) ->
          (is a l.ch_alias lk && is b r.ch_alias rk)
          || (is a r.ch_alias rk && is b l.ch_alias lk)
      | _ -> false)
    cond

(** Estimated rows the region will scan (the parallel work volume),
    honouring the statically estimable part of the prune spec. *)
let scanned_rows (cat : Catalog.t) (ch : chain) : float =
  let _, rows, _ =
    Access_path.prune_estimate cat ch.ch_spec ~table:ch.ch_table ch.ch_prune
  in
  Float.max rows 0.

(* ------------------------------------------------------------------ *)
(* The rewrite                                                          *)
(* ------------------------------------------------------------------ *)

(** [apply cat ~dop plan] — wrap eligible partition-local regions in
    exchanges at the requested degree. *)
let apply (cat : Catalog.t) ~(dop : dop) (plan : Plan.t) : Plan.t =
  match dop with
  | Serial -> plan
  | _ ->
      let degree ~rows =
        match dop with
        | Serial -> None
        | Fixed n -> Some (clamp n)
        | Auto ->
            let d = clamp max_int in
            if d >= 2 && rows >= startup_rows then Some d else None
      in
      (* wrap a region if the degree gate passes *)
      let wrap ~rows child =
        match degree ~rows with
        | Some d -> Some (Plan.Exchange { child; dop = d })
        | None -> None
      in
      let rec go (p : Plan.t) : Plan.t =
        match chain_of cat p with
        | Some ch -> (
            match wrap ~rows:(scanned_rows cat ch) ch.ch_plan with
            | Some e -> e
            | None -> p)
        | None -> (
            match p with
            | Plan.Aggregate { child; strategy = `Hash; alias; keys; aggs }
              when List.for_all (fun (_, _, _, d) -> not d) aggs -> (
                (* two-phase split: domains aggregate their own
                   partitions, only state rows cross the exchange *)
                match chain_of cat child with
                | Some ch -> (
                    let paggs =
                      List.map (fun (n, a, e, _) -> (n, a, e)) aggs
                    in
                    let partial =
                      Plan.Partial_agg
                        { child = ch.ch_plan; alias; keys; aggs = paggs }
                    in
                    match wrap ~rows:(scanned_rows cat ch) partial with
                    | Some e ->
                        Plan.Final_agg
                          {
                            child = e;
                            alias;
                            keys = List.map snd keys;
                            aggs = List.map (fun (n, a, _, _) -> (n, a)) aggs;
                          }
                    | None -> p)
                | None ->
                    let c' = go child in
                    if c' == child then p
                    else
                      Plan.Aggregate
                        { child = c'; strategy = `Hash; alias; keys; aggs })
            | Plan.Join { meth = Plan.Hash; role; left; right; cond }
              when role <> Plan.Anti_na -> (
                (* co-located partitioned hash join: both sides
                   identically partitioned and the join equates the
                   partition keys, so restricting both sides to the
                   same partition index loses no pairs ([Anti_na] is
                   excluded: a NULL key must see every partition) *)
                match (chain_of cat left, chain_of cat right) with
                | Some l, Some r
                  when spec_eq l.ch_spec r.ch_spec && keys_equated ~l ~r cond
                  -> (
                    let joined =
                      Plan.Join
                        {
                          meth = Plan.Hash;
                          role;
                          left = l.ch_plan;
                          right = r.ch_plan;
                          cond;
                        }
                    in
                    let rows =
                      scanned_rows cat l +. scanned_rows cat r
                    in
                    match wrap ~rows joined with
                    | Some e -> e
                    | None -> p)
                | _ ->
                    let l' = go left and r' = go right in
                    if l' == left && r' == right then p
                    else
                      Plan.Join
                        {
                          meth = Plan.Hash;
                          role;
                          left = l';
                          right = r';
                          cond;
                        })
            | Plan.Join { meth; role; left; right; cond } ->
                (* a nested-loop inner side re-executes per probe row —
                   never put an exchange there *)
                let right' =
                  match meth with
                  | Plan.Nested_loop -> right
                  | Plan.Hash | Plan.Merge -> go right
                in
                let left' = go left in
                if left' == left && right' == right then p
                else
                  Plan.Join { meth; role; left = left'; right = right'; cond }
            | Plan.Filter { child; preds } ->
                let c' = go child in
                if c' == child then p else Plan.Filter { child = c'; preds }
            | Plan.Subq_filter { child; preds } ->
                (* subquery plans stay serial: an enclosing exchange
                   restriction must never apply inside them *)
                let c' = go child in
                if c' == child then p
                else Plan.Subq_filter { child = c'; preds }
            | Plan.Project { child; alias; items } ->
                let c' = go child in
                if c' == child then p
                else Plan.Project { child = c'; alias; items }
            | Plan.Aggregate { child; strategy; alias; keys; aggs } ->
                let c' = go child in
                if c' == child then p
                else Plan.Aggregate { child = c'; strategy; alias; keys; aggs }
            | Plan.Window { child; alias; wins } ->
                let c' = go child in
                if c' == child then p
                else Plan.Window { child = c'; alias; wins }
            | Plan.Distinct child ->
                let c' = go child in
                if c' == child then p else Plan.Distinct c'
            | Plan.Sort { child; keys } ->
                let c' = go child in
                if c' == child then p else Plan.Sort { child = c'; keys }
            | Plan.Limit { child; n } ->
                let c' = go child in
                if c' == child then p else Plan.Limit { child = c'; n }
            | Plan.Limit_filter { child; preds; n } ->
                let c' = go child in
                if c' == child then p
                else Plan.Limit_filter { child = c'; preds; n }
            | Plan.Union_all children ->
                let cs' = List.map go children in
                if List.for_all2 ( == ) cs' children then p
                else Plan.Union_all cs'
            | Plan.Setop_exec { op; left; right } ->
                let l' = go left and r' = go right in
                if l' == left && r' == right then p
                else Plan.Setop_exec { op; left = l'; right = r' }
            | Plan.Table_scan _ | Plan.Part_scan _ | Plan.Index_scan _
            | Plan.Exchange _ | Plan.Partial_agg _ | Plan.Final_agg _ ->
                (* unpartitioned scans; already-parallel regions *)
                p)
      in
      go plan
