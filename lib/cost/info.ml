(** Optimizer-visible data properties: per-column info and per-relation
    info flowing through plan construction.

    [rel_info] describes any row source — a base table, an intermediate
    join result, or a view output — by its estimated cardinality and the
    statistics of each visible (alias, column). Derived from catalog
    statistics for base tables and propagated through operators by the
    estimator. *)

open Sqlir

type colinfo = {
  ci_ndv : float;  (** distinct non-null values *)
  ci_null_frac : float;  (** fraction of NULLs *)
  ci_min : Value.t;
  ci_max : Value.t;
}

let default_colinfo =
  { ci_ndv = 10.; ci_null_frac = 0.0; ci_min = Value.Null; ci_max = Value.Null }

type rel_info = {
  ri_rows : float;
  ri_cols : ((string * string) * colinfo) list;  (** keyed by (alias, col) *)
}

let empty = { ri_rows = 1.; ri_cols = [] }

(** The first entry for column [c], matched with [String.equal] on the
    column name first (the more selective key) and then the alias. *)
let find_col info (c : Ast.col) =
  let rec go = function
    | [] -> None
    | ((alias, col), ci) :: rest ->
        if String.equal col c.Ast.c_col && String.equal alias c.Ast.c_alias
        then Some ci
        else go rest
  in
  go info.ri_cols

(** Column info of an expression, when it is a bare column with known
    statistics. *)
let expr_colinfo info = function Ast.Col c -> find_col info c | _ -> None

(** Build the [rel_info] of base table [table] bound to [alias], from
    catalog statistics; falls back to guesses when statistics are
    missing (the optimizer's classic failure mode). *)
let of_table (cat : Catalog.t) ~table ~alias : rel_info =
  let def = Catalog.find_table cat table in
  match Catalog.stats cat table with
  | None ->
      let rows = 1000. in
      {
        ri_rows = rows;
        ri_cols =
          List.map
            (fun c ->
              ((alias, c.Catalog.c_name), { default_colinfo with ci_ndv = 100. }))
            def.t_cols;
      }
  | Some s ->
      let rows = float_of_int (max 1 s.s_rows) in
      {
        ri_rows = rows;
        ri_cols =
          List.map
            (fun c ->
              let ci =
                match List.assoc_opt c.Catalog.c_name s.s_cols with
                | None -> default_colinfo
                | Some cs ->
                    {
                      ci_ndv = float_of_int (max 1 cs.s_ndv);
                      ci_null_frac =
                        (if s.s_rows = 0 then 0.
                         else float_of_int cs.s_nulls /. rows);
                      ci_min = cs.s_min;
                      ci_max = cs.s_max;
                    }
              in
              ((alias, c.Catalog.c_name), ci))
            def.t_cols;
      }

(** Combine two sides of a join into the info of the join result. *)
let join ~rows (a : rel_info) (b : rel_info) : rel_info =
  let cap ci = { ci with ci_ndv = Float.min ci.ci_ndv rows } in
  {
    ri_rows = rows;
    ri_cols = List.map (fun (k, ci) -> (k, cap ci)) (a.ri_cols @ b.ri_cols);
  }

(** Apply a filter factor to a relation, scaling NDVs down with the
    usual (1 - (1 - 1/ndv)^kept) ≈ min(ndv, rows) approximation. *)
let filter ~sel (info : rel_info) : rel_info =
  let rows = Float.max 1. (info.ri_rows *. sel) in
  {
    ri_rows = rows;
    ri_cols =
      List.map
        (fun (k, ci) -> (k, { ci with ci_ndv = Float.min ci.ci_ndv rows }))
        info.ri_cols;
  }

(** Info of a projection output: each item is (output name, info of the
    projected expression). Used for view outputs and aggregate results. *)
let project ~alias ~rows (items : (string * colinfo) list) : rel_info =
  {
    ri_rows = rows;
    ri_cols =
      List.map
        (fun (name, ci) ->
          ((alias, name), { ci with ci_ndv = Float.min ci.ci_ndv rows }))
        items;
  }
