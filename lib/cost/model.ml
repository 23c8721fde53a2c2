(** The cost model.

    Costs are expressed in the same work units the executor's
    {!Exec.Meter} charges, with the same weights. Consequently the
    estimated cost of a plan equals the metered cost the executor would
    charge if every cardinality estimate were exact; estimation error —
    and with it the occasional regression of a cost-based decision — can
    come only from the statistics, which is exactly the situation the
    paper describes (Section 4.2). *)

module M = Exec.Meter

let w_page = M.w_page
let w_row = M.w_row
let w_probe = M.w_probe
let w_entry = M.w_entry
let w_join = M.w_join
let w_hash_build = M.w_hash_build
let w_hash_probe = M.w_hash_probe
let w_cmp = M.w_cmp
let w_agg = M.w_agg
let w_out = M.w_out
let w_expensive = M.w_expensive

let out_tax rows = w_out *. Float.max 0. rows

let table_scan ~pages ~rows ~out =
  (w_page *. pages) +. (w_row *. rows) +. out_tax out

(** One index probe returning [entries] index entries and fetching
    [rows] table rows. *)
let index_probe ~height ~entries ~rows ~out =
  (w_probe *. float_of_int height) +. (w_entry *. entries) +. (w_row *. rows)
  +. out_tax out

let sort ~rows =
  if rows <= 1. then 0. else w_cmp *. rows *. (Float.max 1. (log rows /. log 2.))

let hash_join ~lcost ~rcost ~lrows ~rrows ~pairs ~out =
  lcost +. rcost +. (w_hash_build *. rrows) +. (w_hash_probe *. lrows)
  +. (w_join *. pairs) +. out_tax out

let merge_join ~lcost ~rcost ~lrows ~rrows ~pairs ~out =
  lcost +. rcost +. sort ~rows:lrows +. sort ~rows:rrows +. (w_join *. pairs)
  +. out_tax out

let aggregate ~strategy ~rows ~groups =
  (match strategy with `Hash -> 0. | `Sort -> sort ~rows)
  +. (w_agg *. rows) +. out_tax groups

let distinct ~rows ~groups = (w_hash_build *. rows) +. out_tax groups

let filter ~rows ~out = (w_row *. rows *. 0.1) +. out_tax out

let project ~rows = out_tax rows

let window ~rows = sort ~rows +. (w_agg *. rows) +. out_tax rows

let setop ~lrows ~rrows ~out =
  (w_hash_build *. rrows) +. (w_hash_probe *. lrows) +. out_tax out

(** TIS subquery filter: [execs] cache misses each costing
    [subq_cost], over [rows] candidate rows. *)
let subq_filter ~rows ~execs ~subq_cost ~out =
  (execs *. subq_cost) +. (w_row *. rows *. 0.1) +. out_tax out

let expensive_calls ~calls = w_expensive *. calls

(** Cost of evaluating filter conjuncts over [rows] input rows, with
    short-circuit ordering: cheap conjuncts run first, and each
    expensive (procedural-function) conjunct is charged only for the
    rows surviving the conjuncts before it. The physical optimizer
    orders conjunct lists the same way, so this mirrors execution. *)
let pred_eval_cost ~(rows : float) ~(cheap_sel : float)
    ~(n_expensive : int) : float =
  let base = w_row *. rows *. 0.1 in
  if n_expensive = 0 then base
  else base +. (w_expensive *. rows *. Float.max cheap_sel 0.01
                *. float_of_int n_expensive)
