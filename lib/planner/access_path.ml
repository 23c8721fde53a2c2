(** Access-path selection and single-step join extension.

    FROM entries are analysed into {!entry} values (with views already
    costed into an {!Annotation.t} by {!Block_cost}); this module
    chooses the physical access path for a table entry (full scan vs.
    B-tree index probe), builds the initial single-entry partial plans,
    and extends a partial plan by one entry with every applicable join
    method (nested loops per access path, hash, sort-merge). The join
    {e order} search over these building blocks lives in {!Join_enum}. *)

open Sqlir
module A = Ast
module Info = Cost.Info
module Sel = Cost.Selectivity
module Model = Cost.Model
module Plan = Exec.Plan
module Sset = Walk.Sset
module Ctx = Opt_ctx

type entry = {
  e_idx : int;
  e_alias : string;
  e_kind : A.jkind;
  e_cond : A.pred list;  (* ON conjuncts for non-inner roles *)
  e_source : esource;
  e_info : Info.rel_info;  (* raw (pre-filter) info, bound to e_alias *)
  e_rows : float;
  e_single : A.pred list;  (* WHERE conjuncts local to this alias *)
  e_single_sel : float;
  e_prereq : Sset.t;  (* local aliases that must precede this entry *)
}

and esource =
  | E_table of string
  | E_view of Annotation.t * bool  (* annotation, correlated? *)

type partial = {
  p_set : int;
  p_aliases : Sset.t;
  p_plan : Plan.t;
  p_cost : float;
  p_rows : float;
  p_info : Info.rel_info;
}

let bit i = 1 lsl i

(** Equality bindings available for [e]: (column of e, binding expr)
    pairs where the binding does not reference [e] itself and references
    only aliases in [avail] (or outer scopes). *)
let eq_bindings ~(local : Sset.t) ~(avail : Sset.t) ~(alias : string)
    (preds : A.pred list) : (string * A.expr) list =
  List.filter_map
    (fun p ->
      match p with
      | A.Cmp (A.Eq, A.Col c, rhs)
        when String.equal c.A.c_alias alias
             && (not (Sset.mem alias (Walk.expr_aliases rhs)))
             && Sset.subset (Sset.inter (Walk.expr_aliases rhs) local) avail ->
          Some (c.A.c_col, rhs)
      | A.Cmp (A.Eq, rhs, A.Col c)
        when String.equal c.A.c_alias alias
             && (not (Sset.mem alias (Walk.expr_aliases rhs)))
             && Sset.subset (Sset.inter (Walk.expr_aliases rhs) local) avail ->
          Some (c.A.c_col, rhs)
      | _ -> None)
    preds

(** The predicates consumed by binding [cols] via the index prefix. *)
let consumed_preds ~alias (cols : string list) (preds : A.pred list) :
    A.pred list * A.pred list =
  List.partition
    (fun p ->
      match p with
      | A.Cmp (A.Eq, A.Col c, rhs) | A.Cmp (A.Eq, rhs, A.Col c) ->
          String.equal c.A.c_alias alias
          && List.mem c.A.c_col cols
          && not (Sset.mem alias (Walk.expr_aliases rhs))
      | _ -> false)
    preds

(* ------------------------------------------------------------------ *)
(* Partition pruning                                                    *)
(* ------------------------------------------------------------------ *)

(** Plan-time prune derivation: fold the scan's conjuncts on the
    partition key into a {!Plan.prune} spec. Operands are restricted to
    constants and binds — only those can be routed to a partition at
    cursor-open time (a correlated column has no value yet). The
    originating conjuncts always stay in the scan filter, which is what
    makes the pruning provably disjoint ([PL008]). *)
let derive_prune (ps : Catalog.part_spec) ~(alias : string)
    (preds : A.pred list) : Plan.prune =
  let key e =
    match e with
    | A.Col { A.c_alias; c_col } ->
        String.equal c_alias alias && String.equal c_col ps.Catalog.ps_col
    | _ -> false
  in
  let routable e =
    match e with A.Const _ | A.Bind _ -> true | _ -> false
  in
  let eq =
    List.find_map
      (fun p ->
        match p with
        | A.Cmp (A.Eq, l, r) when key l && routable r -> Some r
        | A.Cmp (A.Eq, l, r) when key r && routable l -> Some l
        | _ -> None)
      preds
  in
  match eq with
  | Some e -> Plan.Pr_eq e
  | None ->
      if ps.Catalog.ps_scheme <> `Range then Plan.Pr_none
        (* hash partitions carry no order: only equality prunes *)
      else begin
        let lo = ref Plan.R_unbounded and hi = ref Plan.R_unbounded in
        let set r b =
          match !r with Plan.R_unbounded -> r := b | _ -> ()
        in
        List.iter
          (fun p ->
            match p with
            | A.Cmp (A.Ge, l, r) when key l && routable r ->
                set lo (Plan.R_incl r)
            | A.Cmp (A.Gt, l, r) when key l && routable r ->
                set lo (Plan.R_excl r)
            | A.Cmp (A.Le, l, r) when key l && routable r ->
                set hi (Plan.R_incl r)
            | A.Cmp (A.Lt, l, r) when key l && routable r ->
                set hi (Plan.R_excl r)
            | A.Cmp (A.Ge, l, r) when key r && routable l ->
                set hi (Plan.R_incl l)
            | A.Cmp (A.Gt, l, r) when key r && routable l ->
                set hi (Plan.R_excl l)
            | A.Cmp (A.Le, l, r) when key r && routable l ->
                set lo (Plan.R_incl l)
            | A.Cmp (A.Lt, l, r) when key r && routable l ->
                set lo (Plan.R_excl l)
            | A.Between (e, b1, b2) when key e && routable b1 && routable b2
              ->
                set lo (Plan.R_incl b1);
                set hi (Plan.R_incl b2)
            | _ -> ())
          preds;
        match (!lo, !hi) with
        | Plan.R_unbounded, Plan.R_unbounded -> Plan.Pr_none
        | lo, hi -> Plan.Pr_range (lo, hi)
      end

(** Statically estimated pruning outcome: surviving partition count and
    their summed rows and page ceilings. Bind peeks stand in for the
    runtime values, so a prepared query is costed with the values of
    its first binding — the classic peeked-bind gamble. *)
let prune_estimate (cat : Catalog.t) (ps : Catalog.part_spec)
    ~(table : string) (prune : Plan.prune) : int * float * float =
  let surv =
    Exec.Prune.survivors ~value_of:(Exec.Prune.value_of ~binds:[||]) ps prune
  in
  let total_rows =
    match Catalog.stats cat table with
    | Some s -> float_of_int s.Catalog.s_rows
    | None -> float_of_int (ps.Catalog.ps_n * Catalog.rows_per_page)
  in
  let pstats = Catalog.part_stats cat table in
  let rows_of i =
    match pstats with
    | Some a when i < Array.length a -> float_of_int a.(i).Catalog.pp_rows
    | _ -> total_rows /. float_of_int ps.Catalog.ps_n
  in
  let rows = List.fold_left (fun acc i -> acc +. rows_of i) 0. surv in
  let pages =
    List.fold_left
      (fun acc i ->
        acc
        +. Float.max 1.
             (ceil (rows_of i /. float_of_int Catalog.rows_per_page)))
      0. surv
  in
  (List.length surv, rows, pages)

(** Best access path for table entry [e], given available bindings from
    [avail] aliases (join side) and its single-table predicates.
    Returns (plan, per-execution cost, output rows, consumed preds). *)
let table_access_path (t : Ctx.t) ~env ~(local : Sset.t) ~(avail : Sset.t)
    (e : entry) ~table ~(extra_preds : A.pred list) :
    (Plan.t * float * float * A.pred list) list =
  let alias = e.e_alias in
  let all_preds = e.e_single @ extra_preds in
  let bindings = eq_bindings ~local ~avail ~alias all_preds in
  let pages =
    match Catalog.stats t.Ctx.cat table with
    | Some s -> float_of_int s.s_pages
    | None -> Float.max 1. (e.e_rows /. float_of_int Catalog.rows_per_page)
  in
  let all_preds = Plan.order_preds all_preds in
  let full_sel = Sel.conj_sel env all_preds in
  let out_rows = Float.max 0.5 (e.e_rows *. full_sel) in
  let scan =
    ( Plan.Table_scan { table; alias; filter = all_preds },
      Model.table_scan ~pages ~rows:e.e_rows ~out:out_rows
      +. Ctx.filter_cost env ~rows:e.e_rows all_preds,
      out_rows,
      all_preds )
  in
  (* partitioned scan with costed pruning: worth a row only when the
     derived prune spec is estimated to drop at least one partition —
     an unpruned partitioned scan reads the same heap as the full scan
     but pays per-partition page ceilings *)
  let part_paths =
    match Catalog.part_spec t.Ctx.cat table with
    | None -> []
    | Some ps -> (
        let prune = derive_prune ps ~alias all_preds in
        match prune with
        | Plan.Pr_none -> []
        | _ ->
            let scanned, prows, ppages =
              prune_estimate t.Ctx.cat ps ~table prune
            in
            if scanned >= ps.Catalog.ps_n then []
            else
              let prows = Float.max 0.5 prows in
              let out = Float.min out_rows prows in
              [
                ( Plan.Part_scan { table; alias; filter = all_preds; prune },
                  Model.table_scan ~pages:ppages ~rows:prows ~out
                  +. Ctx.filter_cost env ~rows:prows all_preds,
                  out,
                  all_preds );
              ])
  in
  let index_paths =
    List.filter_map
      (fun (ix : Catalog.index) ->
        (* longest binding prefix of the index columns *)
        let rec prefix cols =
          match cols with
          | [] -> []
          | c :: rest -> (
              match List.assoc_opt c bindings with
              | Some rhs -> (c, rhs) :: prefix rest
              | None -> [])
        in
        let pfx = prefix ix.ix_cols in
        if pfx = [] then None
        else
          let pfx_cols = List.map fst pfx in
          let consumed, residual = consumed_preds ~alias pfx_cols all_preds in
          let consumed_sel = Sel.conj_sel env consumed in
          let matched = Float.max 0.5 (e.e_rows *. consumed_sel) in
          let residual_sel = Sel.conj_sel env residual in
          let rows_out = Float.max 0.5 (matched *. residual_sel) in
          let height =
            max 1
              (int_of_float
                 (ceil (log (Float.max 2. e.e_rows) /. log 64.)))
          in
          let residual = Plan.order_preds residual in
          let cost =
            Model.index_probe ~height ~entries:matched ~rows:matched
              ~out:rows_out
            +. Ctx.filter_cost env ~rows:matched residual
          in
          Some
            ( Plan.Index_scan
                {
                  table;
                  alias;
                  index = ix.ix_name;
                  prefix = List.map snd pfx;
                  lo = Plan.R_unbounded;
                  hi = Plan.R_unbounded;
                  filter = residual;
                },
              cost,
              rows_out,
              consumed @ residual ))
      (Catalog.indexes_on t.Ctx.cat table)
  in
  (scan :: part_paths) @ index_paths

(** Initial partial plan over a single entry (no joins yet). *)
let initial_partial (t : Ctx.t) ~outer ~env ~local (e : entry) : partial =
  ignore outer;
  let plan, cost, rows =
    match e.e_source with
    | E_table table ->
        let paths =
          table_access_path t ~env ~local ~avail:Sset.empty e ~table
            ~extra_preds:[]
        in
        let best =
          List.fold_left
            (fun acc (p, c, r, _) ->
              match acc with
              | Some (_, bc, _) when bc <= c -> acc
              | _ -> Some (p, c, r))
            None paths
        in
        Option.get best
    | E_view (ann, correlated) ->
        if correlated then
          raise (Ctx.Unsupported "correlated view cannot lead the join order");
        let rows = Float.max 0.5 (ann.Annotation.an_rows *. e.e_single_sel) in
        let singles = Plan.order_preds e.e_single in
        let plan =
          if singles = [] then ann.Annotation.an_plan
          else Plan.Filter { child = ann.Annotation.an_plan; preds = singles }
        in
        ( plan,
          ann.an_cost
          +. Ctx.filter_cost env ~rows:ann.an_rows singles
          +. Model.out_tax rows,
          rows )
  in
  {
    p_set = bit e.e_idx;
    p_aliases = Sset.singleton e.e_alias;
    p_plan = plan;
    p_cost = cost;
    p_rows = rows;
    p_info = Info.filter ~sel:e.e_single_sel e.e_info;
  }

(* ------------------------------------------------------------------ *)
(* Extending a partial plan with one more entry                          *)
(* ------------------------------------------------------------------ *)

let extend (t : Ctx.t) ~env ~local ~(join_preds : A.pred list) (lp : partial)
    (e : entry) : partial list =
  let avail = lp.p_aliases in
  let now_aliases = Sset.add e.e_alias avail in
  (* join conjuncts that become applicable when e joins *)
  let applicable, _remaining =
    List.partition
      (fun p ->
        let locs = Sset.inter (Walk.pred_aliases ~deep:true p) local in
        Sset.mem e.e_alias locs && Sset.subset locs now_aliases)
      join_preds
  in
  (* closing conjuncts: all aliases in lp but applicable only now?
     cannot happen: they were applied when their last alias joined. *)
  let conds =
    match e.e_kind with
    | A.J_inner -> applicable
    | _ -> e.e_cond @ applicable
  in
  let jsel = Sel.conj_sel env conds in
  let eff_rows = Float.max 0.5 (e.e_rows *. e.e_single_sel) in
  let inner_out = Float.max 0.5 (lp.p_rows *. eff_rows *. jsel) in
  let match_prob = Float.min 1. (eff_rows *. jsel) in
  let out_rows =
    match e.e_kind with
    | A.J_inner -> inner_out
    | A.J_semi -> Float.max 0.5 (lp.p_rows *. match_prob)
    | A.J_anti | A.J_anti_na ->
        Float.max 0.5 (lp.p_rows *. (1. -. match_prob))
    | A.J_left -> Float.max lp.p_rows inner_out
  in
  let role : Plan.jrole =
    match e.e_kind with
    | A.J_inner -> Plan.Inner
    | A.J_semi -> Plan.Semi
    | A.J_anti -> Plan.Anti
    | A.J_anti_na -> Plan.Anti_na
    | A.J_left -> Plan.Left_outer
  in
  let out_info =
    match role with
    | Plan.Semi | Plan.Anti | Plan.Anti_na ->
        { lp.p_info with ri_rows = out_rows }
    | _ ->
        Info.join ~rows:out_rows lp.p_info
          (Info.filter ~sel:e.e_single_sel e.e_info)
  in
  let mk plan cost =
    {
      p_set = lp.p_set lor bit e.e_idx;
      p_aliases = now_aliases;
      p_plan = plan;
      p_cost = cost;
      p_rows = out_rows;
      p_info = out_info;
    }
  in
  (* The executor caches the right side of a nested loop on the
     correlation values it reads from the left row; the number of right
     executions is therefore the number of distinct combinations of
     those values (capped by the left cardinality), not the left
     cardinality itself. *)
  let probes_for_plan rplan =
    let corr =
      List.filter
        (fun c -> Sset.mem c.A.c_alias avail)
        (Plan.all_cols rplan)
    in
    if corr = [] then 1.
    else
      Float.min lp.p_rows
        (Sel.distinct_count env ~rows:lp.p_rows
           (List.map (fun c -> A.Col c) corr))
  in
  let alternatives = ref [] in
  let add alt = alternatives := alt :: !alternatives in
  (match e.e_source with
  | E_table table ->
      (* nested loops over each access path of e *)
      let paths =
        table_access_path t ~env ~local ~avail e ~table ~extra_preds:conds
      in
      List.iter
        (fun (rplan, rcost, rrows_probe, consumed) ->
          let residual_conds =
            List.filter (fun p -> not (List.memq p consumed)) conds
          in
          let pairs =
            match role with
            | Plan.Semi | Plan.Anti | Plan.Anti_na ->
                lp.p_rows *. Float.max 1. (rrows_probe /. 2.)
            | _ -> lp.p_rows *. rrows_probe
          in
          let probes = probes_for_plan rplan in
          let cost =
            lp.p_cost
            +. (probes *. rcost)
            +. (Model.w_join *. pairs)
            +. Model.out_tax out_rows
          in
          add
            (mk
               (Plan.Join
                  {
                    meth = Plan.Nested_loop;
                    role;
                    left = lp.p_plan;
                    right = rplan;
                    cond = residual_conds;
                  })
               cost))
        paths;
      (* hash / merge require at least one local equi-conjunct *)
      let has_equi =
        List.exists
          (fun p ->
            match p with
            | A.Cmp (A.Eq, a, bb) ->
                let aa = Walk.expr_aliases a and ab = Walk.expr_aliases bb in
                let a_left = Sset.subset (Sset.inter aa now_aliases) avail
                and a_right = Sset.mem e.e_alias ab in
                let b_left = Sset.subset (Sset.inter ab now_aliases) avail
                and b_right = Sset.mem e.e_alias aa in
                (a_left && a_right && not (Sset.mem e.e_alias aa))
                || (b_left && b_right && not (Sset.mem e.e_alias ab))
            | _ -> false)
          conds
      in
      if has_equi then (
        let pages =
          match Catalog.stats t.Ctx.cat table with
          | Some s -> float_of_int s.s_pages
          | None -> Float.max 1. (e.e_rows /. float_of_int Catalog.rows_per_page)
        in
        let rrows = Float.max 0.5 (e.e_rows *. e.e_single_sel) in
        let rcost =
          Model.table_scan ~pages ~rows:e.e_rows ~out:rrows
        in
        let rplan = Plan.Table_scan { table; alias = e.e_alias; filter = e.e_single } in
        add
          (mk
             (Plan.Join
                { meth = Plan.Hash; role; left = lp.p_plan; right = rplan; cond = conds })
             (Model.hash_join ~lcost:lp.p_cost ~rcost ~lrows:lp.p_rows
                ~rrows ~pairs:inner_out ~out:out_rows));
        if
          match role with
          | Plan.Inner | Plan.Semi | Plan.Anti -> true
          | _ -> false
        then
          add
            (mk
               (Plan.Join
                  { meth = Plan.Merge; role; left = lp.p_plan; right = rplan; cond = conds })
               (Model.merge_join ~lcost:lp.p_cost ~rcost ~lrows:lp.p_rows
                  ~rrows ~pairs:inner_out ~out:out_rows)))
  | E_view (ann, correlated) ->
      let rrows = Float.max 0.5 (ann.Annotation.an_rows *. e.e_single_sel) in
      let singles = Plan.order_preds e.e_single in
      let rplan =
        if singles = [] then ann.Annotation.an_plan
        else Plan.Filter { child = ann.Annotation.an_plan; preds = singles }
      in
      let rcost =
        ann.an_cost
        +. Ctx.filter_cost env ~rows:ann.an_rows singles
        +. Model.out_tax rrows
      in
      (* nested loops: re-executes the view per probe (this is how a
         join-predicate-pushed-down view runs, with its correlations
         bound from the left row) *)
      let pairs = lp.p_rows *. rrows in
      let probes = probes_for_plan rplan in
      add
        (mk
           (Plan.Join
              {
                meth = Plan.Nested_loop;
                role;
                left = lp.p_plan;
                right = rplan;
                cond = conds;
              })
           (lp.p_cost +. (probes *. rcost) +. (Model.w_join *. pairs)
           +. Model.out_tax out_rows));
      if not correlated then (
        let has_equi =
          List.exists
            (fun p ->
              match p with A.Cmp (A.Eq, _, _) -> true | _ -> false)
            conds
        in
        if has_equi then
          add
            (mk
               (Plan.Join
                  { meth = Plan.Hash; role; left = lp.p_plan; right = rplan; cond = conds })
               (Model.hash_join ~lcost:lp.p_cost ~rcost ~lrows:lp.p_rows
                  ~rrows ~pairs:inner_out ~out:out_rows))));
  !alternatives

(* ------------------------------------------------------------------ *)
(* Join-order admissibility                                             *)
(* ------------------------------------------------------------------ *)

let can_follow (e : entry) (aliases : Sset.t) =
  Sset.subset e.e_prereq aliases

let can_start (e : entry) =
  e.e_kind = A.J_inner && Sset.is_empty e.e_prereq
  &&
  match e.e_source with E_view (_, correlated) -> not correlated | _ -> true
