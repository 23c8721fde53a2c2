(** The cost-based query transformation driver (Sections 3.1–3.4).

    Transformations are applied sequentially, in the paper's order:
    SPJ view merging, join elimination, subquery unnesting, group-by
    (distinct) view merging, group pruning, predicate move-around, set
    operator into join conversion, group-by placement, predicate pullup,
    join factorization, disjunction into union-all expansion, and join
    predicate pushdown. Heuristic transformations are imperative;
    cost-based ones run a state-space search ({!Search}) whose states
    are costed by applying the state's mask to the (immutable, shared)
    query tree and invoking the physical optimizer. No copying is
    involved: transformations preserve sharing, so each state's tree
    physically shares every untouched block with the input.

    The engineering devices of Section 3.4 are all wired in:

    - {b cost cut-off}: once a state has been fully costed, subsequent
      states run with the optimizer's [cost_cap] set, so hopeless states
      abort early — pushed into the join enumeration itself as
      branch-and-bound pruning ({!Planner.Join_enum});
    - {b cost-annotation reuse}: two annotation caches (physical
      identity and query-block fingerprint) are shared across all states
      of all transformations of one driver run, so an untransformed
      subquery is optimized once no matter how many states contain it.
      Each state's set of rebuilt blocks (reported by the
      transformation's [?touched] accumulator) is handed to the
      optimizer as the {e dirty set} for incremental costing
      diagnostics;
    - {b interleaving} (Section 3.3.1): when costing an unnesting state,
      the generated group-by view is also costed in merged form, so
      unnesting is not rejected merely because the unmerged view is
      expensive;
    - {b juxtaposition} (Section 3.3.2): a view eligible for both
      group-by view merging and join predicate pushdown is costed under
      no-change, merge, and pushdown, and merging is applied only if it
      beats both.

    The CBQT-off baseline ([`Heuristic]) replaces each search by the
    corresponding heuristic rule (the pre-10g unnesting rule, merge-
    always, index-driven JPPD, and no group-by placement), reproducing
    the paper's comparison baseline. *)

open Sqlir
module A = Ast
module Opt = Planner.Optimizer
module T = Transform
module Tr = Obs.Trace
module Mx = Obs.Metrics

type decision = D_off | D_heuristic | D_cost

type config = {
  unnest : decision;
  gb_merge : decision;
  jppd : decision;
  gbp : decision;
  setop_to_join : decision;
  or_expansion : decision;
  join_factor : decision;
  pred_pullup : decision;
  heuristic_phase : bool;
      (** run the imperative transformations (SPJ merge, join
          elimination, predicate move-around, group pruning) *)
  interleave : bool;
  juxtapose : bool;
  check : bool;
      (** sanitizer mode: re-run {!Analysis.Ir_check} after every
          transformation application and every CBQT search state, and
          {!Analysis.Plan_check} on the final plan; raise
          {!Analysis.Diagnostics.Check_failed} naming the offending
          transformation on the first ill-formed tree. Also fails the
          run (rule [CB001]) when a transformed search state cannot be
          optimized although the untransformed state could — such a
          state silently costs [infinity] otherwise, masking
          transformation bugs *)
  on_diag : (string -> Analysis.Diagnostics.t list -> unit) option;
      (** diagnostic collection mode: when set, every finding the
          sanitizer would raise as {!Analysis.Diagnostics.Check_failed}
          is handed to this callback (with the offending transformation
          name) and the run {e continues} — the CLI's [check --sem]
          summary table is built this way. [None] (the default) keeps
          fail-fast raising behaviour *)
  memo : bool;
      (** cost-annotation reuse (Section 3.4.2): share the identity and
          fingerprint annotation caches across all states of all
          transformations of the run. [false] re-optimizes every block
          of every state from scratch — only useful for measuring what
          the caches buy (Table 2) and for differential testing *)
  trace : Obs.Trace.level;
      (** observability spans ({!Obs.Trace}): [Off] records nothing,
          [Steps] one span per transformation attempt, [Full] adds
          per-state, per-costing and per-block spans with
          {!Planner.Opt_stats} counter deltas. Defaults to the
          [CBQT_TRACE] env var ([0]/[off], [1]/[steps], [2]/[full]) *)
  policy : Policy.t;
}

(** [CBQT_CHECK=1] (or [true] / [on]) turns sanitizer mode on
    process-wide, without touching call sites — the env-var override the
    issue tracker asked for. *)
let env_check =
  match Sys.getenv_opt "CBQT_CHECK" with
  | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "1" | "true" | "on" | "yes" -> true
      | _ -> false)
  | None -> false

(** [CBQT_TRACE=steps|full] (or [1]/[2]) turns tracing on process-wide,
    mirroring [CBQT_CHECK]. *)
let env_trace = Tr.level_of_env ()

let default_config =
  {
    unnest = D_cost;
    gb_merge = D_cost;
    jppd = D_cost;
    gbp = D_cost;
    setop_to_join = D_cost;
    or_expansion = D_cost;
    join_factor = D_cost;
    pred_pullup = D_cost;
    heuristic_phase = true;
    interleave = true;
    juxtapose = true;
    check = env_check;
    on_diag = None;
    memo = true;
    trace = env_trace;
    policy = Policy.default;
  }

(** The paper's CBQT-off baseline: heuristic decisions everywhere,
    searches disabled. *)
let heuristic_config =
  {
    default_config with
    unnest = D_heuristic;
    gb_merge = D_heuristic;
    jppd = D_heuristic;
    gbp = D_off;
    setop_to_join = D_off;
    or_expansion = D_off;
    join_factor = D_off;
    pred_pullup = D_off;
    interleave = false;
    juxtapose = false;
  }

type step_report = {
  sr_name : string;
  sr_objects : int;
  sr_strategy : string;
  sr_states : int;
  sr_chosen : bool list;
  sr_base_cost : float;  (** cost of the untransformed state *)
  sr_best_cost : float;
}

type report = {
  rp_steps : step_report list;
  rp_states_total : int;
  rp_states_cutoff : int;
      (** search states abandoned by the cost cut-off (Section 3.4.1) *)
  rp_states_errored : int;
      (** search states that failed to optimize (unsupported shape or
          unbound column) — distinct from a legitimate cut-off *)
  rp_blocks_started : int;
  rp_blocks_optimized : int;
  rp_ident_hits : int;
      (** annotations reused by physical identity of the block *)
  rp_fp_hits : int;  (** annotations reused by fingerprint *)
  rp_cache_hits : int;  (** [rp_ident_hits + rp_fp_hits] *)
  rp_dp_pruned : int;
      (** partial join orders discarded by branch-and-bound against the
          state cost cap *)
  rp_dirty_misses : int;
      (** blocks reported clean by a transformation's dirty set that
          nevertheless missed the identity cache *)
  rp_fp_collisions : int;
      (** fingerprint-hash bucket entries that failed the full
          structural comparison on probe (true hash collisions) *)
  rp_final_cost : float;
  rp_opt_seconds : float;
}

type result = {
  res_query : A.query;  (** the transformed query tree *)
  res_annotation : Planner.Annotation.t;  (** final physical plan *)
  res_report : report;
  res_trace : Tr.t;
      (** the run's span tree ({!Obs.Trace.disabled} when
          [config.trace = Off]) *)
}

(* ------------------------------------------------------------------ *)
(* Costing                                                              *)
(* ------------------------------------------------------------------ *)

type ctx = {
  cat : Catalog.t;
  opt : Opt.t;
  cfg : config;
  tr : Tr.t;
  mutable steps : step_report list;
  mutable total_objects : int;  (** for the two-pass policy rule *)
  mutable states_cutoff : int;
  mutable states_errored : int;
}

(* ------------------------------------------------------------------ *)
(* Sanitizer mode                                                       *)
(* ------------------------------------------------------------------ *)

(** Deliver error diagnostics: raise {!Analysis.Diagnostics.Check_failed}
    (fail-fast sanitizer), or hand them to [config.on_diag] and keep
    going (collection mode). *)
let emit (ctx : ctx) ~(tx : string) (errs : Analysis.Diagnostics.t list) =
  match errs with
  | [] -> ()
  | errs -> (
      match ctx.cfg.on_diag with
      | Some f -> f tx errs
      | None -> raise (Analysis.Diagnostics.Check_failed (tx, errs)))

(** In sanitizer mode, run {!Analysis.Ir_check} over [q] and raise
    {!Analysis.Diagnostics.Check_failed} — naming the transformation
    [tx] that produced the tree — on any error-severity finding. When
    [base] (the tree the transformation started from) is supplied, also
    run the {!Analysis.Copy_check} over-copying detector (rule TX001)
    and the {!Analysis.Sem_check} transformation-legality verifier
    (rules SEM001–SEM007) over the before/after pair. Returns [q]
    unchanged so it chains inside pipelines. *)
let sanitize (ctx : ctx) ~(tx : string) ?base (q : A.query) : A.query =
  (if ctx.cfg.check then (
     emit ctx ~tx (Analysis.Ir_check.errors ctx.cat q);
     match base with
     | Some b when b != q ->
         emit ctx ~tx (Analysis.Copy_check.errors ~before:b ~after:q);
         emit ctx ~tx (Analysis.Sem_check.errors ctx.cat ~before:b ~after:q)
     | _ -> ()));
  q

(** How costing a search state ended: a real cost, a legitimate
    abandonment by the cost cut-off, or an error (a tree shape the
    optimizer cannot cost — suspicious when the untransformed state
    could). *)
type outcome = O_cost of float | O_cutoff | O_error of string

(** Attributes of one costing: how it ended, the cap it ran under and
    the {!Planner.Opt_stats} increments it earned — the trace's unit of
    attribution for annotation reuse and cut-off savings. *)
let cost_attrs ~(cap : float option) ~before ~after (outcome : outcome) :
    (string * Tr.value) list =
  (match outcome with
  | O_cost c -> [ ("outcome", Tr.S "cost"); ("cost", Tr.F c) ]
  | O_cutoff -> [ ("outcome", Tr.S "cutoff") ]
  | O_error msg -> [ ("outcome", Tr.S "error"); ("error", Tr.S msg) ])
  @ (match cap with Some c -> [ ("cap", Tr.F c) ] | None -> [])
  @ List.map
      (fun (k, v) -> (k, Tr.I v))
      (Planner.Opt_stats.delta ~before ~after)

(** Cost a candidate query under the cost cut-off. *)
let cost_of (ctx : ctx) ~(cap : float option) (q : A.query) : outcome =
  Tr.wrap_with ctx.tr Tr.Cost "cost" (fun sp ->
      let before =
        match sp with
        | None -> None
        | Some _ -> Some (Planner.Opt_stats.copy (Opt.stats ctx.opt))
      in
      Opt.set_cost_cap ctx.opt cap;
      let r =
        match Opt.optimize ctx.opt q with
        | ann -> O_cost ann.Planner.Annotation.an_cost
        | exception Opt.Cost_cap_exceeded -> O_cutoff
        | exception Opt.Unsupported msg -> O_error ("unsupported: " ^ msg)
        | exception Exec.Eval.Unbound_column (a, c) ->
            O_error (Printf.sprintf "unbound column %s.%s" a c)
      in
      Opt.set_cost_cap ctx.opt None;
      (match before with
      | None -> ()
      | Some before ->
          Tr.add_attrs sp
            (cost_attrs ~cap ~before ~after:(Opt.stats ctx.opt) r));
      r)

(** Cost one search state and fold the outcome into the run counters:
    cut-offs and errors both score [infinity] for the search, but are
    counted separately, and an error on a {e transformed} state whose
    base state costed fine fails the run under sanitizer mode (a
    transformation produced a tree the optimizer cannot cost — rule
    [CB001]). [dirty] is the set of blocks this state rebuilt, handed to
    the optimizer for incremental-costing diagnostics ([None] = no
    information, e.g. the first time the tree is costed). *)
let score (ctx : ctx) ~(tx : string) ~(is_base : bool) ~(base_ok : bool ref)
    ~(cap : float option) ~(dirty : Walk.Sset.t option) (q : A.query) : float =
  Opt.set_dirty ctx.opt dirty;
  let outcome = cost_of ctx ~cap q in
  Opt.set_dirty ctx.opt None;
  match outcome with
  | O_cost c ->
      if is_base then base_ok := true;
      c
  | O_cutoff ->
      ctx.states_cutoff <- ctx.states_cutoff + 1;
      infinity
  | O_error msg ->
      ctx.states_errored <- ctx.states_errored + 1;
      if ctx.cfg.check && (not is_base) && !base_ok then
        emit ctx ~tx
          [
            Analysis.Diagnostics.error ~rule:"CB001"
              ~path:Analysis.Diagnostics.root
              "search state fails to optimize (%s) although the \
               untransformed state optimizes fine"
              msg;
          ];
      infinity

(* ------------------------------------------------------------------ *)
(* Generic cost-based step                                              *)
(* ------------------------------------------------------------------ *)

let record ctx name ~objects ~strategy ~states ~chosen ~base ~best =
  ctx.steps <-
    {
      sr_name = name;
      sr_objects = objects;
      sr_strategy = strategy;
      sr_states = states;
      sr_chosen = chosen;
      sr_base_cost = base;
      sr_best_cost = best;
    }
    :: ctx.steps

(** One cost-based transformation step: search the state space of
    [tx]'s objects and apply the winning mask. [interleave_with]
    optionally posts-processes each candidate with a follow-on
    transformation for costing purposes only (Section 3.3.1). *)
let cost_step (ctx : ctx) (tx : T.Tx.t)
    ?(interleave_with : (Catalog.t -> A.query -> A.query) option)
    ?(heuristic_mask : (Catalog.t -> A.query -> bool list) option)
    (decision : decision) (q : A.query) : A.query =
  let name = tx.T.Tx.name and apply_mask = tx.T.Tx.apply_mask in
  match decision with
  | D_off -> q
  | D_heuristic -> (
      match heuristic_mask with
      | None -> q
      | Some h ->
          Tr.wrap_with ctx.tr Tr.Attempt name (fun sp ->
              let mask = h ctx.cat q in
              if List.exists Fun.id mask then (
                Tr.add_attrs sp [ ("outcome", Tr.S "heuristic-applied") ];
                sanitize ctx ~tx:(name ^ " (heuristic)") ~base:q
                  (apply_mask ctx.cat q mask))
              else (
                Tr.add_attrs sp [ ("outcome", Tr.S "heuristic-skip") ];
                q)))
  | D_cost ->
      Tr.wrap_with ctx.tr Tr.Attempt name (fun sp ->
      let n = List.length (tx.T.Tx.discover ctx.cat q) in
      if n = 0 then (
        Tr.add_attrs sp [ ("outcome", Tr.S "not-applicable") ];
        q)
      else (
        ctx.total_objects <- ctx.total_objects + n;
        let strategy =
          Policy.choose ctx.cfg.policy ~n_objects:n
            ~total_objects:ctx.total_objects
        in
        let best_seen = ref infinity in
        let base_ok = ref false in
        let eval mask =
          Tr.wrap ctx.tr Tr.State (Search.mask_to_string mask) (fun () ->
          let is_base = not (List.exists Fun.id mask) in
          let touched = ref Walk.Sset.empty in
          let q' =
            sanitize ctx
              ~tx:(name ^ " (search state)")
              ~base:q
              (apply_mask ~touched ctx.cat q mask)
          in
          let cap = if !best_seen < infinity then Some !best_seen else None in
          (* the base state is the first time this tree is costed in
             this step; later states are dirty exactly where the
             transformation reports it rebuilt blocks *)
          let dirty = if is_base then None else Some !touched in
          let c = score ctx ~tx:name ~is_base ~base_ok ~cap ~dirty q' in
          let c =
            match interleave_with with
            | Some follow when ctx.cfg.interleave && List.exists Fun.id mask ->
                let q'' =
                  sanitize ctx
                    ~tx:(name ^ " (interleaved search state)")
                    ~base:q' (follow ctx.cat q')
                in
                if Fingerprint.equal ~mode:With_peeks q'' q' then c
                else
                  let dirty =
                    Some (Walk.Sset.union !touched (T.Tx.dirty_blocks q' q''))
                  in
                  Float.min c
                    (score ctx
                       ~tx:(name ^ " (interleaved)")
                       ~is_base:false ~base_ok ~cap ~dirty q'')
            | _ -> c
          in
          if c < !best_seen then best_seen := c;
          c)
        in
        let run_search ~check =
          Search.run
            ~iterative_max_states:ctx.cfg.policy.Policy.iterative_state_budget
            ~check strategy n eval
        in
        let res =
          (* in collection mode a CB004 search-invariant violation is
             recorded and the search result recomputed unvalidated (the
             memoized costs make the re-run cheap) *)
          match run_search ~check:ctx.cfg.check with
          | res -> res
          | exception Analysis.Diagnostics.Check_failed (txn, errs)
            when ctx.cfg.on_diag <> None ->
              emit ctx ~tx:txn errs;
              run_search ~check:false
        in
        let base =
          match res.Search.r_trace with (_, c) :: _ -> c | [] -> nan
        in
        record ctx name ~objects:n
          ~strategy:(Search.strategy_name strategy)
          ~states:res.Search.r_states ~chosen:res.Search.r_best ~base
          ~best:res.Search.r_best_cost;
        let applied = List.exists Fun.id res.Search.r_best in
        Tr.add_attrs sp
          [
            ("outcome", Tr.S (if applied then "applied" else "cost-rejected"));
            ("objects", Tr.I n);
            ("strategy", Tr.S (Search.strategy_name strategy));
            ("states", Tr.I res.Search.r_states);
            ("mask", Tr.S (Search.mask_to_string res.Search.r_best));
            ("base_cost", Tr.F base);
            ("best_cost", Tr.F res.Search.r_best_cost);
          ];
        if applied then
          sanitize ctx ~tx:name ~base:q
            (apply_mask ctx.cat q res.Search.r_best)
        else q))

(* ------------------------------------------------------------------ *)
(* Group-by view merging with juxtaposition against JPPD                *)
(* ------------------------------------------------------------------ *)

(** Per-object three-way comparison (Section 3.3.2): no change vs. view
    merging vs. join predicate pushdown, walked linearly over the merge
    objects. Merging is applied only when it beats both rivals; a
    pushdown winner is left untransformed here and picked up by the
    sequential JPPD step later (the paper's mitigation in 3.3.3). *)
let gb_merge_juxtaposed (ctx : ctx) (q : A.query) : A.query =
  Tr.wrap_with ctx.tr Tr.Attempt "gb-view-merge" (fun sp ->
  let merge_objs = T.Gb_view_merge.tx.T.Tx.discover ctx.cat q in
  let n = List.length merge_objs in
  if n = 0 then (
    Tr.add_attrs sp [ ("outcome", Tr.S "not-applicable") ];
    q)
  else (
    ctx.total_objects <- ctx.total_objects + n;
    let states = ref 0 in
    let best_seen = ref infinity in
    let base_ok = ref false in
    let eval ~label ~is_base ~dirty q' =
      Tr.wrap ctx.tr Tr.State label (fun () ->
          incr states;
          ignore (sanitize ctx ~tx:"gb-view-merge (search state)" ~base:q q');
          let cap = if !best_seen < infinity then Some !best_seen else None in
          let c =
            score ctx ~tx:"gb-view-merge" ~is_base ~base_ok ~cap ~dirty q'
          in
          if c < !best_seen then best_seen := c;
          c)
    in
    let chosen = ref [] in
    let current = ref q in
    let base = eval ~label:"base" ~is_base:true ~dirty:None q in
    (* the mask selecting the object at [o]'s block and key *)
    let mask_at (tx : T.Tx.t) (o : T.Tx.obj) q =
      List.map
        (fun (o' : T.Tx.obj) -> o'.block = o.block && o'.key = o.key)
        (tx.discover ctx.cat q)
    in
    List.iteri
      (fun i o ->
        (* [!current] was fully costed when it was accepted, so nothing
           in it is dirty *)
        let cost_none =
          eval
            ~label:(Printf.sprintf "%d:none" i)
            ~is_base:false ~dirty:(Some Walk.Sset.empty) !current
        in
        (* merging exactly this object on the current tree *)
        let mask = mask_at T.Gb_view_merge.tx o !current in
        let merge_touched = ref Walk.Sset.empty in
        let merged =
          if List.exists Fun.id mask then
            T.Gb_view_merge.apply_mask ~touched:merge_touched ctx.cat !current
              mask
          else !current
        in
        let cost_merge =
          if merged == !current then infinity
          else
            eval
              ~label:(Printf.sprintf "%d:merge" i)
              ~is_base:false ~dirty:(Some !merge_touched) merged
        in
        (* the JPPD rival on the same view, if applicable *)
        let jppd_mask = mask_at T.Jppd.tx o !current in
        let cost_jppd =
          if ctx.cfg.juxtapose && List.exists Fun.id jppd_mask then (
            let touched = ref Walk.Sset.empty in
            let q'' = T.Jppd.apply_mask ~touched ctx.cat !current jppd_mask in
            eval
              ~label:(Printf.sprintf "%d:jppd" i)
              ~is_base:false ~dirty:(Some !touched) q'')
          else infinity
        in
        if cost_merge < cost_none && cost_merge <= cost_jppd then (
          current := merged;
          chosen := true :: !chosen)
        else chosen := false :: !chosen)
      merge_objs;
    record ctx "gb-view-merge" ~objects:n ~strategy:"juxtaposed-linear"
      ~states:!states ~chosen:(List.rev !chosen) ~base ~best:!best_seen;
    let applied = List.exists Fun.id !chosen in
    Tr.add_attrs sp
      [
        ("outcome", Tr.S (if applied then "applied" else "cost-rejected"));
        ("objects", Tr.I n);
        ("strategy", Tr.S "juxtaposed-linear");
        ("states", Tr.I !states);
        ("mask", Tr.S (Search.mask_to_string (List.rev !chosen)));
        ("base_cost", Tr.F base);
        ("best_cost", Tr.F !best_seen);
      ];
    !current))

(* ------------------------------------------------------------------ *)
(* The pipeline                                                         *)
(* ------------------------------------------------------------------ *)

(** One imperative (heuristic) transformation, traced as an attempt
    whose outcome is [applied] or [no-change] (transformations return
    the input tree physically unchanged when they do nothing). *)
let imperative (ctx : ctx) (name : string) (f : Catalog.t -> A.query -> A.query)
    (q : A.query) : A.query =
  Tr.wrap_with ctx.tr Tr.Attempt name (fun sp ->
      let q' = sanitize ctx ~tx:name ~base:q (f ctx.cat q) in
      Tr.add_attrs sp
        [ ("outcome", Tr.S (if q' == q then "no-change" else "applied")) ];
      q')

let heuristics (ctx : ctx) (q : A.query) : A.query =
  if not ctx.cfg.heuristic_phase then q
  else
    q
    |> imperative ctx "view-merge-spj" T.View_merge_spj.apply
    |> imperative ctx "join-elim" T.Join_elim.apply
    |> imperative ctx "predicate-move" T.Predicate_move.apply
    |> imperative ctx "group-prune" T.Group_prune.apply

let transform (ctx : ctx) (q : A.query) : A.query =
  (* 1. imperative phase: SPJ view merging, join elimination,
     predicate move-around, group pruning *)
  let q = heuristics ctx q in
  (* 2. subquery unnesting: imperative single-table merges, then the
     cost-based view-generating unnesting, interleaved with group-by
     view merging *)
  let q =
    match ctx.cfg.unnest with
    | D_off -> q
    | D_heuristic | D_cost ->
        let q = imperative ctx "unnest-merge" T.Unnest_merge.apply q in
        cost_step ctx T.Unnest_view.tx
          ~interleave_with:T.Gb_view_merge.apply_all
          ~heuristic_mask:T.Unnest_view.heuristic_mask ctx.cfg.unnest q
  in
  (* 3. group-by / distinct view merging, juxtaposed with JPPD *)
  let q =
    match ctx.cfg.gb_merge with
    | D_off -> q
    | D_heuristic ->
        (* pre-10g behaviour: always merge when legal *)
        imperative ctx "gb-view-merge (heuristic)" T.Gb_view_merge.apply_all q
    | D_cost -> gb_merge_juxtaposed ctx q
  in
  (* 4. re-run pruning / predicate motion over the rewritten tree *)
  let q = heuristics ctx q in
  (* 5. set operators into joins; the conversion manufactures SPJ
     views, so the imperative phase runs again afterwards *)
  let q = cost_step ctx T.Setop_to_join.tx ctx.cfg.setop_to_join q in
  let q = heuristics ctx q in
  (* 6. group-by placement (never heuristic, as in Oracle) *)
  let q = cost_step ctx T.Gb_placement.tx ctx.cfg.gbp q in
  (* 7. predicate pullup *)
  let q = cost_step ctx T.Predicate_pullup.tx ctx.cfg.pred_pullup q in
  (* 8. join factorization *)
  let q = cost_step ctx T.Join_factor.tx ctx.cfg.join_factor q in
  (* 9. disjunction into UNION ALL *)
  let q = cost_step ctx T.Or_expansion.tx ctx.cfg.or_expansion q in
  let q = heuristics ctx q in
  (* 10. join predicate pushdown *)
  cost_step ctx T.Jppd.tx ~heuristic_mask:T.Jppd.heuristic_mask ctx.cfg.jppd q

(* registry handles for what every hard parse publishes, registered
   when the module initializes so publishing is a bool check plus
   atomic adds, never a registry lookup. [Mx.reset] zeroes values in
   place, so the handles stay valid across resets. *)
let m_states = Mx.counter Mx.default "cbqt_states_total"
let m_states_cutoff = Mx.counter Mx.default "cbqt_states_cutoff_total"
let m_states_errored = Mx.counter Mx.default "cbqt_states_errored_total"
let m_blocks_optimized = Mx.counter Mx.default "cbqt_blocks_optimized_total"
let m_annot_reuse = Mx.counter Mx.default "cbqt_annot_reuse_total"
let m_dp_pruned = Mx.counter Mx.default "cbqt_dp_pruned_total"
let m_optimize_seconds = Mx.histogram Mx.default "cbqt_optimize_seconds"

(* The [tx]-labelled counter of [metric] for a transformation step
   name. Each handle is registered the first time a step of that name
   publishes it, so the registry lists the same series as before, and
   is found afterwards in a lock-free list shared by every domain. Two
   domains that miss at once both publish the one handle the registry
   keeps for the series, which is harmless. *)
let tx_counter metric : string -> Mx.counter =
  let known = Atomic.make [] in
  fun name ->
    match
      List.find_opt (fun (n, _) -> String.equal n name) (Atomic.get known)
    with
    | Some (_, c) -> c
    | None ->
        let c = Mx.counter ~labels:[ ("tx", name) ] Mx.default metric in
        let rec publish () =
          let l = Atomic.get known in
          if not (Atomic.compare_and_set known l ((name, c) :: l)) then
            publish ()
        in
        publish ();
        c

let m_tx_attempts = tx_counter "cbqt_tx_attempts_total"
let m_tx_accepts = tx_counter "cbqt_tx_accepts_total"

(** Transform and physically optimize [q]. *)
let optimize ?(config = default_config) (cat : Catalog.t) (q : A.query) :
    result =
  let t0 = Unix.gettimeofday () in
  let tr =
    if config.trace = Tr.Off then Tr.disabled else Tr.create config.trace
  in
  let opt =
    if config.memo then Opt.create ~annot_cache:(Hashtbl.create 64) ~tracer:tr cat
    else Opt.create ~tracer:tr cat
  in
  let ctx =
    {
      cat;
      opt;
      cfg = config;
      tr;
      steps = [];
      total_objects = 0;
      states_cutoff = 0;
      states_errored = 0;
    }
  in
  if config.check then
    (* cross-check every freshly costed block annotation against the
       key-derived cardinality bounds (CB002/CB003) *)
    Opt.set_block_hook opt
      (Some
         (fun bq ann ->
           emit ctx ~tx:"cost-model"
             (Analysis.Sem_check.check_annotation cat bq
                ~rows:ann.Planner.Annotation.an_rows
                ~info:ann.Planner.Annotation.an_info)));
  let root = Tr.enter tr Tr.Driver "cbqt" in
  ignore (sanitize ctx ~tx:"input" q);
  let q' = transform ctx q in
  (* the final plan optimization is traced like a costing so the
     counter deltas it earns (often all identity hits) stay attributed *)
  let ann =
    Tr.wrap_with tr Tr.Cost "final-plan" (fun sp ->
        let before =
          match sp with
          | None -> None
          | Some _ -> Some (Planner.Opt_stats.copy (Opt.stats opt))
        in
        let ann = Opt.optimize opt q' in
        (match before with
        | None -> ()
        | Some before ->
            Tr.add_attrs sp
              (cost_attrs ~cap:None ~before ~after:(Opt.stats opt)
                 (O_cost ann.Planner.Annotation.an_cost)));
        ann)
  in
  (if config.check then
     let diags =
       Analysis.Plan_check.check_annotated cat
         ~cost:ann.Planner.Annotation.an_cost
         ~rows:ann.Planner.Annotation.an_rows ann.Planner.Annotation.an_plan
     in
     emit ctx ~tx:"physical-plan" (Analysis.Diagnostics.errors diags));
  Tr.add_attrs root
    [ ("final_cost", Tr.F ann.Planner.Annotation.an_cost) ];
  Tr.exit_ tr root;
  let t1 = Unix.gettimeofday () in
  let states_total =
    List.fold_left (fun acc s -> acc + s.sr_states) 0 ctx.steps
  in
  let st = Opt.stats opt in
  let report =
    {
      rp_steps = List.rev ctx.steps;
      rp_states_total = states_total;
      rp_states_cutoff = ctx.states_cutoff;
      rp_states_errored = ctx.states_errored;
      rp_blocks_started = st.Planner.Opt_stats.blocks_started;
      rp_blocks_optimized = st.Planner.Opt_stats.blocks_optimized;
      rp_ident_hits = st.Planner.Opt_stats.ident_hits;
      rp_fp_hits = st.Planner.Opt_stats.fp_hits;
      rp_cache_hits = Planner.Opt_stats.cache_hits st;
      rp_dp_pruned = st.Planner.Opt_stats.dp_pruned;
      rp_dirty_misses = st.Planner.Opt_stats.dirty_misses;
      rp_fp_collisions = st.Planner.Opt_stats.fp_collisions;
      rp_final_cost = ann.Planner.Annotation.an_cost;
      rp_opt_seconds = t1 -. t0;
    }
  in
  (* publish the run's totals to the process-wide metrics registry:
     every hard parse contributes, so the registry accumulates what a
     single report only shows per run *)
  (if !Mx.enabled then begin
     Mx.add m_states report.rp_states_total;
     Mx.add m_states_cutoff report.rp_states_cutoff;
     Mx.add m_states_errored report.rp_states_errored;
     Mx.add m_blocks_optimized report.rp_blocks_optimized;
     Mx.add m_annot_reuse report.rp_cache_hits;
     Mx.add m_dp_pruned report.rp_dp_pruned;
     Mx.observe m_optimize_seconds report.rp_opt_seconds;
     List.iter
       (fun s ->
         Mx.inc (m_tx_attempts s.sr_name);
         if List.exists Fun.id s.sr_chosen then Mx.inc (m_tx_accepts s.sr_name))
       report.rp_steps
   end);
  { res_query = q'; res_annotation = ann; res_report = report; res_trace = tr }

(** Stable, aligned report format: one [label value] line per counter
    (fixed label column, counters in a fixed order), then one aligned
    line per transformation step. Tooling that scrapes the output can
    rely on the label text and ordering. *)
let pp_report ppf (r : report) =
  let line label pp_v = Fmt.pf ppf "  %-18s %t@." label pp_v in
  Fmt.pf ppf "optimization report@.";
  line "wall clock" (fun ppf -> Fmt.pf ppf "%.3f ms" (r.rp_opt_seconds *. 1000.));
  line "states total" (fun ppf -> Fmt.pf ppf "%d" r.rp_states_total);
  line "states cutoff" (fun ppf -> Fmt.pf ppf "%d" r.rp_states_cutoff);
  line "states errored" (fun ppf -> Fmt.pf ppf "%d" r.rp_states_errored);
  line "blocks started" (fun ppf -> Fmt.pf ppf "%d" r.rp_blocks_started);
  line "blocks optimized" (fun ppf -> Fmt.pf ppf "%d" r.rp_blocks_optimized);
  line "reuse ident" (fun ppf -> Fmt.pf ppf "%d" r.rp_ident_hits);
  line "reuse fp" (fun ppf -> Fmt.pf ppf "%d" r.rp_fp_hits);
  line "reuse total" (fun ppf -> Fmt.pf ppf "%d" r.rp_cache_hits);
  line "dp pruned" (fun ppf -> Fmt.pf ppf "%d" r.rp_dp_pruned);
  line "dirty misses" (fun ppf -> Fmt.pf ppf "%d" r.rp_dirty_misses);
  line "fp collisions" (fun ppf -> Fmt.pf ppf "%d" r.rp_fp_collisions);
  line "final cost" (fun ppf -> Fmt.pf ppf "%.1f" r.rp_final_cost);
  Fmt.pf ppf "  steps@.";
  List.iter
    (fun s ->
      Fmt.pf ppf
        "    %-20s objects=%-2d strategy=%-18s states=%-3d chosen=%s \
         (%.1f -> %.1f)@."
        s.sr_name s.sr_objects s.sr_strategy s.sr_states
        (Search.mask_to_string s.sr_chosen)
        s.sr_base_cost s.sr_best_cost)
    r.rp_steps

(* ------------------------------------------------------------------ *)
(* Report / trace consistency                                           *)
(* ------------------------------------------------------------------ *)

(** The report counters re-derived from a [Full]-level trace: states
    from the State spans, cut-offs and errors from the Cost spans'
    [outcome] attribute, and every {!Planner.Opt_stats} counter by
    summing the [d_]-prefixed deltas over the Cost spans (which include
    the final-plan costing). Returned in [report] shape with the fields
    a trace does not carry ([rp_steps], costs, wall clock) zeroed. *)
let counts_of_trace (tr : Tr.t) : report =
  let cost_attr key = Tr.sum_int_attr tr Tr.Cost key in
  let ident = cost_attr "d_ident_hits" and fp = cost_attr "d_fp_hits" in
  {
    rp_steps = [];
    rp_states_total = Tr.count_kind tr Tr.State;
    rp_states_cutoff = Tr.count_kind_attr tr Tr.Cost "outcome" "cutoff";
    rp_states_errored = Tr.count_kind_attr tr Tr.Cost "outcome" "error";
    rp_blocks_started = cost_attr "d_blocks_started";
    rp_blocks_optimized = cost_attr "d_blocks_optimized";
    rp_ident_hits = ident;
    rp_fp_hits = fp;
    rp_cache_hits = ident + fp;
    rp_dp_pruned = cost_attr "d_dp_pruned";
    rp_dirty_misses = cost_attr "d_dirty_misses";
    rp_fp_collisions = cost_attr "d_fp_collisions";
    rp_final_cost = 0.;
    rp_opt_seconds = 0.;
  }

(** Check that a report and the trace of the same run can never
    disagree: every counter the trace can derive must match the report
    exactly. Only meaningful for a [Full]-level trace ([Error] explains
    which counter diverged). *)
let report_consistent (r : report) (tr : Tr.t) : (unit, string) Stdlib.result =
  if Tr.level tr <> Tr.Full then
    Error "report_consistent requires a Full-level trace"
  else
    let d = counts_of_trace tr in
    let checks =
      [
        ("states_total", r.rp_states_total, d.rp_states_total);
        ("states_cutoff", r.rp_states_cutoff, d.rp_states_cutoff);
        ("states_errored", r.rp_states_errored, d.rp_states_errored);
        ("blocks_started", r.rp_blocks_started, d.rp_blocks_started);
        ("blocks_optimized", r.rp_blocks_optimized, d.rp_blocks_optimized);
        ("ident_hits", r.rp_ident_hits, d.rp_ident_hits);
        ("fp_hits", r.rp_fp_hits, d.rp_fp_hits);
        ("cache_hits", r.rp_cache_hits, d.rp_cache_hits);
        ("dp_pruned", r.rp_dp_pruned, d.rp_dp_pruned);
        ("dirty_misses", r.rp_dirty_misses, d.rp_dirty_misses);
        ("fp_collisions", r.rp_fp_collisions, d.rp_fp_collisions);
      ]
    in
    match
      List.find_opt (fun (_, rep, derived) -> rep <> derived) checks
    with
    | None -> Ok ()
    | Some (name, rep, derived) ->
        Error
          (Printf.sprintf "%s: report says %d, trace derives %d" name rep
             derived)
