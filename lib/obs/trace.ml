(** Structured tracing for the CBQT search (the observability layer of
    the reproduction).

    A trace is a tree of {e spans} with stable, deterministic IDs
    (sequential in creation order, root = 1). The span taxonomy mirrors
    the paper's search structure:

    - {b Driver}: one root span per {!Cbqt.Driver.optimize} run;
    - {b Attempt}: one span per transformation attempt in the pipeline
      (applied / not-applicable / cost-rejected / heuristic / off);
    - {b State}: one span per costed search state (one per distinct
      mask — the unit the paper's Table 2 counts);
    - {b Cost}: one span per [cost_of] invocation (plus the final plan
      optimization), carrying the {!Opt_stats} counter deltas under
      ["d_"]-prefixed integer attributes, so cut-off and
      annotation-reuse savings are attributable to the exact call that
      earned them;
    - {b Block}: one span per query-block optimization actually entered
      by the physical optimizer (cache hits produce no span — they are
      the work that {e didn't} happen);
    - {b Cache}: one span per plan-cache probe in the service layer
      ({!Service}), carrying the hit/miss/invalidation outcome and the
      soft/hard parse timings.

    Spans carry wall-clock start/duration plus free-form attributes.
    Levels gate collection: [Off] records nothing (and is within noise
    of no tracing at all), [Steps] records Driver + Attempt + Cache
    spans, [Full] records everything. Sinks: a pretty console tree, JSON-Lines
    (one span object per line), and the Chrome trace-event format
    loadable in [chrome://tracing] / [ui.perfetto.dev]. *)

type level = Off | Steps | Full

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "" | "0" | "off" | "none" | "false" -> Some Off
  | "1" | "steps" | "step" | "summary" -> Some Steps
  | "2" | "full" | "all" | "on" | "true" -> Some Full
  | _ -> None

(** Default trace level from the [CBQT_TRACE] environment variable
    ([0]/[off], [1]/[steps], [2]/[full]); [Off] when unset. *)
let level_of_env () =
  match Sys.getenv_opt "CBQT_TRACE" with
  | None -> Off
  | Some v -> ( match level_of_string v with Some l -> l | None -> Off)

type kind = Driver | Attempt | State | Cost | Block | Cache

let kind_name = function
  | Driver -> "driver"
  | Attempt -> "attempt"
  | State -> "state"
  | Cost -> "cost"
  | Block -> "block"
  | Cache -> "cache"

let kind_of_string = function
  | "driver" -> Some Driver
  | "attempt" -> Some Attempt
  | "state" -> Some State
  | "cost" -> Some Cost
  | "block" -> Some Block
  | "cache" -> Some Cache
  | _ -> None

(* minimum level at which a kind is recorded *)
let kind_level = function
  | Driver | Attempt | Cache -> Steps
  | State | Cost | Block -> Full

let level_geq a b =
  let rank = function Off -> 0 | Steps -> 1 | Full -> 2 in
  rank a >= rank b

type value = S of string | I of int | F of float | B of bool

type span = {
  sp_id : int;  (** stable: sequential in creation order, root = 1 *)
  sp_parent : int;  (** 0 = no parent (root span) *)
  sp_kind : kind;
  sp_name : string;
  sp_start : float;  (** seconds since the trace epoch *)
  mutable sp_dur : float;  (** seconds; negative while still open *)
  mutable sp_attrs : (string * value) list;
}

type t = {
  tr_level : level;
  tr_epoch : float;  (** [Unix.gettimeofday] at {!create} *)
  mutable tr_next : int;
  mutable tr_spans : span list;  (** reverse creation order *)
  mutable tr_stack : span list;  (** currently open spans, innermost first *)
}

let create (level : level) : t =
  {
    tr_level = level;
    tr_epoch = Unix.gettimeofday ();
    tr_next = 1;
    tr_spans = [];
    tr_stack = [];
  }

(** A shared always-off trace for call sites that need a [t] but were
    not handed one (e.g. a bare {!Planner.Optimizer.create}). *)
let disabled : t =
  { tr_level = Off; tr_epoch = 0.; tr_next = 1; tr_spans = []; tr_stack = [] }

let enabled t = t.tr_level <> Off
let level t = t.tr_level

(** Spans in creation order (root first). *)
let spans t = List.rev t.tr_spans

let now t = Unix.gettimeofday () -. t.tr_epoch

(* ------------------------------------------------------------------ *)
(* Recording                                                            *)
(* ------------------------------------------------------------------ *)

let enter (t : t) (kind : kind) (name : string) : span option =
  if not (level_geq t.tr_level (kind_level kind)) then None
  else
    let parent = match t.tr_stack with [] -> 0 | sp :: _ -> sp.sp_id in
    let sp =
      {
        sp_id = t.tr_next;
        sp_parent = parent;
        sp_kind = kind;
        sp_name = name;
        sp_start = now t;
        sp_dur = -1.;
        sp_attrs = [];
      }
    in
    t.tr_next <- t.tr_next + 1;
    t.tr_spans <- sp :: t.tr_spans;
    t.tr_stack <- sp :: t.tr_stack;
    Some sp

let add_attrs (sp : span option) (attrs : (string * value) list) : unit =
  match sp with
  | None -> ()
  | Some sp -> sp.sp_attrs <- sp.sp_attrs @ attrs

let exit_ (t : t) (sp : span option) : unit =
  match sp with
  | None -> ()
  | Some sp ->
      sp.sp_dur <- Float.max 0. (now t -. sp.sp_start);
      (* pop up to and including [sp]; defensively closes any child a
         non-local exit skipped *)
      let rec pop = function
        | [] -> []
        | top :: rest ->
            if top == sp then rest
            else (
              if top.sp_dur < 0. then
                top.sp_dur <- Float.max 0. (now t -. top.sp_start);
              pop rest)
      in
      t.tr_stack <- pop t.tr_stack

(** [wrap t kind name f] runs [f ()] inside a span. On exception the
    span is closed with attribute [aborted=true] and the exception is
    re-raised. *)
let wrap (t : t) (kind : kind) (name : string) (f : unit -> 'a) : 'a =
  match enter t kind name with
  | None -> f ()
  | Some sp -> (
      match f () with
      | r ->
          exit_ t (Some sp);
          r
      | exception e ->
          add_attrs (Some sp) [ ("aborted", B true) ];
          exit_ t (Some sp);
          raise e)

(** Like {!wrap} but passes the open span to [f] so it can attach
    result attributes before the span closes. *)
let wrap_with (t : t) (kind : kind) (name : string) (f : span option -> 'a) :
    'a =
  match enter t kind name with
  | None -> f None
  | Some sp -> (
      match f (Some sp) with
      | r ->
          exit_ t (Some sp);
          r
      | exception e ->
          add_attrs (Some sp) [ ("aborted", B true) ];
          exit_ t (Some sp);
          raise e)

(* ------------------------------------------------------------------ *)
(* Queries over a finished trace                                        *)
(* ------------------------------------------------------------------ *)

let attr sp key = List.assoc_opt key sp.sp_attrs

let attr_string sp key =
  match attr sp key with Some (S s) -> Some s | _ -> None

let count_kind t kind =
  List.length (List.filter (fun sp -> sp.sp_kind = kind) (spans t))

(** Count spans of [kind] whose string attribute [key] equals [v]. *)
let count_kind_attr t kind key v =
  List.length
    (List.filter
       (fun sp -> sp.sp_kind = kind && attr_string sp key = Some v)
       (spans t))

(** Sum an integer attribute over all spans of [kind] (missing = 0). *)
let sum_int_attr t kind key =
  List.fold_left
    (fun acc sp ->
      if sp.sp_kind = kind then
        match attr sp key with Some (I n) -> acc + n | _ -> acc
      else acc)
    0 (spans t)

let roots t = List.filter (fun sp -> sp.sp_parent = 0) (spans t)
let children_of t id = List.filter (fun sp -> sp.sp_parent = id) (spans t)

(** Share of the root spans' wall-clock covered by their direct child
    spans — the acceptance metric "per-transformation spans account for
    >= 95% of total optimization wall-clock". Children never overlap
    (spans are strictly nested and sequential within a parent), so the
    plain sum is the covered time. Returns 1.0 for an empty trace. *)
let root_coverage t =
  let total, covered =
    List.fold_left
      (fun (total, covered) root ->
        let kids = children_of t root.sp_id in
        ( total +. Float.max 0. root.sp_dur,
          covered
          +. List.fold_left (fun acc sp -> acc +. Float.max 0. sp.sp_dur) 0. kids
        ))
      (0., 0.) (roots t)
  in
  if total <= 0. then 1. else Float.min 1. (covered /. total)

(* ------------------------------------------------------------------ *)
(* Well-formedness                                                      *)
(* ------------------------------------------------------------------ *)

(** Structural invariants of a finished trace; returns human-readable
    violations (empty = well-formed):

    - span IDs are unique, strictly increasing, and start at 1;
    - every parent exists, precedes its child, and the child's
      [start, start+dur] interval nests inside the parent's;
    - every span is closed with a non-negative duration;
    - every [State] span's parent is an [Attempt] or [Driver] span;
    - every ["d_"]-prefixed (counter delta) integer attribute is
      non-negative. *)
let validate (t : t) : string list =
  let sps = spans t in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let by_id = Hashtbl.create 64 in
  List.iteri
    (fun i sp ->
      if sp.sp_id <> i + 1 then
        err "span %d: id not sequential (expected %d)" sp.sp_id (i + 1);
      if Hashtbl.mem by_id sp.sp_id then err "span %d: duplicate id" sp.sp_id;
      Hashtbl.replace by_id sp.sp_id sp)
    sps;
  List.iter
    (fun sp ->
      if sp.sp_dur < 0. then err "span %d (%s): never closed" sp.sp_id sp.sp_name;
      (if sp.sp_parent <> 0 then
         match Hashtbl.find_opt by_id sp.sp_parent with
         | None -> err "span %d: unknown parent %d" sp.sp_id sp.sp_parent
         | Some parent ->
             if parent.sp_id >= sp.sp_id then
               err "span %d: parent %d does not precede it" sp.sp_id
                 parent.sp_id;
             let eps = 1e-6 in
             if
               sp.sp_start +. eps < parent.sp_start
               || sp.sp_start +. Float.max 0. sp.sp_dur
                  > parent.sp_start +. Float.max 0. parent.sp_dur +. eps
             then
               err "span %d (%s): not nested inside parent %d" sp.sp_id
                 sp.sp_name parent.sp_id);
      (if sp.sp_kind = State then
         match
           if sp.sp_parent = 0 then None else Hashtbl.find_opt by_id sp.sp_parent
         with
         | Some { sp_kind = Attempt | Driver; _ } -> ()
         | _ ->
             err "state span %d (%s): parent is not an attempt-or-root span"
               sp.sp_id sp.sp_name);
      List.iter
        (fun (k, v) ->
          match v with
          | I n when String.length k >= 2 && String.sub k 0 2 = "d_" && n < 0 ->
              err "span %d: negative counter delta %s=%d" sp.sp_id k n
          | _ -> ())
        sp.sp_attrs)
    sps;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Sinks                                                                *)
(* ------------------------------------------------------------------ *)

let value_to_json = function
  | S s -> Json.Str s
  | I n -> Json.Int n
  | F f -> Json.Float f
  | B b -> Json.Bool b

let span_to_json sp =
  Json.Obj
    [
      ("id", Json.Int sp.sp_id);
      ("parent", Json.Int sp.sp_parent);
      ("kind", Json.Str (kind_name sp.sp_kind));
      ("name", Json.Str sp.sp_name);
      ("t0_us", Json.Float (sp.sp_start *. 1e6));
      ("dur_us", Json.Float (Float.max 0. sp.sp_dur *. 1e6));
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) sp.sp_attrs));
    ]

(** JSON-Lines: one span object per line, creation order, root first. *)
let to_jsonl (t : t) : string =
  String.concat ""
    (List.map (fun sp -> Json.to_string (span_to_json sp) ^ "\n") (spans t))

(** Chrome trace-event format over several traces (e.g. one per
    workload query); each trace becomes one "process" so the runs stack
    vertically in the viewer. Timestamps are offset to a common zero. *)
let to_chrome_many (ts : t list) : string =
  let epoch0 =
    List.fold_left (fun acc t -> Float.min acc t.tr_epoch) infinity ts
  in
  let epoch0 = if Float.is_finite epoch0 then epoch0 else 0. in
  let events =
    List.concat
      (List.mapi
         (fun pid t ->
           let base_us = (t.tr_epoch -. epoch0) *. 1e6 in
           List.map
             (fun sp ->
               Json.Obj
                 [
                   ("name", Json.Str sp.sp_name);
                   ("cat", Json.Str (kind_name sp.sp_kind));
                   ("ph", Json.Str "X");
                   ("ts", Json.Float (base_us +. (sp.sp_start *. 1e6)));
                   ("dur", Json.Float (Float.max 0. sp.sp_dur *. 1e6));
                   ("pid", Json.Int (pid + 1));
                   ("tid", Json.Int 1);
                   ( "args",
                     Json.Obj
                       (("id", Json.Int sp.sp_id)
                       :: List.map
                            (fun (k, v) -> (k, value_to_json v))
                            sp.sp_attrs) );
                 ])
             (spans t))
         ts)
  in
  Json.to_string
    (Json.Obj
       [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.Str "ms") ])

let to_chrome (t : t) : string = to_chrome_many [ t ]

(* pretty console tree *)
let pp_value ppf = function
  | S s -> Format.pp_print_string ppf s
  | I n -> Format.pp_print_int ppf n
  | F f -> Format.fprintf ppf "%.1f" f
  | B b -> Format.pp_print_bool ppf b

let pp_tree ppf (t : t) =
  let sps = spans t in
  let rec render indent sp =
    let pad = String.make (indent * 2) ' ' in
    let attrs =
      match sp.sp_attrs with
      | [] -> ""
      | kvs ->
          " "
          ^ String.concat " "
              (List.map
                 (fun (k, v) -> Format.asprintf "%s=%a" k pp_value v)
                 kvs)
    in
    Format.fprintf ppf "%s[%d] %-7s %-28s %8.3fms%s@." pad sp.sp_id
      (kind_name sp.sp_kind) sp.sp_name
      (Float.max 0. sp.sp_dur *. 1000.)
      attrs;
    List.iter (render (indent + 1))
      (List.filter (fun c -> c.sp_parent = sp.sp_id) sps)
  in
  List.iter (render 0) (List.filter (fun sp -> sp.sp_parent = 0) sps)

(* ------------------------------------------------------------------ *)
(* JSON-Lines schema check                                              *)
(* ------------------------------------------------------------------ *)

(** Schema-check one JSON-Lines trace document (as written by
    {!to_jsonl}; IDs restart at 1 per traced run, so a file holding
    several concatenated runs is still valid). Checks per line: valid
    JSON object; required fields with the right types ([id] positive
    int, [parent] non-negative int preceding [id], [kind] from the span
    taxonomy, [name] string, [t0_us]/[dur_us] non-negative numbers,
    [attrs] object); and per run: sequential IDs from 1 and no
    ["d_"]-counter attribute below zero. *)
let validate_jsonl (doc : string) : string list =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let expected_id = ref 1 in
  let lines =
    List.filteri
      (fun _ l -> String.trim l <> "")
      (String.split_on_char '\n' doc)
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      match Json.parse line with
      | Error msg -> err "line %d: invalid JSON (%s)" lineno msg
      | Ok j -> (
          let field name = Json.member name j in
          let int_field name =
            match Option.bind (field name) Json.as_int with
            | Some v -> Some v
            | None ->
                err "line %d: missing or non-integer %S" lineno name;
                None
          in
          let num_field name =
            match Option.bind (field name) Json.as_number with
            | Some v -> Some v
            | None ->
                err "line %d: missing or non-numeric %S" lineno name;
                None
          in
          (match Option.bind (field "name") Json.as_string with
          | Some _ -> ()
          | None -> err "line %d: missing or non-string \"name\"" lineno);
          (match Option.bind (field "kind") Json.as_string with
          | Some k when kind_of_string k <> None -> ()
          | Some k -> err "line %d: unknown kind %S" lineno k
          | None -> err "line %d: missing or non-string \"kind\"" lineno);
          (match field "attrs" with
          | Some (Json.Obj kvs) ->
              List.iter
                (fun (k, v) ->
                  match v with
                  | Json.Int n
                    when String.length k >= 2 && String.sub k 0 2 = "d_"
                         && n < 0 ->
                      err "line %d: negative counter delta %s=%d" lineno k n
                  | _ -> ())
                kvs
          | Some _ -> err "line %d: \"attrs\" is not an object" lineno
          | None -> err "line %d: missing \"attrs\"" lineno);
          (match num_field "t0_us" with
          | Some v when v < 0. -> err "line %d: negative t0_us" lineno
          | _ -> ());
          (match num_field "dur_us" with
          | Some v when v < 0. -> err "line %d: negative dur_us" lineno
          | _ -> ());
          match (int_field "id", int_field "parent") with
          | Some id, Some parent ->
              if id < 1 then err "line %d: id %d < 1" lineno id;
              if parent < 0 then err "line %d: parent %d < 0" lineno parent;
              if parent >= id then
                err "line %d: parent %d does not precede id %d" lineno parent
                  id;
              (* ids restart at 1 on each new root span *)
              if id = 1 then expected_id := 2
              else if id <> !expected_id then (
                err "line %d: id %d not sequential (expected %d)" lineno id
                  !expected_id;
                expected_id := id + 1)
              else incr expected_id
          | _ -> ()))
    lines;
  if lines = [] then err "empty trace document";
  List.rev !errs
