(** Join-order search: left-deep dynamic programming with partial-order
    constraints (Sections 2.1.1 and 2.2.3), greedy ordering beyond the
    DP threshold.

    The state-level cost cap ([Opt_ctx.cost_cap], Section 3.4.1) is
    pushed {e into} the enumeration as branch-and-bound pruning: a
    partial plan already costing more than the cap cannot lead to a
    final plan under the cap (every extension only adds nonnegative
    cost), so it is discarded immediately instead of being carried to a
    post-hoc check. Each subset is extended once, in the round of its
    size, so every distinct pruned partial is counted once in
    {!Opt_stats.t.dp_pruned}; when pruning eliminates every complete
    join order the block's optimization aborts with
    {!Opt_ctx.Cost_cap_exceeded} — and, with completion-based counting,
    does not count as a block optimized. *)

module Ap = Access_path
module Ctx = Opt_ctx

(** Does [cost] exceed the active cost cap? *)
let over_cap (t : Ctx.t) (cost : float) =
  match t.Ctx.cost_cap with Some cap -> cost > cap | None -> false

let popcount x =
  let rec go x n = if x = 0 then n else go (x land (x - 1)) (n + 1) in
  go x 0

let dp_join (t : Ctx.t) ~outer ~env ~local ~(entries : Ap.entry array)
    ~join_preds : Ap.partial =
  let n = Array.length entries in
  let full = (1 lsl n) - 1 in
  let best : (int, Ap.partial) Hashtbl.t = Hashtbl.create 64 in
  let pruned_here = ref false in
  let consider (p : Ap.partial) =
    if over_cap t p.Ap.p_cost then (
      pruned_here := true;
      t.Ctx.stats.Opt_stats.dp_pruned <-
        t.Ctx.stats.Opt_stats.dp_pruned + 1)
    else
      match Hashtbl.find_opt best p.Ap.p_set with
      | Some q when q.Ap.p_cost <= p.Ap.p_cost -> ()
      | _ -> Hashtbl.replace best p.Ap.p_set p
  in
  Array.iter
    (fun e ->
      if Ap.can_start e then
        consider (Ap.initial_partial t ~outer ~env ~local e))
    entries;
  (* round [size] extends only the subsets of exactly [size] entries,
     all of which the previous round completed; a smaller subset
     extended again would only regenerate partials that tie with the
     ones kept. Equal-cost partials keep the first one considered, so
     the snapshot stays in the table's fold order. *)
  for size = 1 to n - 1 do
    let snapshot =
      Hashtbl.fold
        (fun k v acc -> if popcount k = size then (k, v) :: acc else acc)
        best []
    in
    List.iter
      (fun (set, lp) ->
        Array.iter
          (fun e ->
            if set land Ap.bit e.Ap.e_idx = 0 && Ap.can_follow e lp.Ap.p_aliases
            then List.iter consider (Ap.extend t ~env ~local ~join_preds lp e))
          entries)
      snapshot
  done;
  match Hashtbl.find_opt best full with
  | Some p -> p
  | None ->
      if !pruned_here then raise Ctx.Cost_cap_exceeded
      else raise (Ctx.Unsupported "no valid join order (cyclic partial order?)")

let greedy_join (t : Ctx.t) ~outer ~env ~local ~(entries : Ap.entry array)
    ~join_preds : Ap.partial =
  let n = Array.length entries in
  let start =
    Array.to_list entries
    |> List.filter Ap.can_start
    |> List.map (Ap.initial_partial t ~outer ~env ~local)
    |> List.sort (fun a b -> Float.compare a.Ap.p_cost b.Ap.p_cost)
  in
  match start with
  | [] -> raise (Ctx.Unsupported "no startable FROM entry")
  | first :: _ ->
      let current = ref first in
      let remaining = ref (n - 1) in
      while !remaining > 0 do
        let lp = !current in
        (* branch-and-bound: the greedy walk is monotone in cost, so a
           partial already over the cap can only get worse *)
        if over_cap t lp.Ap.p_cost then (
          t.Ctx.stats.Opt_stats.dp_pruned <-
            t.Ctx.stats.Opt_stats.dp_pruned + 1;
          raise Ctx.Cost_cap_exceeded);
        let candidates =
          Array.to_list entries
          |> List.filter (fun e ->
                 lp.Ap.p_set land Ap.bit e.Ap.e_idx = 0
                 && Ap.can_follow e lp.Ap.p_aliases)
          |> List.concat_map (fun e -> Ap.extend t ~env ~local ~join_preds lp e)
        in
        match
          List.sort (fun a b -> Float.compare a.Ap.p_cost b.Ap.p_cost)
            candidates
        with
        | [] -> raise (Ctx.Unsupported "greedy join ordering got stuck")
        | best :: _ ->
            current := best;
            decr remaining
      done;
      !current
