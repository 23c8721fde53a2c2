(** Bounded, lock-sharded LRU map with verified keys: the structure
    behind the plan cache and the query store.

    The caller hashes its key; the hash picks one of a power-of-two
    number of shards (at most 256), each a hashtable of buckets behind
    its own mutex, with its own logical clock, entry bound
    [ceil (capacity / shards)] and counters. Every operation takes
    exactly one shard lock, so callers on different shards never
    contend, and the counters stay exact: they move only under their
    shard's lock, and {!stats} sums them. They are the structure's only
    record of its traffic: a caller that publishes metrics reads them
    from {!stats}.

    A bucket entry matches a probe only when its key equals the probe
    key — physical equality first, then structural [=] — so a hash
    collision is skipped, never returned ({!find} counts it).

    Replacement is least-recently-used: every access stamps the entry
    with its shard's next clock tick, and a full shard evicts the entry
    with the smallest stamp. Stamps are unique within a shard, so the
    victim never depends on hashtable iteration order.

    Memory is accounted per entry as [Obj.reachable_words] of the value
    at insertion (values that share structure are each counted in
    full, so the sum is an upper bound of their own footprint). *)

type ('k, 'v) node = {
  key : 'k;
  value : 'v;
  mutable stamp : int;  (** clock tick of the last access *)
  words : int;  (** [Obj.reachable_words] of [value] at insertion *)
}

(** Counters of one shard, and (summed) the snapshot {!stats} returns. *)
type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable collisions : int;  (** bucket entries that failed the key test *)
  mutable evictions : int;
  mutable entries : int;
  mutable words : int;  (** sum of the live entries' [words] *)
}

let zero () =
  {
    hits = 0;
    misses = 0;
    collisions = 0;
    evictions = 0;
    entries = 0;
    words = 0;
  }

type ('k, 'v) shard = {
  mu : Mutex.t;
  tbl : (int, ('k, 'v) node list) Hashtbl.t;
  mutable clock : int;
  st : stats;
}

type ('k, 'v) t = { shards : ('k, 'v) shard array; bound : int }

let create ~capacity ~shards =
  let capacity = max 1 capacity in
  let n =
    let rec np2 k = if k >= shards || k >= 256 then k else np2 (k * 2) in
    np2 1
  in
  let bound = (capacity + n - 1) / n in
  {
    shards =
      Array.init n (fun _ ->
          {
            mu = Mutex.create ();
            tbl = Hashtbl.create (max 16 bound);
            clock = 0;
            st = zero ();
          });
    bound;
  }

let locked t h f =
  let s = Array.unsafe_get t.shards (h land (Array.length t.shards - 1)) in
  Mutex.protect s.mu (fun () -> f s)

let bucket s h = match Hashtbl.find_opt s.tbl h with None -> [] | Some b -> b
let matches k n = n.key == k || n.key = k

let touch s n =
  s.clock <- s.clock + 1;
  n.stamp <- s.clock

(* Drop the first entry of bucket [h] satisfying [p]. Accounting moves
   only when one is found: a racing replace may have removed it. *)
let unlink s h p =
  let b = bucket s h in
  match List.find_opt p b with
  | None -> ()
  | Some n ->
      (match List.filter (fun n' -> n' != n) b with
      | [] -> Hashtbl.remove s.tbl h
      | b' -> Hashtbl.replace s.tbl h b');
      s.st.entries <- s.st.entries - 1;
      s.st.words <- s.st.words - n.words

(* linear victim scan: shards are small next to the values they hold *)
let evict_lru s =
  let victim =
    Hashtbl.fold
      (fun h b acc ->
        List.fold_left
          (fun acc n ->
            match acc with
            | Some (_, v) when v.stamp < n.stamp -> acc
            | _ -> Some (h, n))
          acc b)
      s.tbl None
  in
  match victim with
  | None -> ()
  | Some (h, n) ->
      unlink s h (( == ) n);
      s.st.evictions <- s.st.evictions + 1

let add_locked t s h k create =
  match List.find_opt (matches k) (bucket s h) with
  | Some n ->
      touch s n;
      n.value
  | None ->
      while s.st.entries >= t.bound do
        evict_lru s
      done;
      let value = create () in
      let words = Obj.reachable_words (Obj.repr value) in
      let n = { key = k; value; stamp = 0; words } in
      touch s n;
      Hashtbl.replace s.tbl h (n :: bucket s h);
      s.st.entries <- s.st.entries + 1;
      s.st.words <- s.st.words + n.words;
      value

(** Probe for [k] under hash [h]: counts a hit or a miss, touches the
    entry, and counts (but skips) colliding bucket entries. *)
let find t ~h k =
  locked t h (fun s ->
      let rec scan = function
        | [] ->
            s.st.misses <- s.st.misses + 1;
            None
        | n :: rest ->
            if matches k n then (
              s.st.hits <- s.st.hits + 1;
              touch s n;
              Some n.value)
            else (
              s.st.collisions <- s.st.collisions + 1;
              scan rest)
      in
      scan (bucket s h))

(** The value for [k], touched; when absent, the shard is evicted down
    below its bound (each victim counted in {!stats}) and [create ()]
    becomes the new value. An entry present already wins, so racing
    inserts of one key keep one value. [update] then runs on the result
    under the same lock. Counts no hit or miss. *)
let add ?update t ~h k create =
  locked t h (fun s ->
      let v = add_locked t s h k create in
      Option.iter (fun f -> f v) update;
      v)

(** Remove the entry whose value is physically [old] (a no-op when it
    is gone already) and {!add} [k] under the same lock. *)
let replace t ~h ~old k create =
  locked t h (fun s ->
      unlink s h (fun n -> n.value == old);
      add_locked t s h k create)

(** Run [f] holding the lock that every operation on hash [h] takes:
    for a caller mutating a value it got from this map. *)
let exclusive t ~h f = locked t h (fun _ -> f ())

(** Every live value, in no particular order. *)
let values t =
  Array.fold_left
    (fun acc s ->
      Mutex.protect s.mu (fun () ->
          Hashtbl.fold
            (fun _ b acc -> List.fold_left (fun acc n -> n.value :: acc) acc b)
            s.tbl acc))
    [] t.shards

(** Counters summed over the shards: a fresh snapshot. *)
let stats t =
  let acc = zero () in
  Array.iter
    (fun s ->
      Mutex.protect s.mu (fun () ->
          acc.hits <- acc.hits + s.st.hits;
          acc.misses <- acc.misses + s.st.misses;
          acc.collisions <- acc.collisions + s.st.collisions;
          acc.evictions <- acc.evictions + s.st.evictions;
          acc.entries <- acc.entries + s.st.entries;
          acc.words <- acc.words + s.st.words))
    t.shards;
  acc
