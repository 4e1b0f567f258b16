(* A session owns the writer handle of an MVCC store lineage
   ({!Rdf_store.Mvcc}), a statistics memo, and a bounded LRU cache of
   prepared plans keyed by (query text, mode, engine).

   Every run pins ONE snapshot up front (an O(1) atomic acquire) and
   uses it for both cache validation and execution, so a concurrent
   commit cannot slide under a running query. A cached plan is valid
   for the pinned snapshot iff

     - it compiled against the same base epoch (compaction and bulk
       rebuild change it and invalidate wholesale), and
     - it compiled no constant to [Missing], or the dictionary has not
       grown since (growth could give the constant an id).

   Delta commits therefore do NOT invalidate unrelated cached plans:
   the plan is simply retargeted to the newer snapshot at execute time
   (dictionary ids are append-only, so compiled constants stay valid).
   This is what keeps the cache hit-rate high under a read/write mix —
   the whole point of the MVCC refactor. *)

type key = string * Prepared.mode * Engine.Bgp_eval.engine

(* Each cached plan owns its observed-cardinality cache: feedback
   recorded by one execution primes the estimates of every later
   execution of the same plan (the cross-execution half of the adaptive
   loop). It lives and dies with the entry — eviction, staleness or
   [invalidate] drop the observations along with the plan they
   describe. *)
type entry = {
  prepared : Prepared.t;
  feedback : Feedback.t;
  mutable last_used : int;
}

type t = {
  mvcc : Rdf_store.Mvcc.t;
  capacity : int;
  table : (key, entry) Hashtbl.t;
  (* A logical clock for LRU recency: bumped on every cache touch. *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  (* Statistics memo, keyed by the snapshot version they describe. *)
  mutable stats_memo : (int * Rdf_store.Stats.t) option;
  (* Governor tickets of runs currently in flight on this session, so
     [cancel] (from any domain) can reach them. Registered/unregistered
     under the mutex; [Fun.protect] guarantees a killed or crashed run
     still unregisters — no ticket is left armed. *)
  mutable active : Governor.t list;
  mutex : Mutex.t;
}

let of_mvcc ?(cache_capacity = 64) mvcc =
  if cache_capacity < 1 then
    invalid_arg "Session: cache_capacity must be positive";
  {
    mvcc;
    capacity = cache_capacity;
    table = Hashtbl.create (2 * cache_capacity);
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    stats_memo = None;
    active = [];
    mutex = Mutex.create ();
  }

let create ?cache_capacity ?compact_threshold store =
  of_mvcc ?cache_capacity (Rdf_store.Mvcc.create ?compact_threshold store)

(* A durable session: the lineage recovers from (and logs to) a WAL
   directory — see {!Rdf_store.Mvcc.open_dir}. *)
let open_dir ?cache_capacity ?compact_threshold ?policy ?init dir =
  let mvcc, recovery =
    Rdf_store.Mvcc.open_dir ?compact_threshold ?policy ?init dir
  in
  (of_mvcc ?cache_capacity mvcc, recovery)

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let mvcc t = t.mvcc

(* Snapshot acquisition is wait-free — no session mutex. *)
let snapshot t = Rdf_store.Mvcc.snapshot t.mvcc

let store t = Rdf_store.Snapshot.base (snapshot t)

let epoch t = Rdf_store.Snapshot.version (snapshot t)

let stats_for_locked t snap =
  let version = Rdf_store.Snapshot.version snap in
  match t.stats_memo with
  | Some (v, stats) when v = version -> stats
  | _ ->
      (* [Stats.of_snapshot] rides the per-base weak memo, so this
         recompute is the O(|delta|) adjustment, not a store scan. *)
      let stats = Rdf_store.Stats.of_snapshot snap in
      t.stats_memo <- Some (version, stats);
      stats

let stats t = with_lock t (fun () -> stats_for_locked t (snapshot t))

let invalidate_locked t =
  Hashtbl.reset t.table;
  t.stats_memo <- None

let invalidate t = with_lock t (fun () -> invalidate_locked t)

let set_store t store =
  with_lock t (fun () ->
      Rdf_store.Mvcc.set_base t.mvcc store;
      invalidate_locked t)

(* --- Transactions --------------------------------------------------------- *)

(* Writes live entirely in the MVCC layer; the session cache needs no
   notification. A commit publishes a new snapshot version (stats memo
   re-keys itself on next use), and cached plans re-validate per lookup
   — only a compaction's base-epoch change actually drops them. *)
let begin_txn t = Rdf_store.Mvcc.begin_txn t.mvcc

let commit (_t : t) txn = ignore (Rdf_store.Mvcc.commit txn)

let abort (_t : t) txn = Rdf_store.Mvcc.abort txn

let compact t = ignore (Rdf_store.Mvcc.compact t.mvcc)

let checkpoint t = ignore (Rdf_store.Mvcc.checkpoint t.mvcc)

let sync t = Rdf_store.Mvcc.sync t.mvcc

(* --- The plan cache ------------------------------------------------------- *)

let touch t entry =
  t.tick <- t.tick + 1;
  entry.last_used <- t.tick

(* Capacity is small and bounded, so a linear scan for the least
   recently used entry keeps the structure trivial. *)
let evict_lru_locked t =
  let victim =
    Hashtbl.fold
      (fun key entry acc ->
        match acc with
        | Some (_, best) when best.last_used <= entry.last_used -> acc
        | _ -> Some (key, entry))
      t.table None
  in
  match victim with
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      t.evictions <- t.evictions + 1
  | None -> ()

(* Is a cached plan still meaningful under [snap]? See the module
   header: same base, and Missing-compiled constants only tolerate an
   unchanged dictionary. *)
let valid_for prepared snap =
  Prepared.base_epoch prepared = Rdf_store.Snapshot.base_epoch snap
  && ((not (Prepared.has_missing prepared))
      || Prepared.dict_size prepared = Rdf_store.Snapshot.dict_size snap)

(* [parse] defers text parsing to the miss path — the update path feeds
   an already-built AST under a synthetic key. *)
let prepare_locked t ~mode ~engine ~snap ~parse text =
  let key = (text, mode, engine) in
  let cached =
    match Hashtbl.find_opt t.table key with
    | Some entry when valid_for entry.prepared snap -> Some entry
    | Some _ ->
        (* Stale plan (compacted base, or Missing + dictionary growth):
           drop it eagerly so it does not occupy a cache slot waiting
           for LRU pressure. *)
        Hashtbl.remove t.table key;
        None
    | None -> None
  in
  match cached with
  | Some entry ->
      t.hits <- t.hits + 1;
      touch t entry;
      ( entry,
        { Prepared.hit = true; hits = t.hits; misses = t.misses } )
  | None ->
      t.misses <- t.misses + 1;
      let stats = stats_for_locked t snap in
      let prepared =
        Prepared.prepare_snapshot ~mode ~engine ~stats ~text snap (parse ())
      in
      if Hashtbl.length t.table >= t.capacity then evict_lru_locked t;
      (* Chaos site: a kill here (before the insert) must leave the cache
         exactly as it was — the next run re-prepares and inserts. *)
      Sparql.Governor.failpoint "cache.insert";
      let entry = { prepared; feedback = Feedback.create (); last_used = 0 } in
      touch t entry;
      Hashtbl.replace t.table key entry;
      ( entry,
        { Prepared.hit = false; hits = t.hits; misses = t.misses } )

let prepare ?(mode = Prepared.Full) ?(engine = Engine.Bgp_eval.Wco) t text =
  let snap = snapshot t in
  let entry, _ =
    with_lock t (fun () ->
        prepare_locked t ~mode ~engine ~snap
          ~parse:(fun () -> Sparql.Parser.parse text)
          text)
  in
  entry.prepared

(* The feedback cache attached to a cached plan, when one is cached —
   observability for tests and the bench harness (how many BGPs have
   observed cardinalities after a run). *)
let feedback ?(mode = Prepared.Full) ?(engine = Engine.Bgp_eval.Wco) t text =
  with_lock t (fun () ->
      Option.map
        (fun entry -> entry.feedback)
        (Hashtbl.find_opt t.table (text, mode, engine)))

(* --- Governed execution --------------------------------------------------- *)

let register t gov = with_lock t (fun () -> t.active <- gov :: t.active)

let unregister t gov =
  with_lock t (fun () ->
      t.active <- List.filter (fun g -> g != gov) t.active)

let active_runs t = with_lock t (fun () -> List.length t.active)

let cancel t =
  with_lock t (fun () ->
      List.iter Governor.cancel t.active;
      List.length t.active)

(* --- Retry backoff --------------------------------------------------------- *)

(* Decorrelated jitter (the "exp. backoff and jitter" scheme): each
   delay is drawn uniformly from [base, 3 * previous], capped — the
   expectation grows geometrically while concurrent retriers
   decorrelate instead of thundering back in lockstep. The RNG is an
   explicit seeded state, so a test injecting its own [sleep] observes
   a reproducible delay sequence. *)
type backoff = {
  base_ms : float;
  cap_ms : float;
  mutable prev_ms : float;
  rng : Random.State.t;
  sleep : float -> unit;
}

let backoff ?(base_ms = 1.0) ?(cap_ms = 50.0) ?(seed = 0x5bd1e995) ?sleep () =
  if base_ms <= 0. || cap_ms < base_ms then
    invalid_arg "Session.backoff: need 0 < base_ms <= cap_ms";
  let sleep =
    match sleep with
    | Some f -> f
    | None -> fun ms -> Unix.sleepf (ms /. 1000.)
  in
  { base_ms; cap_ms; prev_ms = base_ms; rng = Random.State.make [| seed |]; sleep }

let backoff_delay b =
  let hi = Float.max b.base_ms (3.0 *. b.prev_ms) in
  let d =
    Float.min b.cap_ms (b.base_ms +. Random.State.float b.rng (hi -. b.base_ms))
  in
  b.prev_ms <- d;
  d

(* One governed attempt: a single snapshot is pinned for validation AND
   execution, the ticket is ambient for the prepare phase too (so the
   cache.insert failpoint is reachable) and registered with the session
   for the whole attempt, so [cancel] can reach it. *)
let attempt ~mode ~engine ?domains ?adaptive ?row_budget ?timeout_ms ?partial
    ~faults ~parse t text =
  let gov = Prepared.ticket ?row_budget ?timeout_ms ~faults () in
  register t gov;
  Fun.protect
    ~finally:(fun () -> unregister t gov)
    (fun () ->
      let snap = snapshot t in
      let entry, cache, stats =
        Governor.with_ticket gov (fun () ->
            with_lock t (fun () ->
                let entry, cache =
                  prepare_locked t ~mode ~engine ~snap ~parse text
                in
                (entry, cache, stats_for_locked t snap)))
      in
      Prepared.execute ?domains ?adaptive ~feedback:entry.feedback
        ?partial ~governor:gov ~cache ~snapshot:snap ~stats entry.prepared)

let run_gen ~mode ~engine ?domains ?adaptive ?row_budget ?timeout_ms ?partial
    ?(retries = 0) ?(faults = []) ?backoff:bo ~parse t text =
  (* Bounded retry with a fresh ticket per attempt. Only transient
     failures retry (a cancellation is the caller's intent and must
     stick). Fault values are shared by reference across attempts, so a
     one-shot injected fault stays spent and the retry runs clean — the
     recovery path the chaos suite exercises. A kill during the prepare
     phase (only injected faults can fire there) surfaces as
     [Governor.Kill] from the attempt and is retried the same way.

     Each retry waits a capped, decorrelated-jitter delay first —
     immediate re-runs of a timed-out or out-of-budget query mostly hit
     the same contention that killed them. The backoff state is lazy:
     a run that never retries never allocates (or seeds) it. *)
  let bo =
    lazy (match bo with Some b -> b | None -> backoff ())
  in
  let retry attempts_left =
    let b = Lazy.force bo in
    b.sleep (backoff_delay b);
    attempts_left - 1
  in
  let rec go attempts_left =
    let outcome =
      match
        attempt ~mode ~engine ?domains ?adaptive ?row_budget ?timeout_ms
          ?partial ~faults ~parse t text
      with
      | report -> Ok report
      | exception Governor.Kill f -> Error f
    in
    match outcome with
    | Ok { Prepared.failure = Some f; _ }
      when attempts_left > 0 && Governor.transient f ->
        go (retry attempts_left)
    | Ok report -> report
    | Error f when attempts_left > 0 && Governor.transient f ->
        go (retry attempts_left)
    | Error f -> raise (Governor.Kill f)
  in
  go (max 0 retries)

let run ?(mode = Prepared.Full) ?(engine = Engine.Bgp_eval.Wco) ?domains
    ?adaptive ?row_budget ?timeout_ms ?partial ?retries ?faults ?backoff t text
    =
  run_gen ~mode ~engine ?domains ?adaptive ?row_budget ?timeout_ms ?partial
    ?retries ?faults ?backoff
    ~parse:(fun () -> Sparql.Parser.parse text)
    t text

(* The update path: run an already-built query AST through the same
   cache and governance under a synthetic key (see {!Update_exec}). *)
let run_query_ast ?(mode = Prepared.Full) ?(engine = Engine.Bgp_eval.Wco)
    ?domains ?adaptive ?row_budget ?timeout_ms ?partial ?retries ?faults
    ?backoff t ~key query =
  run_gen ~mode ~engine ?domains ?adaptive ?row_budget ?timeout_ms ?partial
    ?retries ?faults ?backoff
    ~parse:(fun () -> query)
    t key

let hits t = with_lock t (fun () -> t.hits)
let misses t = with_lock t (fun () -> t.misses)
let evictions t = with_lock t (fun () -> t.evictions)
let cache_length t = with_lock t (fun () -> Hashtbl.length t.table)
let capacity t = t.capacity
