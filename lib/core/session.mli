(** A long-lived query session: the writer handle of an MVCC store
    lineage plus a bounded plan cache (LRU over (text, mode, engine))
    and a statistics memo, shared by every run.

    {b Snapshot pinning.} Every {!run} acquires one snapshot (an O(1)
    atomic read of the current published view) and uses it for both
    cache validation and execution — a concurrent {!commit} never
    changes what an in-flight query reads.

    {b Invalidation.} A cached plan stays valid across delta commits:
    dictionary ids are append-only, so compiled constants survive, and
    execution simply retargets the plan to the pinned snapshot. A plan
    is dropped only when (a) the base epoch changed — compaction or
    {!set_store} — or (b) it compiled a constant to [Missing] and the
    dictionary has since grown (the constant may now exist). Statistics
    are memoized per snapshot version.

    The session serializes cache/memo access behind a mutex, and the
    MVCC layer serializes writers; readers never block. Concurrent
    {!run}s from multiple domains share one cache. Each run executes
    under its own {!Sparql.Governor} ticket, so concurrent runs with
    different limits are fully isolated; the session tracks in-flight
    tickets so {!cancel} can kill every run currently executing, from
    any domain. *)

type t

(** [create ?cache_capacity ?compact_threshold store] opens a session
    over [store] with a plan cache of at most [cache_capacity] entries
    (default 64; raises [Invalid_argument] on a non-positive capacity).
    [compact_threshold] is forwarded to {!Rdf_store.Mvcc.create}: once
    the live delta reaches that many rows, a commit folds it into a
    fresh base epoch. *)
val create :
  ?cache_capacity:int ->
  ?compact_threshold:int ->
  Rdf_store.Triple_store.t ->
  t

(** [of_mvcc mvcc] opens a session over an existing MVCC lineage —
    the durable path ({!Rdf_store.Mvcc.open_dir}) hands its handle
    here. Raises [Invalid_argument] on a non-positive cache
    capacity. *)
val of_mvcc : ?cache_capacity:int -> Rdf_store.Mvcc.t -> t

(** [open_dir dir] opens (or initializes) a durable session whose
    commits are written ahead to a log in [dir] — see
    {!Rdf_store.Mvcc.open_dir} for the recovery contract. Returns the
    session plus the recovery summary (how many transactions were
    replayed, how many torn bytes truncated). Raises
    {!Rdf_store.Wal.Unrecoverable} when the directory needs operator
    intervention. *)
val open_dir :
  ?cache_capacity:int ->
  ?compact_threshold:int ->
  ?policy:Rdf_store.Wal.sync_policy ->
  ?init:(unit -> Rdf_store.Triple_store.t) ->
  string ->
  t * Rdf_store.Wal.recovery

(** [mvcc t] — the underlying MVCC handle (e.g. for
    {!Rdf_store.Mvcc.apply} or direct transaction plumbing). *)
val mvcc : t -> Rdf_store.Mvcc.t

(** [snapshot t] acquires the current consistent view. Wait-free. *)
val snapshot : t -> Rdf_store.Snapshot.t

(** [store t] — the base store of the current snapshot. *)
val store : t -> Rdf_store.Triple_store.t

(** [set_store t store] replaces the whole lineage with [store] (a bulk
    rebuild) and invalidates the plan cache and statistics memo. *)
val set_store : t -> Rdf_store.Triple_store.t -> unit

(** [epoch t] — the current snapshot version. *)
val epoch : t -> int

(** [stats t] — statistics for the current snapshot, memoized by
    snapshot version (and per base store process-wide, via
    {!Rdf_store.Stats.cached}). *)
val stats : t -> Rdf_store.Stats.t

(** {1 Transactions}

    Thin veneer over {!Rdf_store.Mvcc}: buffer triple-level writes,
    then publish them atomically. Readers (including this session's own
    in-flight runs) keep their pinned snapshot; runs started after the
    commit see all of it. Committing does {e not} flush the plan cache
    — cached plans revalidate per lookup and retarget to the new
    snapshot. *)

val begin_txn : t -> Rdf_store.Mvcc.txn

(** [commit t txn] publishes the transaction's effects as a new
    snapshot version (no-op for an empty transaction). May trigger
    automatic compaction when the delta crosses the session's
    threshold. *)
val commit : t -> Rdf_store.Mvcc.txn -> unit

val abort : t -> Rdf_store.Mvcc.txn -> unit

(** [compact t] eagerly folds the current delta into a fresh base
    epoch. In-flight readers keep their old view; the plan cache lazily
    drops stale entries on their next lookup. *)
val compact : t -> unit

(** [checkpoint t] — {!compact}, but on a durable session it also
    rotates the write-ahead log when the delta is empty, bounding
    recovery replay to zero transactions. *)
val checkpoint : t -> unit

(** [sync t] forces every appended commit to durable storage (a no-op
    on in-memory sessions; useful before exit under the
    [Never]/[Interval] sync policies). *)
val sync : t -> unit

(** {1 Retry backoff}

    Delay source for {!run}'s transient-failure retries: capped
    decorrelated jitter (each delay is uniform in [[base, 3·previous]],
    clamped to [cap]), deterministic under a fixed [seed]. *)

type backoff

(** [backoff ()] — fresh state. Defaults: [base_ms = 1.0],
    [cap_ms = 50.0], a fixed seed (so two sessions built with the same
    arguments produce the same delay sequence), and [sleep] backed by
    [Unix.sleepf]. Pass [~sleep] to capture or suppress the waits in
    tests. *)
val backoff :
  ?base_ms:float ->
  ?cap_ms:float ->
  ?seed:int ->
  ?sleep:(float -> unit) ->
  unit ->
  backoff

(** [backoff_delay b] draws the next delay (milliseconds), advancing
    [b]'s state. Exposed for testing the schedule without sleeping. *)
val backoff_delay : backoff -> float

(** {1 Preparing and running queries} *)

(** [prepare ?mode ?engine t text] returns the cached plan for
    [(text, mode, engine)] valid under the current snapshot, preparing
    and caching it on a miss. Defaults: [Full], [Wco]. *)
val prepare :
  ?mode:Prepared.mode ->
  ?engine:Engine.Bgp_eval.engine ->
  t ->
  string ->
  Prepared.t

(** [feedback ?mode ?engine t text] — the observed-cardinality cache
    attached to the cached plan for [(text, mode, engine)], if one is
    currently cached. Each cached plan owns one: executions record each
    unpruned BGP's actual row count into it, and later executions of the
    same plan start their estimates (candidate admission, cost pricing)
    from those observations. Dropped together with the plan on eviction,
    staleness or {!invalidate}. *)
val feedback :
  ?mode:Prepared.mode ->
  ?engine:Engine.Bgp_eval.engine ->
  t ->
  string ->
  Feedback.t option

(** [run ?mode ?engine ?domains ?row_budget ?timeout_ms ?partial
    ?retries ?faults t text] — {!prepare} (through the cache)
    followed by {!Prepared.execute}, both against one snapshot pinned
    at the start of the attempt, under a fresh governor ticket
    registered with the session for the duration of the run (so
    {!cancel} can reach it). The report's [cache] field records whether
    this run hit, plus the session's cumulative counters; its [epoch]
    field is the pinned snapshot's version.

    [partial] (default [false]): a killed run returns the rows
    materialized before the limit fired, marked in the report.
    [retries] (default 0) bounds retry-with-fresh-budget: a transient
    failure (anything but [Cancelled]) re-runs with a fresh ticket up
    to [retries] times; the final attempt's report is returned either
    way. Each retry first waits a delay drawn from [backoff] (default:
    a fresh {!backoff}[ ()] — capped decorrelated jitter), so hammering
    a contended store is bounded; pass one explicitly to control or
    observe the schedule. [faults] arms a chaos schedule on each
    attempt's ticket —
    fault countdowns are shared across attempts, so a one-shot fault
    stays spent and the retry runs clean.

    A kill during the {e prepare} phase (only injected faults fire
    there — the budget and deadline are execution-side) has no report
    to return: after retries are exhausted it escapes as
    [Sparql.Governor.Kill].

    [adaptive] (default [true]) controls the adaptive execution layer
    (Full mode only — see {!Prepared.execute}); the run consults and
    updates the cached plan's {!feedback}, so repeated runs of one query
    start from observed cardinalities. *)
val run :
  ?mode:Prepared.mode ->
  ?engine:Engine.Bgp_eval.engine ->
  ?domains:int ->
  ?adaptive:bool ->
  ?row_budget:int ->
  ?timeout_ms:float ->
  ?partial:bool ->
  ?retries:int ->
  ?faults:Sparql.Governor.fault list ->
  ?backoff:backoff ->
  t ->
  string ->
  Prepared.report

(** [run_query_ast t ~key query] is {!run} for an already-built query
    AST, cached under the synthetic key [key]. The caller must ensure
    [key] uniquely determines [query] — see {!Update_exec}, which
    routes UPDATE WHERE-clauses through the session cache this way. *)
val run_query_ast :
  ?mode:Prepared.mode ->
  ?engine:Engine.Bgp_eval.engine ->
  ?domains:int ->
  ?adaptive:bool ->
  ?row_budget:int ->
  ?timeout_ms:float ->
  ?partial:bool ->
  ?retries:int ->
  ?faults:Sparql.Governor.fault list ->
  ?backoff:backoff ->
  t ->
  key:string ->
  Sparql.Ast.query ->
  Prepared.report

(** {1 Cancellation} *)

(** [cancel t] cancels every run currently in flight on this session
    (from any domain): each active ticket's cancellation flag is set,
    and the runs observe it at their next stride check, reporting
    [failure = Some Cancelled]. Returns the number of runs cancelled.
    Runs started after this call are unaffected. *)
val cancel : t -> int

(** [active_runs t] — the number of governor tickets currently
    registered (in-flight runs). Zero when the session is quiescent:
    every run unregisters its ticket on all exit paths. *)
val active_runs : t -> int

(** [invalidate t] drops every cached plan and the statistics memo. *)
val invalidate : t -> unit

(** {1 Cache observability (surfaced in [explain] and benchmarks)} *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int

(** [cache_length t] — number of currently cached plans. *)
val cache_length : t -> int

val capacity : t -> int
