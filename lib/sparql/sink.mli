(** Push-based row consumers — the streaming dual of {!Bag}.

    A producer feeds rows into a sink with {!emit} instead of returning a
    materialized bag; {!close} flushes buffered stages once the producer is
    done. A stage that needs no further input (a satisfied LIMIT) raises
    {!Stop}, which unwinds the producing pipeline — this is how LIMIT
    pushdown early-terminates index scans instead of paying for the full
    result.

    Combinators wrap an inner sink and return a new one, so pipelines are
    built terminal-first (the {!Bag.sink} materializer or any custom
    {!terminal}) and composed outward toward the producer. Every stage
    records rows-in/rows-out; all wrappers of one pipeline share the stage
    list, readable via {!stages} from any of its sinks.

    {b Parallel-safe sinks.} A pipeline whose stages all support sharding
    exposes a {!fork}: the morsel scheduler obtains one private shard sink
    per participating domain with [new_shard], workers feed their shards
    concurrently, and after all workers have quiesced the scheduler calls
    [drain] once to merge the shards' retained rows back into the serial
    pipeline — sharded DISTINCT deduplicates per domain and again
    globally at drain; per-domain top-k heaps bound memory to O(domains *
    k) and the serial heap selects the final k at drain; per-domain LIMIT
    buffers share one atomic row counter whose exhaustion raises {!Stop}
    in the feeding worker (the scheduler propagates it to the other
    domains at their next morsel boundary), and the drain replay
    reconciles the buffers against the exact global window. *)

type t

(** Raised by a stage that needs no further rows. Producers let it unwind
    (it aborts their scan loops); the driver catches it as a successful,
    early-terminated run. {!close} never raises it. *)
exception Stop

(** Per-stage row accounting: [rows_in] rows were fed to the stage,
    [rows_out] were forwarded downstream. *)
type stage = {
  name : string;
  mutable rows_in : int;
  mutable rows_out : int;
}

(** [emit sink row] feeds one row. May raise {!Stop}. The row must not be
    mutated afterwards (buffering stages keep references). *)
val emit : t -> Binding.t -> unit

(** [close sink] flushes buffering stages (sort, top-k) downstream and
    must be called exactly once, after the producer finished or stopped.
    Never raises {!Stop}. *)
val close : t -> unit

(** [stages sink] — the pipeline's stages in data-flow order (producer
    side first, terminal last). Under parallel production, the counters of
    buffering stages reflect the drain-time replay of what the shards
    retained (not every arrival at a shard), so they are approximate;
    terminal row counts and governor accounting stay exact. *)
val stages : t -> stage list

(** {1 Sharding} *)

(** The parallel-production contract of a sink: [new_shard] is called
    serially (under the scheduler's shard lock) once per participating
    domain; each shard is then fed by exactly one domain and never closed.
    [drain] is called serially, exactly once per parallel phase, after all
    shard users have quiesced; it merges the retained rows into the serial
    pipeline, resets the fork for a possible next phase, and raises
    {!Stop} iff the serial pipeline stopped during the merge. *)
type fork = {
  new_shard : unit -> t;
  drain : unit -> unit;
}

(** [fork sink] — the sink's sharding contract, or [None] when some stage
    of the pipeline cannot be fed from multiple domains (the scheduler
    must then drive the sink serially). *)
val fork : t -> fork option

(** [with_fork sink fork] — attach a sharding contract to a custom
    {!terminal} (e.g. {!Bag.sink}, which shards into per-domain bags
    blitted together at drain). *)
val with_fork : t -> fork -> t

(** [terminal ~name f] — the innermost sink: every row is passed to [f].
    [close] is a no-op. *)
val terminal : name:string -> (Binding.t -> unit) -> t

(** [counted ~name inner] — a transparent pass-through exposing its stage,
    for producers that need the cardinality of what they emitted. *)
val counted : name:string -> t -> t * stage

val filter : name:string -> f:(Binding.t -> bool) -> t -> t

(** [project ~width ~cols inner] rebuilds each row keeping only [cols]
    (other columns unbound), so downstream stages see projected rows. *)
val project : width:int -> cols:int list -> t -> t

(** [distinct inner] — streaming DISTINCT through a hash set: a row passes
    on first sight only. *)
val distinct : t -> t

(** [offset_limit ?offset ?limit inner] drops the first [offset] rows,
    forwards the next [limit] (all, when [limit] is [None]), then raises
    {!Stop} once the last needed row has been forwarded. *)
val offset_limit : ?offset:int -> ?limit:int -> t -> t

(** [aggregate ~name ~push ~flush inner] — streaming aggregation (GROUP
    BY and ungrouped): [push] folds each row into the caller's
    accumulators; [flush emit] computes the aggregate rows and emits them
    downstream at {!close} (an ungrouped aggregate produces a row even
    over empty input). Never forks — pipelines containing it are driven
    serially, keeping fold order deterministic. *)
val aggregate :
  name:string ->
  push:(Binding.t -> unit) ->
  flush:((Binding.t -> unit) -> unit) ->
  t ->
  t

(** [top_k ~compare ~k inner] — bounded ORDER BY + LIMIT: keeps the [k]
    smallest rows under [(compare, arrival order)] in a heap and flushes
    them sorted on {!close}; exactly the first [k] rows of a stable full
    sort. Only sound when nothing between the sort and the slice drops
    rows (no DISTINCT in between — use {!sort_all} there). *)
val top_k : compare:(Binding.t -> Binding.t -> int) -> k:int -> t -> t

(** [sort_all ~compare inner] buffers every row and replays them stably
    sorted on {!close}. *)
val sort_all : compare:(Binding.t -> Binding.t -> int) -> t -> t
