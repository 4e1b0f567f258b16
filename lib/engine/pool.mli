(** A morsel-driven work-stealing scheduler over a fixed set of worker
    domains (stdlib [Domain], no external deps).

    A parallel operation seeds per-slot deques with small fixed-size
    morsels (contiguous index ranges); every participating domain — the
    caller included — pops from the front of its own deque and steals from
    the backs of the others when it runs dry. An atomic per-job [Stop]
    flag is checked at every morsel boundary, so streaming early
    termination (a satisfied LIMIT) and governor kills genuinely cross
    domains instead of waiting for workers to exhaust their share. Nested
    parallel calls seed their own job into the shared scheduler and help
    execute it (no serial degradation, no deadlock); idle workers pick up
    morsels of any active job. *)

type t

(** [create ~num_domains] spawns [num_domains - 1] worker domains (the
    caller is the remaining participant). [num_domains <= 1] spawns none. *)
val create : num_domains:int -> t

(** [shutdown pool] stops and joins the workers. The pool must be idle. *)
val shutdown : t -> unit

val num_domains : t -> int

(** The number of indices per morsel (64) when a loop does not pass its
    own. *)
val morsel_size : int

(** [adaptive_morsel pool ~n] picks a morsel size for a range of [n]
    cheap uniform indices (e.g. materializing rows from an intersected
    extension domain): {!morsel_size}, reduced for small ranges so
    they still spread across slots (clamped to at least 16). *)
val adaptive_morsel : t -> n:int -> int

(** {1 Scheduler counters} *)

(** [morsels] executed, successful [steals] (a morsel claimed from
    another slot's deque), and [stops] (jobs ended early by a
    cross-domain [Stop]), as charged to one execution's ticket: every
    job charges the ticket it carries. *)
type counters = { morsels : int; steals : int; stops : int }

(** [of_counts c] reads the scheduler counters out of a ticket snapshot. *)
val of_counts : Sparql.Governor.counts -> counters

(** {1 Parallel loops} *)

(** [accumulate pool ~lo ~hi ~create ~body ()] applies [body acc i] to
    every [lo <= i < hi]; each participating domain folds into its own
    accumulator obtained from [create]. Returns all accumulators (in no
    particular order of contribution). [morsel] is the number of indices
    per morsel (default {!morsel_size}).

    Each morsel runs under the submitting domain's ambient
    [Sparql.Governor] ticket — stolen morsels included — so parallel row
    production charges the same per-query budget as the serial path, and
    cancellation/deadline are checked at every morsel boundary. A
    [Governor.Kill] (or any other exception) raised in one morsel parks
    every domain at its next morsel boundary and is re-raised in the
    caller once the job has quiesced. *)
val accumulate :
  t ->
  ?morsel:int ->
  lo:int ->
  hi:int ->
  create:(unit -> 'acc) ->
  body:('acc -> int -> unit) ->
  unit ->
  'acc list

(** [parallel_map pool ~lo ~hi f] — the array [| f lo; ...; f (hi-1) |],
    computed in parallel. *)
val parallel_map : t -> ?morsel:int -> lo:int -> hi:int -> (int -> 'a) -> 'a array

(** [stream pool ~lo ~hi ~sink ~local ~body ()] — the streaming fan-out:
    [body scratch shard i] emits the rows of index [i] into [shard], the
    calling agent's private shard of [sink] (see [Sparql.Sink.fork]), with
    [scratch] the agent's private state from [local]. Workers emit
    through [Sparql.Bag.emit_charged]; a [Sink.Stop] raised by any shard
    stops the other domains at their next morsel boundary, the shards
    drain serially into the pipeline, and [Stop] re-raises here — callers
    observe exactly the serial early-termination protocol. Runs serially
    over [sink] itself (same per-morsel governor ticks) when the pool has
    one domain or the sink is not forkable. *)
val stream :
  t ->
  ?morsel:int ->
  lo:int ->
  hi:int ->
  sink:Sparql.Sink.t ->
  local:(unit -> 'local) ->
  body:('local -> Sparql.Sink.t -> int -> unit) ->
  unit ->
  unit

(** {1 The shared pool}

    One pool backs the executor's [~domains] knob; it is resized lazily and
    reused across queries (worker domains are expensive to spawn per
    query). Queries share its domains, not its counters: each job charges
    its own ticket. *)

(** [ensure ~num_domains] returns the shared pool, growing it if it is
    smaller than [num_domains] (grow-only: a larger existing pool is
    reused as is, so a shrink request can never tear the workers out from
    under a concurrent query). [None] when [num_domains <= 1] and no pool
    exists yet. *)
val ensure : num_domains:int -> t option

(** [bag_runner pool] — [pool] as the fan-out of [Sparql.Bag.join_into] /
    [Sparql.Bag.left_outer_join_into] ({!stream} over the probe rows). *)
val bag_runner : t -> Sparql.Bag.runner

(** [install_bulk_runner pool] installs [pool] as the store layer's
    bulk-load runner ({!Rdf_store.Bulk}): the six per-order sort/encode
    tasks of every index build run one-per-morsel across the pool's
    domains. Call after {!ensure} when running with [--domains > 1]. *)
val install_bulk_runner : t -> unit
