(** Bags (multisets) of mappings, with the four operators of Section 3:
    join ⋈, bag union ∪_bag, difference ∖ (anti-join on compatibility) and
    left outer join ⟕. All operators preserve duplicates (bag semantics).

    Every bag in a query shares the same width (the query's {!Vartable}
    size); a row may leave any column unbound, so UNION branches and
    OPTIONAL extensions with different domains coexist. *)

type t

(** {1 Resource accounting}

    Every row production (a {!push} into a bag, or an {!account} for a
    streamed row) is charged against the ambient {!Governor} ticket: the
    ticket's row budget is the analogue of the paper's memory limit (base
    runs out of memory on 13 of 24 queries; the bench harness must observe
    that as a recoverable condition, not an actual OOM), and its deadline
    and cancellation flag are checked on a per-bag stride so the checks
    still trigger deterministically when parallel workers push into
    worker-local bags. A bag captures the ticket ambient at {!create}
    time; exhaustion raises [Governor.Kill]. With no ticket installed,
    accounting runs against the calling domain's unlimited default. *)

(** [account ()] charges the production of one streamed row against the
    ambient ticket: the same budget/deadline/counter accounting as
    {!push}, without materializing. Streaming producers call it once per
    row emitted into a sink pipeline, so resource limits mean the same
    thing whether an operator materializes or streams. Its deadline
    stride is approximate when several domains call it at once (see
    [Governor.charge_stream]); morsel workers emitting into shard sinks
    use {!emit_charged} instead. *)
val account : unit -> unit

(** {1 Construction} *)

(** [create ~width] — an empty bag. *)
val create : width:int -> t

(** [create_sized ~capacity ~width] — an empty bag whose row array is
    preallocated to [capacity] (morsel workers size local bags to the
    expected morsel output, avoiding early doubling copies). *)
val create_sized : capacity:int -> width:int -> t

(** [unit ~width] holds exactly one all-unbound mapping — the value of the
    empty group pattern and the join identity. *)
val unit : width:int -> t

val push : t -> Binding.t -> unit

val of_rows : width:int -> Binding.t list -> t

(** [concat ~width parts] concatenates worker-local bags produced by a
    parallel step. The rows were budget-accounted when first pushed into
    their part, so concatenation itself consumes no budget. *)
val concat : width:int -> t list -> t

(** {1 Access} *)

val width : t -> int
val length : t -> int
val is_empty : t -> bool
val get : t -> int -> Binding.t
val iter : t -> f:(Binding.t -> unit) -> unit
val fold : t -> init:'a -> f:('a -> Binding.t -> 'a) -> 'a

(** [bound_columns bag] is the sorted list of columns bound in at least one
    row — the bag's (possible) domain, used to find join keys. *)
val bound_columns : t -> int list

(** [universal_columns bag] is the sorted list of columns bound in *every*
    row — the only columns whose value sets may soundly serve as candidate
    results (a row leaving the column unbound is compatible with any
    value). Empty for the empty bag. *)
val universal_columns : t -> int list

(** [distinct_values bag ~col] is the set of distinct bound values in
    [col], as a hashtable used for candidate pruning. *)
val distinct_values : t -> col:int -> (int, unit) Hashtbl.t

(** {1 The Section 3 operators} *)

(** [join b1 b2] — Ω1 ⋈ Ω2. *)
val join : t -> t -> t

(** [union b1 b2] — Ω1 ∪_bag Ω2. *)
val union : t -> t -> t

(** [minus b1 b2] — Ω1 ∖ Ω2 = mappings of Ω1 compatible with no mapping of
    Ω2. *)
val minus : t -> t -> t

(** [semijoin b1 b2] — Ω1 ⋉ Ω2: mappings of Ω1 compatible with at least
    one mapping of Ω2 (the pruning primitive of LBR's two-pass scans). *)
val semijoin : t -> t -> t

(** [sparql_minus b1 b2] — SPARQL 1.1 MINUS: μ1 survives unless some μ2 is
    compatible *and* shares at least one bound variable with it
    (disjoint-domain mappings never exclude). *)
val sparql_minus : t -> t -> t

(** [sort bag ~keys ~compare_ids] — stable sort by [(column, descending)]
    keys; unbound precedes every bound value; bound values compare via
    [compare_ids] (typically term order through the dictionary). *)
val sort : t -> keys:(int * bool) list -> compare_ids:(int -> int -> int) -> t

(** [left_outer_join b1 b2] — Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪_bag (Ω1 ∖ Ω2). *)
val left_outer_join : t -> t -> t

(** {1 Other operations} *)

val filter : t -> f:(Binding.t -> bool) -> t

(** [project bag ~cols] keeps only [cols]; other columns become unbound. *)
val project : t -> cols:int list -> t

(** [dedup bag] removes duplicate rows (for SELECT DISTINCT). *)
val dedup : t -> t

(** [equal_as_bags b1 b2] — multiset equality, used as the correctness
    criterion in tests. *)
val equal_as_bags : t -> t -> bool

(** {1 Sink-driven operator variants}

    Streaming counterparts of the operators above: instead of returning a
    materialized bag, output rows flow into a {!Sink.t} (and are charged
    via {!account} exactly once, at the producing operator boundary).
    [Sink.Stop] raised by the sink aborts the probe loop, so a downstream
    LIMIT early-terminates the pipeline. When the caller passes a
    {!runner} ([?pool]), a large probe side is morselized across domains
    and each worker emits into its own shard of the sink; a [Stop] in any
    worker stops the others at their next morsel boundary (true
    cross-domain early termination, not a serial replay of worker bags). *)

(** A parallel fan-out, supplied by the layer that owns the domain pool
    (this library cannot depend on it). [run ~n ~sink ~body] calls
    [body shard i] for every [0 <= i < n], where [shard] is the calling
    domain's private shard of [sink] (see {!Sink.fork}; an unforkable sink
    runs serially over [sink] itself). Each worker must run under the
    submitting domain's ambient governor ticket. A [Sink.Stop] raised by a
    shard stops the other workers at their next morsel boundary and is
    re-raised in the caller after the shards have drained. *)
type runner = n:int -> sink:Sink.t -> body:(Sink.t -> int -> unit) -> unit

(** [sink bag] — the materializing terminal: every emitted row is appended
    to [bag] by blit (production was already charged). *)
val sink : t -> Sink.t

(** [emit_accounted sink row] — charge one produced row ({!account}) and
    emit it. *)
val emit_accounted : Sink.t -> Binding.t -> unit

(** [emit_charged sink row] — charge one produced row through the
    ticket's atomic stride and emit it; safe from any domain. Morsel
    workers emitting into shard sinks use this. *)
val emit_charged : Sink.t -> Binding.t -> unit

(** [replay bag ~sink] re-emits a materialized bag into a sink across an
    operator boundary (charged, like the materializing {!union}'s
    re-push). *)
val replay : t -> sink:Sink.t -> unit

val join_into : ?pool:runner -> t -> t -> sink:Sink.t -> unit
val left_outer_join_into : ?pool:runner -> t -> t -> sink:Sink.t -> unit
val sparql_minus_into : t -> t -> sink:Sink.t -> unit

(** [join_sink build ~probe_cols ~sink] — a row-at-a-time join for
    producers that stream their probe side: partitions [build] once on the
    intersection of its domain with [probe_cols] and returns the per-row
    probe function (each match is merged and emitted). *)
val join_sink : t -> probe_cols:int list -> sink:Sink.t -> Binding.t -> unit

(** [probe_merged build ~probe_cols] — the emit-parameterized form of
    {!join_sink}: partitions [build] once and returns a probe function
    over any emitter. The partition is read-only after construction, so
    several domains may probe it concurrently, each emitting into its own
    shard sink. *)
val probe_merged :
  t -> probe_cols:int list -> emit:(Binding.t -> unit) -> Binding.t -> unit

(** [row_compare ~keys ~compare_ids] — the ORDER BY row comparator used by
    {!sort}, exposed for the streaming sort/top-k stages. *)
val row_compare :
  keys:(int * bool) list ->
  compare_ids:(int -> int -> int) ->
  Binding.t ->
  Binding.t ->
  int

(** [pp table fmt bag] prints rows using variable names from [table]. *)
val pp : Vartable.t -> Format.formatter -> t -> unit
