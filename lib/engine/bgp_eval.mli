(** The BGP evaluation facade: the "existing BGP query evaluation
    technique" that Algorithm 1 calls as [EvaluateBGP], with the two
    engines the paper implements on (gStore's WCO joins, Jena's binary
    hash joins) and the estimation interface the SPARQL-UO cost model
    reads (Section 5.1). *)

type engine = Wco | Hash_join

val engine_name : engine -> string

type t
(** An evaluation context: store + statistics + the query's variable
    table. *)

(** [make_snapshot ?stats ?domains snapshot vartable engine] — the
    context evaluates against the given immutable snapshot view.
    [domains] (default 1) is the number of domains BGP evaluation and
    the evaluator may use; [domains > 1] attaches the process-global
    {!Pool}. When [stats] is omitted they come from
    {!Rdf_store.Stats.of_snapshot}, so repeated context construction
    against one base does not rescan it. *)
val make_snapshot :
  ?stats:Rdf_store.Stats.t ->
  ?domains:int ->
  Rdf_store.Snapshot.t ->
  Sparql.Vartable.t ->
  engine ->
  t

(** [make ?stats ?domains store vartable engine] is {!make_snapshot}
    over the plain (empty-delta) view of [store]. *)
val make :
  ?stats:Rdf_store.Stats.t ->
  ?domains:int ->
  Rdf_store.Triple_store.t ->
  Sparql.Vartable.t ->
  engine ->
  t

(** [with_domains ctx ~domains] is [ctx] retargeted to another domain
    count. The memoized BGP plans (compiled patterns + estimates) are
    shared with [ctx], so a prepared query re-executes at any domain
    count without recompiling. *)
val with_domains : t -> domains:int -> t

(** [with_store ctx snapshot ~stats] is [ctx] retargeted to a newer
    snapshot of the same lineage (same shared dictionary — ids are
    append-only, so compiled constants remain valid). Shares the
    memoized plans; the plan cache invalidates wholesale on base-epoch
    changes, so estimate staleness is bounded by one delta. *)
val with_store : t -> Rdf_store.Snapshot.t -> stats:Rdf_store.Stats.t -> t

val store : t -> Rdf_store.Snapshot.t
val stats : t -> Rdf_store.Stats.t
val vartable : t -> Sparql.Vartable.t
val engine : t -> engine
val domains : t -> int

(** [pool ctx] — the domain pool when [domains > 1]; [None] otherwise. *)
val pool : t -> Pool.t option

val width : t -> int

(** [eval_into ctx patterns ~candidates ~sink] evaluates a BGP (a list
    of triple patterns): the final evaluation step emits rows into [sink],
    so a downstream LIMIT can short-circuit it via [Sink.Stop]; a caller
    that needs the whole result collects it with {!Sparql.Bag.sink}. The
    empty pattern list emits the single unit row. *)
val eval_into :
  t ->
  Sparql.Triple_pattern.t list ->
  candidates:Candidates.t ->
  sink:Sparql.Sink.t ->
  unit

(** [eval_into_with ctx ~engine patterns ~candidates ~sink] — {!eval_into}
    with the engine chosen per call instead of from the context. The
    adaptive executor uses this to pick wco vs hash probe per BE-tree
    node based on the plan's engine-specific cost estimates; memoized
    plans are engine-independent so the override costs nothing extra. *)
val eval_into_with :
  t ->
  engine:engine ->
  Sparql.Triple_pattern.t list ->
  candidates:Candidates.t ->
  sink:Sparql.Sink.t ->
  unit

(** [plan ctx patterns] exposes the planner's estimates for the BGP. *)
val plan : t -> Sparql.Triple_pattern.t list -> Planner.plan

(** [estimate_cost ctx patterns] is the engine-specific evaluation cost
    estimate — the [cost(B)] term of Equations 2 and 6. *)
val estimate_cost : t -> Sparql.Triple_pattern.t list -> float

(** [estimate_card ctx patterns] is the estimated result size — the
    [|res(B)|] term of Equations 3 and 7. *)
val estimate_card : t -> Sparql.Triple_pattern.t list -> float
