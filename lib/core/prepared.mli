(** The compile-once / execute-many layer: a prepared query captures
    everything about query processing that is execution-invariant — the
    parsed AST, the variable table, the projection, the BE-tree before
    and after the Algorithm-4 cost-driven transformation, the compiled
    triple patterns (memoized inside the evaluation context), and the
    transformation's wall-clock cost — so that the plan-level work of the
    paper (BE-tree + merge/inject + cost model) runs once and every
    subsequent {!execute} pays only for evaluation.

    What is deliberately {e not} captured: candidate pruning decisions
    (Section 6). Candidate sets are drawn from the intermediate results
    of the specific execution, so pruning is inherently per-execution;
    only the pruning {e rule} (the mode's threshold) is part of the
    prepared plan.

    A prepared query records the snapshot it was compiled under — the
    {!base_epoch}, the {!dict_size} and whether any constant compiled to
    [Missing] ({!has_missing}); {!Session} uses these to decide whether a
    cached plan is still valid for a later snapshot (same base and no
    Missing-sensitivity ⇒ valid, just retargeted to the newer delta). *)

(** The four configurations the paper evaluates (Section 7.1). *)
type mode = Base | TT | CP | Full

val mode_name : mode -> string
val all_modes : mode list

(** Why a run was killed — re-exported from {!Sparql.Governor}: the row
    budget (the paper's out-of-memory analogue), the wall-clock timeout,
    a cross-domain cancellation, or an injected chaos fault. *)
type failure = Sparql.Governor.failure =
  | Out_of_budget
  | Timeout
  | Cancelled
  | Injected_fault of string

val failure_name : failure -> string

(** Plan-cache provenance of one execution, attached by {!Session.run}:
    whether this plan came from the cache, plus the session's cumulative
    hit/miss counters at that point. *)
type cache_info = { hit : bool; hits : int; misses : int }

type report = {
  mode : mode;
  engine : Engine.Bgp_eval.engine;
  adaptive : bool;
      (** whether the adaptive execution layer (sideways prefilters,
          cardinality feedback, per-node engines) was active for this
          run — only ever true in Full mode *)
  query : Sparql.Ast.query;  (** the parsed query the report answers *)
  vartable : Sparql.Vartable.t;
  projection : string list;  (** variables the query projects *)
  bag : Sparql.Bag.t option;
      (** [None] when a limit was exceeded and partial results were not
          requested; with [~partial:true] a killed run still carries the
          rows that reached the terminal bag *)
  result_count : int option;
  failure : failure option;  (** why the run was killed, if it was *)
  partial : failure option;
      (** [Some f] iff [bag] holds a partial result of a run killed by
          [f] (exact prefix for streaming LIMIT-style pipelines,
          best-effort otherwise; always [None] for successful runs) *)
  pushed_rows : int;
      (** rows produced (materialized or streamed) by this execution, as
          charged against its governor ticket *)
  transform_ms : float;
      (** time spent in Algorithm 4 at prepare time (0 for Base/CP) *)
  exec_ms : float;  (** evaluation time of this execution *)
  eval_stats : Evaluator.stats option;
  tree_before : Be_tree.group;
  tree_after : Be_tree.group;
  epoch : int;  (** version of the snapshot this execution read *)
  cache : cache_info option;
      (** [None] when the run bypassed a session plan cache *)
}

type t
(** A prepared query. Immutable once built (the embedded plan memo only
    grows, under a mutex), so one value may be executed repeatedly and
    concurrently. *)

(** [prepare_snapshot ?mode ?engine ?stats ?text snap query] runs the
    whole plan pipeline against one immutable snapshot view: variable
    registration, BE-tree construction, the mode's cost-driven
    transformation, and eager compilation of every BGP of the
    transformed tree. [text] optionally records the source string for
    diagnostics. Defaults: [Full], [Wco]; omitted [stats] come from
    {!Rdf_store.Stats.of_snapshot} (no per-prepare rescan). *)
val prepare_snapshot :
  ?mode:mode ->
  ?engine:Engine.Bgp_eval.engine ->
  ?stats:Rdf_store.Stats.t ->
  ?text:string ->
  Rdf_store.Snapshot.t ->
  Sparql.Ast.query ->
  t

(** [prepare ?mode ?engine ?stats ?text store query] is
    {!prepare_snapshot} over the plain (empty-delta) view of [store]. *)
val prepare :
  ?mode:mode ->
  ?engine:Engine.Bgp_eval.engine ->
  ?stats:Rdf_store.Stats.t ->
  ?text:string ->
  Rdf_store.Triple_store.t ->
  Sparql.Ast.query ->
  t

(** [ticket ?row_budget ?timeout_ms ?faults ()] builds a governor ticket
    from the execution knobs (the deadline clock is armed now, at ticket
    creation). Pass it to {!execute} via [?governor] to retain a handle
    for cross-domain cancellation. *)
val ticket :
  ?row_budget:int ->
  ?timeout_ms:float ->
  ?faults:Sparql.Governor.fault list ->
  unit ->
  Sparql.Governor.t

(** [execute ?domains ?row_budget ?timeout_ms ?partial ?governor ?cache
    p] runs the prepared plan once, under its own
    governor ticket — concurrent executions with different limits are
    fully isolated. The knobs are execution-time only and carry the same
    semantics as [Executor.run]: [domains] (default 1) retargets the
    shared plan to a domain pool, [row_budget] and [timeout_ms] bound
    the run. Evaluation streams into one sink pipeline: GROUP BY /
    aggregates, HAVING, then the solution modifiers. [partial] (default [false]) makes a
    killed run return the rows materialized before the limit fired,
    marked in the report's [partial] field. [governor] supplies a
    pre-built ticket (e.g. one the caller wants to {!Sparql.Governor.cancel}
    from another domain); when given, [row_budget]/[timeout_ms] are
    ignored. [cache] is attached verbatim to the report (used by
    {!Session} to surface hit/miss provenance). [snapshot] pins the
    execution to a newer snapshot of the same lineage (the session's
    acquired view) — the shared plans are retargeted, not recompiled;
    [stats] supplies that snapshot's statistics (defaults to
    {!Rdf_store.Stats.of_snapshot}).

    [adaptive] (default [true]) enables the adaptive execution layer —
    sideways bitset prefilters into OPTIONAL/MINUS subtrees, per-node
    engine selection, and ≥10x-deviation re-plan marking — but only in
    Full mode; Base/TT/CP always run the paper's static baselines.
    [feedback] supplies the observed-cardinality cache consulted by (and
    updated with) each unpruned BGP's actual row count; {!Session} keeps
    one per cached plan so re-executions start from observed
    cardinalities. *)
val execute :
  ?domains:int ->
  ?adaptive:bool ->
  ?feedback:Feedback.t ->
  ?row_budget:int ->
  ?timeout_ms:float ->
  ?partial:bool ->
  ?governor:Sparql.Governor.t ->
  ?cache:cache_info ->
  ?snapshot:Rdf_store.Snapshot.t ->
  ?stats:Rdf_store.Stats.t ->
  t ->
  report

(** [compute_aggregate_ids store ~agg ~distinct ~target ~row_count ids]
    — one aggregate over one group: [ids] are the group's bound
    target-column ids in reverse arrival order (the fold order, float
    summation included), [row_count] its row count, [target] the
    aggregated variable ([None] for [COUNT( * )]). [None] when the result
    is unbound (SUM over non-numeric values, MIN of an empty group). The
    GROUP BY stage of {!execute} folds every group through it. *)
val compute_aggregate_ids :
  Rdf_store.Snapshot.t ->
  agg:Sparql.Ast.agg_kind ->
  distinct:bool ->
  target:string option ->
  row_count:int ->
  int list ->
  Rdf.Term.t option

(** {1 Accessors} *)

val query : t -> Sparql.Ast.query
val vartable : t -> Sparql.Vartable.t
val projection : t -> string list
val mode : t -> mode
val engine : t -> Engine.Bgp_eval.engine
val tree_before : t -> Be_tree.group
val tree_after : t -> Be_tree.group
val transform_ms : t -> float

(** [store p] — the base store of the snapshot the plan was compiled
    against. *)
val store : t -> Rdf_store.Triple_store.t

(** [snapshot p] — the snapshot the plan was compiled against. *)
val snapshot : t -> Rdf_store.Snapshot.t

(** [epoch p] — the snapshot version the plan was compiled under. *)
val epoch : t -> int

(** {2 Cache-validation inputs} *)

(** [base_epoch p] — the base store epoch at compile time; any change
    (compaction, bulk rebuild) invalidates the plan wholesale. *)
val base_epoch : t -> int

(** [dict_size p] — dictionary size at compile time; only consulted
    when {!has_missing} holds. *)
val dict_size : t -> int

(** [has_missing p] — whether some constant compiled to [Missing];
    such plans must be recompiled once the dictionary grows (the
    constant may exist now). *)
val has_missing : t -> bool

(** [text p] — the source text, when prepared from one. *)
val text : t -> string option
