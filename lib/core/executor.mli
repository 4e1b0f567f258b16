(** The top-level one-shot SPARQL-UO execution API, wiring together
    parsing, BE-tree construction, cost-driven transformation, and
    evaluation with candidate pruning — in the four configurations the
    paper evaluates (Section 7.1):

    - [Base]: Algorithm 1 on the untransformed BE-tree;
    - [TT]: Algorithm 4's tree transformation, then Algorithm 1;
    - [CP]: Algorithm 1 with candidate pruning at a fixed threshold
      (1% of the dataset size, as in the paper);
    - [Full]: transformation (skipping pruning-equivalent special cases) +
      candidate pruning with the adaptive threshold.

    Since the prepare/execute split this module is a thin wrapper:
    [run] is {!Prepared.prepare} immediately followed by
    {!Prepared.execute}. Callers that execute a query more than once
    should hold a {!Session} (bounded plan cache with epoch
    invalidation) or a {!Prepared.t} directly. *)

type mode = Prepared.mode = Base | TT | CP | Full

val mode_name : mode -> string
val all_modes : mode list

(** Why a run was killed (see {!Sparql.Governor.failure}): the row budget
    (the paper's out-of-memory analogue), the wall-clock timeout, a
    cross-domain cancellation, or an injected chaos fault. *)
type failure = Prepared.failure =
  | Out_of_budget
  | Timeout
  | Cancelled
  | Injected_fault of string

val failure_name : failure -> string

(** Plan-cache provenance of a session run (see {!Prepared.cache_info}). *)
type cache_info = Prepared.cache_info = {
  hit : bool;
  hits : int;
  misses : int;
}

type report = Prepared.report = {
  mode : mode;
  engine : Engine.Bgp_eval.engine;
  adaptive : bool;
      (** whether the adaptive execution layer ran (Full mode only) *)
  query : Sparql.Ast.query;  (** the parsed query the report answers *)
  vartable : Sparql.Vartable.t;
  projection : string list;  (** variables the query projects *)
  bag : Sparql.Bag.t option;
      (** [None] when a limit was exceeded without [~partial:true] *)
  result_count : int option;
  failure : failure option;  (** why the run was killed, if it was *)
  partial : failure option;
      (** [Some f] iff [bag] holds the partial result of a run killed by
          [f] (see {!Prepared.report}) *)
  pushed_rows : int;  (** rows produced by this execution (its ticket) *)
  transform_ms : float;  (** time spent in Algorithm 4 (0 for Base/CP) *)
  exec_ms : float;  (** evaluation time *)
  eval_stats : Evaluator.stats option;
  tree_before : Be_tree.group;
  tree_after : Be_tree.group;
  epoch : int;  (** store epoch observed after the run *)
  cache : cache_info option;
      (** [None] for one-shot runs that bypassed a session plan cache *)
}

(** [run ?mode ?engine ?domains ?row_budget ?timeout_ms ?stats store
    text] parses and executes [text]. [domains] (default 1) is the
    number of domains evaluation may use: [> 1] runs WCO extension steps,
    the probe side of hash joins and independent UNION branches on the
    process-global domain pool (results are equal to the serial run as
    bags; row order may differ). The solution modifiers run as a sink
    pipeline behind the evaluator's final operator: LIMIT/OFFSET
    early-terminates evaluation, ORDER BY + LIMIT runs as a bounded top-k
    heap, DISTINCT and projection stream row by row, and GROUP BY /
    aggregates / HAVING fold rows into a hash-aggregate stage as they
    arrive. [row_budget] bounds total produced rows;
    [timeout_ms] bounds wall-clock time; on either limit the report
    carries [bag = None] and a {!failure} — unless [~partial:true], where
    the rows materialized before the kill are returned with the report's
    [partial] marker set. Each run executes under its own governor
    ticket ([governor] supplies one, e.g. to cancel from another domain),
    so concurrent runs with different limits are isolated. [adaptive]
    (default [true]) enables the adaptive execution layer in Full mode
    (sideways bitset prefilters into OPTIONAL/MINUS subtrees, observed-
    cardinality feedback into [feedback] when supplied, per-node engine
    selection, re-plan marking on ≥10x estimate deviation);
    [~adaptive:false] runs the paper's static Full configuration.
    Defaults: [Full], [Wco], serial, unlimited. *)
val run :
  ?mode:mode ->
  ?engine:Engine.Bgp_eval.engine ->
  ?domains:int ->
  ?adaptive:bool ->
  ?feedback:Feedback.t ->
  ?row_budget:int ->
  ?timeout_ms:float ->
  ?partial:bool ->
  ?governor:Sparql.Governor.t ->
  ?stats:Rdf_store.Stats.t ->
  Rdf_store.Triple_store.t ->
  string ->
  report

(** [run_query] — same on an already-parsed query. *)
val run_query :
  ?mode:mode ->
  ?engine:Engine.Bgp_eval.engine ->
  ?domains:int ->
  ?adaptive:bool ->
  ?feedback:Feedback.t ->
  ?row_budget:int ->
  ?timeout_ms:float ->
  ?partial:bool ->
  ?governor:Sparql.Governor.t ->
  ?stats:Rdf_store.Stats.t ->
  Rdf_store.Triple_store.t ->
  Sparql.Ast.query ->
  report

(** [solutions report] decodes the result rows: each solution is an
    association list over the projected variables that are bound in the
    row. Empty list when the budget was exceeded. *)
val solutions : Rdf_store.Triple_store.t -> report -> (string * Rdf.Term.t) list list

(** [explain report] renders the BE-trees before and after transformation
    with timing, the store epoch, and plan-cache hit/miss provenance —
    the plan explainer used by the CLI and examples. *)
val explain : report -> string

(** {1 Query forms beyond SELECT} *)

(** [ask report] — for an ASK query, whether the pattern has any solution
    ([None] on a limit, or when the query is not an ASK). *)
val ask : report -> bool option

(** [construct store report] — the RDF graph produced by instantiating a
    CONSTRUCT template with every solution (deduplicated; template
    triples with unbound variables or invalid shapes are dropped).
    Empty for other query forms. *)
val construct : Rdf_store.Triple_store.t -> report -> Rdf.Triple.t list

(** [describe store report] — for a DESCRIBE query, every triple in which
    a described resource appears as subject or object. *)
val describe : Rdf_store.Triple_store.t -> report -> Rdf.Triple.t list

(** [count_bgp_of_query q] / [depth_of_query q] — the query-complexity
    metrics of Section 7.1, computed on the constructed BE-tree. *)
val count_bgp_of_query : Sparql.Ast.query -> int

val depth_of_query : Sparql.Ast.query -> int
