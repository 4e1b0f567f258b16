(** gStore-style worst-case-optimal BGP evaluation.

    Evaluation is vertex-at-a-time: the planner groups consecutive
    patterns that each have the extension column as their only unbound
    position ({!Planner.vstep}), every such pattern resolves to the sorted
    third-column view of one index prefix ({!Rdf_store.Index.column_view}),
    and the extension domain is their k-way intersection with adaptive
    galloping ({!Intersect}). A candidate set on the extension column joins
    the same intersection — sparse sets as one more sorted operand, dense
    bitsets as a load+mask filter inside the kernel. Steps that bind zero
    or several new columns fall back to pattern-at-a-time index scans with
    on-the-fly candidate pruning.

    With [?pool], extension steps chunk the current bag's rows across the
    pool's domains — except when the bag is small and the intersected
    domain is large (the star-query shape), where the domain itself is
    chunked instead. Every worker pushes extensions into a thread-local bag
    and the parts are concatenated after the step (result order is
    preserved only up to bag equality). This is safe because the store
    indexes, the plan and the candidate sets are all read-only during
    evaluation.

    [stats] feeds {!Planner.step} seed selection: candidate-seeded lookups
    tie-break on the predicate's average degree at the seeded endpoint. *)

(** [eval_into ?pool store ~stats ~width plan ~candidates ~sink]
    evaluates the plan's vertex-at-a-time steps: all steps but the last
    materialize, and the last step's extensions are emitted into [sink],
    so a downstream LIMIT can short-circuit the scan via [Sink.Stop]. An
    empty plan emits the single unit row. The serial terminal step binds
    matches into a reused scratch row and copies only on emit. Under a pool
    the last step emits into per-domain shards of the sink
    ({!Pool.stream}), so a [Stop] in any shard stops the other domains at
    their next morsel boundary. Kernel and prefilter work is counted on
    the ambient governor ticket, fetched once per call. *)
val eval_into :
  ?pool:Pool.t ->
  Rdf_store.Snapshot.t ->
  stats:Rdf_store.Stats.t ->
  width:int ->
  Planner.plan ->
  candidates:Candidates.t ->
  sink:Sparql.Sink.t ->
  unit
