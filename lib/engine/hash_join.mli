(** Jena-style BGP evaluation: each triple pattern is scanned into a bag of
    mappings (pruned by candidate sets), and the bags are combined left-deep
    in the planner's order with binary hash joins (Eq. 9's cost model). *)

(** [eval_into ?pool store ~width plan ~candidates ~sink] — the joins over
    all patterns but the last materialize and become the build side;
    the last pattern's scan then probes row-at-a-time, emitting merged rows
    into [sink], so a downstream LIMIT can short-circuit the scan via
    [Sink.Stop]. With [?pool] (and more than one domain), a large probe
    side is materialized and morselized across the pool: every agent
    probes the read-only build partition concurrently into its own shard
    of the sink, and a [Stop] in any shard stops the other domains at
    their next morsel boundary. *)
val eval_into :
  ?pool:Pool.t ->
  Rdf_store.Snapshot.t ->
  width:int ->
  Planner.plan ->
  candidates:Candidates.t ->
  sink:Sparql.Sink.t ->
  unit

(** [scan_pattern store ~width pattern ~candidates] materializes the
    matches of a single triple pattern as a bag (exposed for LBR, which
    evaluates triple patterns separately). *)
val scan_pattern :
  Rdf_store.Snapshot.t ->
  width:int ->
  Compiled.t ->
  candidates:Candidates.t ->
  Sparql.Bag.t
