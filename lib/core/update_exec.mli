(** Applying SPARQL 1.1 Update operations.

    One operation = one transaction: each operation buffers its writes in
    an MVCC transaction on the session's store lineage and commits them
    atomically as a delta ({!Session.commit}). Concurrent readers holding
    a pre-commit snapshot are untouched; no index rebuild, no plan-cache
    flush. The WHERE clause is evaluated once against the pre-update
    snapshot; DELETE and INSERT templates are instantiated from that same
    evaluation. Within a [Modify], deletes fold before inserts. Sequenced
    operations ({!run_session}) each see their predecessors' committed
    effects.

    WHERE clauses are evaluated through the full SPARQL-UO optimizer
    (mode [Full]) and the session's plan cache (keyed by a structural
    fingerprint of the WHERE group), so a repeated update shape re-plans
    nothing. Templates are instantiated per solution, dropping
    instantiations that are non-ground or structurally invalid (literal
    subject/predicate), per the SPARQL Update spec.

    On a durable session ({!Session.open_dir}) each commit is appended
    to the write-ahead log before it publishes and made durable per the
    session's sync policy, so a crash between sequenced operations
    recovers a prefix of {e whole} operations — never a partially
    applied one. *)

(** [apply_session session update] — one operation as one transaction on
    the session's MVCC lineage. *)
val apply_session :
  ?engine:Engine.Bgp_eval.engine -> Session.t -> Sparql.Ast.update -> unit

(** [run_session session text] parses and applies an update string, one
    transaction per operation. *)
val run_session : ?engine:Engine.Bgp_eval.engine -> Session.t -> string -> unit
