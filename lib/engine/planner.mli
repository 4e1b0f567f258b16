(** BGP planning: greedy join ordering plus the sampling-based cardinality
    estimation of Section 5.1.2, producing per-step estimates from which
    both engines' cost formulas are computed.

    The estimation follows the paper: single-pattern cardinalities are exact
    (index range sizes); each extension step is estimated by drawing a
    bounded sample of partial result rows and scaling by the observed
    extension ratio: [card(V_k) = max(#extend / #sample * card(V_{k-1}), 1)].
    Sampling is deterministic (evenly spaced rows), so plans are stable. *)

type step = {
  pattern : Compiled.t;
  pattern_count : int;  (** exact matches of the pattern in isolation *)
  card_before : float;  (** estimated cardinality before this step *)
  card_after : float;  (** estimated cardinality after this step *)
  avg_edge : float;
      (** min over already-bound endpoint vars of the average number of
          edges with this predicate per binding — the [average_size] term
          of the gStore WCO cost formula *)
}

(** Vertex-at-a-time grouping of the ordered steps, consumed by the WCO
    engine's multiway-intersection path. An [Extend] gathers the primary
    step for column [col] together with every later step whose pattern has
    [col] as its only unbound position at that point in the order — each
    such pattern resolves to one sorted index column view, and the
    extension domain is their k-way intersection. Steps binding zero or
    two-plus new columns remain [Scan]s (pattern-at-a-time). The grouping
    is part of the cached plan, so prepared queries re-execute it without
    re-deriving it. *)
type vstep = Scan of step | Extend of { col : int; steps : step list }

type plan = {
  steps : step list;  (** in chosen execution order *)
  vsteps : vstep list;  (** the same steps, grouped vertex-at-a-time *)
  result_card : float;  (** estimated result cardinality of the BGP *)
  cost_wco : float;  (** Section 5.1.2 WCO cost: Σ card_before × avg_edge *)
  cost_hash : float;  (** Eq. 9 binary-join cost: Σ 2·min + max *)
}

(** [plan store stats table patterns] orders [patterns] greedily (most
    selective first, staying connected when possible) and estimates
    cardinalities and both cost metrics. An empty pattern list yields an
    empty plan with cardinality 1 (the unit bag). *)
val plan :
  Rdf_store.Snapshot.t ->
  Rdf_store.Stats.t ->
  Sparql.Vartable.t ->
  Compiled.t list ->
  plan

(** [sample_size] is the bounded sample used per extension step. *)
val sample_size : int

(** [sample_matches store pattern row ~limit] is [(total, rows)]: the
    number of matches of [pattern] under [row], and the bindings of the
    matches at positions [0, stride, 2·stride, …] of the snapshot's
    match order ([stride = max 1 (total / limit)]) that bind
    consistently, at most [limit] of them. Rows are read by position,
    so a call costs O(limit · log n) rather than a scan of the
    pattern's range. *)
val sample_matches :
  Rdf_store.Snapshot.t ->
  Compiled.t ->
  Sparql.Binding.t ->
  limit:int ->
  int * Sparql.Binding.t list

(** [plan_with ~sample_matches] is {!plan} drawing its samples from the
    given sampler instead of {!sample_matches} — the hook by which tests
    hold the planner's output against a reference sampler. *)
val plan_with :
  sample_matches:
    (Rdf_store.Snapshot.t ->
    Compiled.t ->
    Sparql.Binding.t ->
    limit:int ->
    int * Sparql.Binding.t list) ->
  Rdf_store.Snapshot.t ->
  Rdf_store.Stats.t ->
  Sparql.Vartable.t ->
  Compiled.t list ->
  plan
