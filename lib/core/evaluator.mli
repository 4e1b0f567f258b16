(** BGP-based evaluation of a BE-tree (Algorithm 1), optionally augmented
    with the candidate-pruning optimization of Section 6 and the adaptive
    execution layer built on top of it.

    Candidate pruning: whenever a UNION, OPTIONAL or nested group node is
    encountered, the variables bound in *every* row of the current result
    become candidate sets for the BGPs evaluated below; a BGP applies a
    candidate set only when it is smaller than a threshold — a fixed row
    count, or (adaptive mode) the engine's estimate of that BGP's own
    result size. An empty current result short-circuits the remaining
    children of its level (nothing can join an empty left), and on the WCO
    engine the admitted sets steer the BGP's join order
    ({!Engine.Planner.steer}).

    Adaptive execution ([~adaptive:true]) adds, on top of Adaptive-mode
    pruning:
    - {e sideways bitset prefilters}: at each OPTIONAL/MINUS boundary the
      left side's universally-bound join columns are forced into the
      subtree as semijoin prefilters regardless of the threshold rule, so
      the branch never enumerates rows that cannot join;
    - {e observed-cardinality feedback}: each unpruned BGP's actual row
      count is recorded in the supplied {!Feedback.t}, and estimates
      (admission thresholds, cost-model pricing) consult it before the
      sampled estimate;
    - {e per-node engine selection}: each BGP runs on whichever of the
      wco / hash-probe engines its memoized plan prices cheaper, instead
      of the context's engine;
    - {e mid-query re-planning}: an estimate off by at least 10x marks
      the node replanned (its correction is already live for every later
      decision in the query).

    Each executed node's estimate, actual cardinality and engine are
    reported in [stats.nodes] for [explain].

    There is one traversal: each group's last child combines straight
    into the caller's sink, and every other intermediate (the running
    result of a group's earlier children, UNION branches, OPTIONAL/MINUS
    right sides, the build side of a join) is the same traversal
    collected into a bag. *)

type threshold =
  | No_pruning
  | Fixed of int  (** CP mode: the paper uses 1% of the dataset size *)
  | Adaptive  (** Full mode: per-BGP estimated result size *)

type node_report = {
  label : string;  (** ["bgp{n}"], ["optional"], ["union{n}"], ... *)
  engine : string;
      (** ["wco"] / ["hash"]; ["lbr"] when a forced sideways prefilter was
          applied; ["skip"] when an empty left side short-circuited the
          node; ["-"] for non-BGP operators *)
  est_rows : float;  (** the (feedback-corrected) cost-model estimate *)
  actual_rows : int;
  replanned : bool;  (** estimate off by ≥ the re-plan factor (10x) *)
}

type stats = {
  join_space : float;
      (** the JS metric of Section 7.1, computed from the BGP result
          sizes *)
  peak_rows : int;
      (** largest intermediate bag materialized during evaluation (rows
          streamed into the caller's sink are not counted) *)
  total_rows : int;  (** total intermediate rows materialized *)
  bgp_evals : int;
  pruned_bgps : int;  (** BGP evaluations that had a candidate set applied *)
  steered_bgps : int;
      (** pruned BGP evaluations on the WCO engine whose join order the
          candidate sets moved ({!Engine.Planner.steer}) *)
  isect : Engine.Intersect.counters;
      (** multiway-intersection kernel activity during this evaluation
          (zero when the WCO engine took no vertex-at-a-time steps) *)
  stages : Sparql.Sink.stage list;
      (** per-stage rows-in/rows-out of the sink pipeline, in data-flow
          order *)
  nodes : node_report list;
      (** executed BE-tree nodes in evaluation order (parallel UNION
          branches may interleave); empty unless adaptive *)
  replans : int;  (** nodes whose estimate was off by ≥ 10x *)
  prefilter : Engine.Candidates.counters;
      (** candidate membership tests / rejects during this evaluation *)
  sched : Engine.Pool.counters;
      (** morsels, steals and early stops the domain pool ran for this
          evaluation (zero at one domain) *)
}

(** [eval_into ?adaptive ?feedback env ~threshold ~sink tree] runs
    Algorithm 1 over [tree]: the tree's final operator emits rows into
    [sink], so a LIMIT stage in [sink] early-terminates evaluation
    ([Sink.Stop] is caught here and reported as a normal completion). The
    sink is closed before returning. [adaptive] (default false) enables
    the adaptive execution layer described above; [feedback] is consulted
    for and updated with observed BGP cardinalities when supplied.
    [stats.join_space] is exact when the pipeline ran to completion and 1
    after an early Stop. May raise [Sparql.Governor.Kill] if the ambient
    governor ticket is governed (budget, deadline, cancellation or a chaos
    fault). *)
val eval_into :
  ?adaptive:bool ->
  ?feedback:Feedback.t ->
  Engine.Bgp_eval.t ->
  threshold:threshold ->
  sink:Sparql.Sink.t ->
  Be_tree.group ->
  stats

(** [eval ?adaptive ?feedback env ~threshold tree] — {!eval_into}
    collected into a bag. *)
val eval :
  ?adaptive:bool ->
  ?feedback:Feedback.t ->
  Engine.Bgp_eval.t ->
  threshold:threshold ->
  Be_tree.group ->
  Sparql.Bag.t * stats
