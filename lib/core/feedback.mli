(** Observed-cardinality feedback (the adaptive-execution loop): maps a
    BGP — its triple-pattern list, the same key the plan memo uses — to
    the row count it actually produced when last evaluated without a
    candidate prefilter. {!Cost_model} and the evaluator's admission /
    engine-selection rules consult it before the sampled estimate, so
    re-executions of a cached plan start from observed cardinalities.

    Thread-safe (parallel UNION branches record concurrently). *)

type t

val create : unit -> t

(** [record t patterns ~rows] stores an observation; the last one wins.
    Callers must only record {e unpruned} evaluations — a prefiltered
    BGP's output is not the standalone |res(B)| the estimates model. *)
val record : t -> Sparql.Triple_pattern.t list -> rows:int -> unit

val find : t -> Sparql.Triple_pattern.t list -> float option

(** [card t patterns ~default] — the observed cardinality, or [default]
    (typically the planner's sampled estimate) when never observed. *)
val card : t -> Sparql.Triple_pattern.t list -> default:float -> float

(** [length t] — number of BGPs with a recorded observation. *)
val length : t -> int
