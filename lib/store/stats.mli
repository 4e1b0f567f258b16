(** Dataset statistics: the inputs to cardinality estimation (Section 5.1.2)
    and the rows of the paper's Table 2. *)

type predicate_stats = {
  triples : int;  (** triples with this predicate *)
  distinct_subjects : int;
  distinct_objects : int;
  avg_out_degree : float;  (** triples per distinct subject *)
  avg_in_degree : float;  (** triples per distinct object *)
}

type t

(** [compute store] scans the indexes once and materializes per-predicate
    statistics plus dataset-level counts. *)
val compute : Triple_store.t -> t

(** [cached store] is [compute store] memoized per live store value
    (physical identity, weakly held). The triple table is immutable —
    updates rebuild a new store — so the memo never serves stale
    statistics; repeated query execution against one store pays for the
    scan once. Thread-safe. *)
val cached : Triple_store.t -> t

(** [of_snapshot snap] is the statistics of the snapshot view: the
    memoized base scan adjusted by the delta. Per-predicate triple
    counts and the dataset triple count are exact; distinct
    subject/object counts for delta-touched predicates are bounded
    estimates (statistics feed cardinality estimation, so this stays
    O(|delta|) rather than rescanning). With an empty delta this is
    exactly [cached (Snapshot.base snap)]. *)
val of_snapshot : Snapshot.t -> t

(** [epoch stats] is the store epoch (or snapshot version) at the time
    of the scan (see {!Triple_store.epoch}, {!Snapshot.version}). *)
val epoch : t -> int

(** [predicate stats ~p] is the statistics record for predicate id [p];
    all-zero record if [p] never occurs as a predicate. *)
val predicate : t -> p:int -> predicate_stats

(** {1 Dataset-level counts (Table 2)} *)

val num_triples : t -> int

(** [num_entities stats] counts distinct IRIs/blank nodes occurring in
    subject or object position. *)
val num_entities : t -> int

val num_predicates : t -> int

(** [num_literals stats] counts distinct literal terms in object position. *)
val num_literals : t -> int
