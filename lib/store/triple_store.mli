(** The in-memory RDF store: a dictionary-encoded, deduplicated triple table
    with six permutation indexes (SPO, SOP, PSO, POS, OSP, OPS), in the
    style of single-table exhaustively-indexed RDF stores (RDF-3X). *)

type t

(** {1 Construction}

    Every build path streams triples into growable id columns and fans
    the six per-order sort/encode tasks out over the {!Bulk} runner
    (serial without one); the indexes land in off-heap {!Column}
    storage, delta-compressed unless a [?mode] override is given. *)

(** [of_triples triples] encodes, deduplicates and indexes the dataset. *)
val of_triples : Rdf.Triple.t list -> t

(** [of_seq triples] is {!of_triples} over a sequence, avoiding an
    intermediate list for large generated datasets. *)
val of_seq : Rdf.Triple.t Seq.t -> t

(** [of_iter produce] is the bulk-load entry point: [produce emit] must
    call [emit] once per triple. Nothing is materialized per triple —
    generators feed the store without building a list. *)
val of_iter : ?mode:Column.mode -> ((Rdf.Triple.t -> unit) -> unit) -> t

(** [load_ntriples path] parses and loads an N-Triples file. *)
val load_ntriples : string -> t

(** [of_encoded_rows dict rows] builds a store from already-encoded
    (s, p, o) id triples over [dict] (deduplicating). Used by the
    compaction path and bulk importers. *)
val of_encoded_rows : Dictionary.t -> (int * int * int) array -> t

(** [of_sorted_columns dict ~s ~p ~o ()] builds a store from id columns
    already strictly increasing in SPO lexicographic order — the
    snapshot loader's sort-free path. *)
val of_sorted_columns :
  ?mode:Column.mode ->
  Dictionary.t ->
  s:int array ->
  p:int array ->
  o:int array ->
  unit ->
  t

(** {1 Load telemetry} *)

type load_stats = {
  triples : int;  (** distinct triples indexed *)
  elapsed_s : float;  (** encode + sort + index build wall time *)
  triples_per_sec : float;
  parallel_tasks : int;  (** runner domains the build fanned out over *)
}

(** [load_stats store] — throughput of the build that produced this
    store. *)
val load_stats : t -> load_stats

(** [mem_bytes store] is the off-heap footprint of the six indexes. *)
val mem_bytes : t -> int

(** [iter_all store ~f] — every triple, as ids, in SPO order. *)
val iter_all : t -> f:(s:int -> p:int -> o:int -> unit) -> unit

(** {1 Epochs}

    Every store carries a monotonic epoch stamp drawn from a
    process-global counter: newly built stores (including the rebuilt
    store a SPARQL Update returns, and every compacted base) get a
    fresh epoch. {!Snapshot} versions are drawn from the same counter,
    so base epochs and snapshot versions are mutually comparable.
    Plan and statistics caches record the stamp they were computed
    under and treat a base-epoch mismatch as an invalidation. *)

(** [fresh_epoch ()] draws the next stamp from the process-global
    counter (used by the MVCC layer to version published snapshots). *)
val fresh_epoch : unit -> int

(** [epoch store] is the store's current epoch. *)
val epoch : t -> int

(** [intern_term store term] encodes [term] in the dictionary, assigning
    a fresh id when it was not yet present — the eval-time dictionary
    write performed by VALUES blocks. Safe under concurrent readers
    (the dictionary is internally synchronized; ids are append-only),
    and does not bump the epoch: only plans that compiled a constant to
    [Missing] are sensitive to dictionary growth, and the plan cache
    re-validates those against the dictionary size. *)
val intern_term : t -> Rdf.Term.t -> int

(** {1 Accessors} *)

val dictionary : t -> Dictionary.t

(** [indexes store] is the store's immutable index set (the base of a
    snapshot). *)
val indexes : t -> Index_set.t

(** [size store] is the number of distinct triples. *)
val size : t -> int

(** [encode_term store term] is the id of [term] if present in the data. *)
val encode_term : t -> Rdf.Term.t -> int option

val decode_term : t -> int -> Rdf.Term.t

(** {1 Pattern access}

    All pattern functions take optional bound positions [s], [p], [o]; an
    omitted position is a wildcard. *)

(** [count store ?s ?p ?o ()] is the exact number of matching triples,
    computed by index range arithmetic (no scan). *)
val count : t -> ?s:int -> ?p:int -> ?o:int -> unit -> int

(** [iter store ?s ?p ?o ~f ()] applies [f ~s ~p ~o] to each matching
    triple. *)
val iter : t -> ?s:int -> ?p:int -> ?o:int -> f:(s:int -> p:int -> o:int -> unit) -> unit -> unit

(** [contains store ~s ~p ~o] tests membership of a fully-bound triple. *)
val contains : t -> s:int -> p:int -> o:int -> bool

(** [third_column_view store ?s ?p ?o ()] — with exactly two positions
    bound, the sorted, duplicate-free {!Index.view} of values the third
    position takes (SPO for (s,p), SOP for (s,o), POS for (p,o)). Any
    other combination is an [Invalid_argument]. The view aliases index
    memory — no copying. *)
val third_column_view : t -> ?s:int -> ?p:int -> ?o:int -> unit -> Index.view

(** {1 Statistics inputs} *)

(** [index store order] exposes a permutation index (used by {!Stats}). *)
val index : t -> Index.order -> Index.t

(** [distinct_subjects store ~p] / [distinct_objects store ~p]: number of
    distinct subjects (resp. objects) occurring with predicate [p]. *)
val distinct_subjects : t -> p:int -> int

val distinct_objects : t -> p:int -> int

(** [predicates store] lists all predicate ids with their triple counts. *)
val predicates : t -> (int * int) list
