(** A deduplicated triple set with all six permutation indexes (SPO,
    SOP, PSO, POS, OSP, OPS) — the unit of immutability in the snapshot
    store. A snapshot's base is one index set; each frozen delta
    generation carries two small ones (inserts and deletes). Values are
    immutable after construction and safe to share across domains; the
    index payload lives off-heap in {!Column} storage. *)

type t

(** [of_columns ?mode ?len ~s ~p ~o ()] sorts, deduplicates and indexes
    three parallel id columns (the first [len] entries when given — the
    bulk-load path hands over its possibly-oversized growable buffers).
    The six per-order sort/encode tasks fan out over the {!Bulk}
    runner. [mode] defaults to [Delta]. *)
val of_columns :
  ?mode:Column.mode ->
  ?len:int ->
  s:int array ->
  p:int array ->
  o:int array ->
  unit ->
  t

(** [of_sorted_columns ?mode ~s ~p ~o ()] trusts the columns to be
    strictly increasing in SPO lexicographic order (the snapshot loader
    validates this during decode) and skips the sort and dedup. *)
val of_sorted_columns :
  ?mode:Column.mode -> s:int array -> p:int array -> o:int array -> unit -> t

(** [of_rows rows] sorts, deduplicates and indexes already-encoded
    (s, p, o) id triples. *)
val of_rows : (int * int * int) array -> t

(** The shared empty index set (zero rows). *)
val empty : t

(** [size t] is the number of distinct triples. *)
val size : t -> int

val is_empty : t -> bool

(** Bytes of off-heap storage held by the six indexes. *)
val mem_bytes : t -> int

(** [index t order] exposes one permutation index. *)
val index : t -> Index.order -> Index.t

(** Pattern access: an omitted position is a wildcard. *)

val count : t -> ?s:int -> ?p:int -> ?o:int -> unit -> int

(** [pattern_range t ?s ?p ?o ()] is the index a pattern reads and the
    row range [(lo, hi)] of its matches there; {!iter} visits exactly
    those rows, in that index's order. Two index sets answer the same
    pattern from the same order, so their ranges line up row for row. *)
val pattern_range :
  t -> ?s:int -> ?p:int -> ?o:int -> unit -> Index.t * int * int

val iter :
  t -> ?s:int -> ?p:int -> ?o:int ->
  f:(s:int -> p:int -> o:int -> unit) -> unit -> unit

val contains : t -> s:int -> p:int -> o:int -> bool

(** [third_column_view t ?s ?p ?o ()] — with exactly two positions bound,
    the sorted duplicate-free {!Index.view} of third-position values.
    Any other combination is an [Invalid_argument]. *)
val third_column_view : t -> ?s:int -> ?p:int -> ?o:int -> unit -> Index.view

(** [iter_all t ~f] — every triple, as ids, in SPO order. *)
val iter_all : t -> f:(s:int -> p:int -> o:int -> unit) -> unit

(** [rows t] materializes every triple as encoded rows in SPO order. *)
val rows : t -> (int * int * int) array

(** {1 Statistics inputs} *)

val distinct_subjects : t -> p:int -> int
val distinct_objects : t -> p:int -> int

(** [predicates t] lists all predicate ids with their triple counts. *)
val predicates : t -> (int * int) list
