(** Consistent read views over an MVCC store, plus the on-disk format.

    {1 The snapshot view}

    A snapshot bundles an immutable base ({!Triple_store.t}) with one
    frozen {!Delta.t} generation and a version stamp. It is the value
    every read path of the engine evaluates against: once acquired
    (an O(1) atomic load in {!Mvcc}), the view never changes — commits
    and compactions publish new snapshots instead of mutating this one.

    Reads are base/delta arithmetic relying on the delta invariants
    (adds ∩ base = ∅, dels ⊆ base): count = base − dels + adds,
    membership = (base ∧ ¬del) ∨ add. With an empty delta every
    operation short-circuits to the plain base path, so a read-only or
    freshly compacted store pays nothing for MVCC.

    The pattern-access API mirrors {!Triple_store} so engine code reads
    identically through either. *)

type t

(** [of_store store] views a plain store (empty delta; version = the
    store's epoch). *)
val of_store : Triple_store.t -> t

(** [make ~base ~delta ~version] — used by {!Mvcc} to publish commits. *)
val make : base:Triple_store.t -> delta:Delta.t -> version:int -> t

val base : t -> Triple_store.t
val delta : t -> Delta.t

(** [version t] — a stamp drawn from the global epoch counter, unique
    per published snapshot; plan caches and stats memos key on it. *)
val version : t -> int

val base_epoch : t -> int

(** {2 Dictionary} *)

val dictionary : t -> Dictionary.t
val dict_size : t -> int
val encode_term : t -> Rdf.Term.t -> int option
val decode_term : t -> int -> Rdf.Term.t

(** [intern_term t term] — the eval-time VALUES write; thread-safe,
    append-only, invisible to other snapshots' plans (see
    {!Triple_store.intern_term}). *)
val intern_term : t -> Rdf.Term.t -> int

(** {2 Pattern access} *)

(** [size t] is the number of distinct triples visible in this view. *)
val size : t -> int

val count : t -> ?s:int -> ?p:int -> ?o:int -> unit -> int

val iter :
  t -> ?s:int -> ?p:int -> ?o:int ->
  f:(s:int -> p:int -> o:int -> unit) -> unit -> unit

val contains : t -> s:int -> p:int -> o:int -> bool

val iter_all : t -> f:(s:int -> p:int -> o:int -> unit) -> unit

(** [iter_strided t ?s ?p ?o ~stride ~f ()] applies [f] to the rows
    {!iter} visits at positions [0, stride, 2·stride, …], in that order,
    while [f] returns [true]. Rows are read by position, so a call costs
    O(log n) per visited row plus one lookup per deletion the walk
    passes — not a scan of the pattern's range. [stride >= 1]. *)
val iter_strided :
  t -> ?s:int -> ?p:int -> ?o:int -> stride:int ->
  f:(s:int -> p:int -> o:int -> bool) -> unit -> unit

(** [third_column_view t ?s ?p ?o ()] — with exactly two bound
    positions, the strictly increasing third-column view. Zero-copy
    passthrough of the base view when the delta is silent for the
    prefix; otherwise a materialized merge of base \ dels with adds. *)
val third_column_view : t -> ?s:int -> ?p:int -> ?o:int -> unit -> Index.view

(** [predicates t] — exact predicate ids with visible triple counts. *)
val predicates : t -> (int * int) list

(** {1 Persistence}

    Binary store snapshots: a versioned, checksummed on-disk format for a
    dictionary-encoded store, so a dataset is loaded back without
    re-parsing N-Triples (the indexes are rebuilt on load; only the
    dictionary and the triple table are persisted).

    Format (all integers 4-byte big-endian):
    {v
    magic "SPUO" | version | term count | terms | triple count
    | s p o ids ... | checksum
    v}
    Terms are serialized as a kind byte plus length-prefixed strings. The
    checksum is a simple additive digest over the payload; {!load} rejects
    files whose magic, version or checksum do not match. *)

exception Corrupt of string

(** [save store path] writes a snapshot of a base store (compact an
    MVCC store first; the file format always describes a full base).

    Crash-atomic: the file is written to [path ^ ".tmp"], fsynced and
    renamed into place, so a crash mid-save never clobbers a previously
    valid file at [path]. [dict_terms] caps how many dictionary entries
    are persisted (default: the size at call time) — the dictionary is
    append-only and may grow concurrently, and the WAL checkpoint needs
    the written count pinned to the one its log accounting uses. *)
val save : ?dict_terms:int -> Triple_store.t -> string -> unit

(** [load path] reads a snapshot back. Raises {!Corrupt} on a malformed or
    truncated file. *)
val load : string -> Triple_store.t
