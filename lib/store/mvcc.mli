(** The writer side of the snapshot store: one value per store lineage,
    holding the current {!Snapshot.t} in an atomic cell behind a writer
    mutex.

    Readers call {!snapshot} — an O(1) atomic load, never blocked by
    writers — and evaluate against the immutable view they got.
    Transactions buffer writes locally; {!commit} serializes on the
    writer mutex, folds the buffer over the latest published delta
    (maintaining adds ∩ base = ∅, dels ⊆ base, adds ∩ dels = ∅) and
    publishes a new snapshot atomically. Readers that acquired their
    snapshot before the publish keep seeing exactly the pre-commit
    state; readers after see exactly the post-commit state.

    When a committed delta exceeds [compact_threshold] buffered rows it
    is folded into a fresh base epoch (same shared dictionary) before
    publishing; {!compact} forces the same fold. In-flight readers are
    never blocked — they keep their old base alive until they drop it. *)

type t

(** [create ?compact_threshold store] starts a lineage at [store] with
    an empty delta. [compact_threshold] (default 65536) is the buffered
    row count at which a commit auto-compacts. The lineage is purely
    in-memory — see {!open_dir} for a durable one. *)
val create : ?compact_threshold:int -> Triple_store.t -> t

(** [open_dir dir] opens (or initializes, seeding a fresh directory
    with [init ()] — default empty) a durable lineage backed by a
    write-ahead log in [dir]: every commit appends its records to the
    log before publishing and honors [policy] (default
    [Wal.Every_commit]) before returning; compaction checkpoints the
    folded base and truncates the log behind it. On reopen, the
    committed prefix of the log is refolded over the last checkpoint —
    exactly the transactions whose commit marker hit the disk are
    restored. Raises {!Wal.Unrecoverable} when the directory needs
    operator intervention. *)
val open_dir :
  ?compact_threshold:int ->
  ?policy:Wal.sync_policy ->
  ?init:(unit -> Triple_store.t) ->
  string ->
  t * Wal.recovery

(** [wal t] — the log handle of a durable lineage ([None] for
    {!create}d ones); exposes sync/batch counters. *)
val wal : t -> Wal.t option

(** [snapshot t] — the current consistent view; O(1), wait-free. *)
val snapshot : t -> Snapshot.t

(** [base t] is the current snapshot's base store. *)
val base : t -> Triple_store.t

(** [delta_rows t] — buffered delta rows in the current snapshot. *)
val delta_rows : t -> int

(** [set_base t store] atomically replaces the lineage with a freshly
    built base (bulk rebuild path), dropping any buffered delta. *)
val set_base : t -> Triple_store.t -> unit

(** {1 Transactions} *)

type txn

val begin_txn : t -> txn

(** [insert txn triple] / [delete txn triple] buffer a write (encoding
    terms through the shared dictionary; inserting interns new terms,
    deleting unknown terms is a no-op). Nothing is visible to any
    reader until {!commit}. Raises [Invalid_argument] on a closed
    transaction. *)
val insert : txn -> Rdf.Triple.t -> unit

val delete : txn -> Rdf.Triple.t -> unit

(** [commit txn] publishes the buffered writes atomically and returns
    the new current snapshot (auto-compacting if the delta crossed the
    threshold). An empty transaction publishes nothing. *)
val commit : txn -> Snapshot.t

(** [abort txn] drops the buffer; nothing was ever visible. *)
val abort : txn -> unit

(** [apply t ~inserts ~deletes] — one-shot transaction. *)
val apply :
  t -> inserts:Rdf.Triple.t list -> deletes:Rdf.Triple.t list -> Snapshot.t

(** {1 Compaction and durability} *)

(** [compact t] folds the current delta into a fresh base epoch and
    publishes it (no-op on an empty delta); returns the new snapshot.
    On a durable lineage this doubles as the checkpoint: the folded
    base is written atomically and the log truncated behind it, without
    blocking pinned readers. *)
val compact : t -> Snapshot.t

(** [checkpoint t] — like {!compact}, but also rotates the log when the
    delta is empty (bounding recovery replay to zero transactions).
    No-op on an in-memory lineage. *)
val checkpoint : t -> Snapshot.t

(** [sync t] forces every appended commit to durable storage (useful
    before exiting under the [Never]/[Interval] policies). No-op on an
    in-memory lineage. *)
val sync : t -> unit
