(** Candidate result sets for variables (Section 6): a map from variable
    column to the set of term ids the variable is allowed to take. BGP
    evaluators consult these to prune matches on the fly.

    A set is stored either as a dense bitset over dictionary ids (so
    {!allows} is one load plus a mask, and the multiway intersection kernel
    can fold the check into each probe) or as a strictly increasing sorted
    array (which the kernel consumes directly as an intersection operand).
    The representation is chosen by density at construction. *)

type set

type t

(** [of_hashtbl ~universe tbl] builds a set from the keys of [tbl].
    [universe] is the dictionary size (ids are dense in
    [0 .. universe-1]); the bitset representation is chosen when it is no
    larger than the equivalent sorted array, or the universe is small. *)
val of_hashtbl : universe:int -> (int, unit) Hashtbl.t -> set

(** [of_sorted_array arr] wraps a strictly increasing array without
    copying. The caller is responsible for sortedness. *)
val of_sorted_array : int array -> set

(** [of_two_bound store c] — the LBR-style index-level prefilter: for a
    compiled pattern with exactly two bound positions, the exact value
    set of its single variable column, built straight off the store's
    sorted third-column view. [None] otherwise. *)
val of_two_bound : Rdf_store.Snapshot.t -> Compiled.t -> (int * set) option

val cardinal : set -> int

(** [mem set id] — bitset: one load+mask; sorted array: binary search. *)
val mem : set -> int -> bool

(** [iter_values set ~f] applies [f] to every member, in increasing order. *)
val iter_values : set -> f:(int -> unit) -> unit

(** [as_sorted set] exposes the sorted-array payload when that is the
    representation ([None] for bitsets). Used by the intersection kernel to
    treat a sparse candidate set as just another sorted operand. *)
val as_sorted : set -> int array option

(** [noted_mem gov set id] — {!mem}, plus prefilter telemetry: counts a
    check on the ticket [gov], and a reject when the test fails. Scans
    use this (directly, or via {!allows}) so hit rates are observable;
    they fetch [gov] once per scan, not per test. *)
val noted_mem : Sparql.Governor.t -> set -> int -> bool

(** Prefilter membership tests and rejects, as charged to one
    execution's ticket. *)
type counters = { checks : int; rejects : int }

(** [of_counts c] reads the prefilter counters out of a ticket snapshot. *)
val of_counts : Sparql.Governor.counts -> counters

val empty : t

(** [set cands ~col s] returns candidates extended/overridden at [col]. *)
val set : t -> col:int -> set -> t

val find : t -> col:int -> set option

(** [allows gov cands ~col value] is false only when [col] has a
    candidate set that does not contain [value]; the test is counted on
    [gov] as {!noted_mem} does. *)
val allows : Sparql.Governor.t -> t -> col:int -> int -> bool

val is_empty : t -> bool

(** [restrict cands ~cols] drops candidate sets for columns outside
    [cols]. Used when crossing an OPTIONAL boundary: only columns
    universally bound by the OPTIONAL-left side may prune its right side
    (pruning any other column could turn an extension into a spuriously
    surviving unextended row). *)
val restrict : t -> cols:int list -> t

(** [columns cands] — the columns carrying a candidate set. *)
val columns : t -> int list
