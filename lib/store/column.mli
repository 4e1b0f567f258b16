(** Off-heap integer columns — the physical storage behind the
    permutation indexes.

    Values live in [char] Bigarrays outside the OCaml heap, so index
    data is invisible to the GC and survives at fixed cost regardless of
    heap pressure. Two representations, chosen per column:

    - {!Raw}: fixed-width little-endian cells (4 bytes when every value
      fits in 31 bits, 8 otherwise — the int32 guard). O(1) access.
    - {!Delta}: blocks of 128 values; each block's first value is kept
      uncompressed in a sample (skip-index) array, the rest encoded as
      zigzag-varint deltas or, for strictly increasing dense blocks, a
      span bitset — whichever is smaller.

    Columns are immutable after {!Builder.finish} and safe to share
    across domains; {!cursor}s are the only mutable state and belong to
    one reader. *)

(** Store construction paths default to [Delta]; [Raw] backs the offset
    columns and indexes built with an explicit mode. *)
type mode = Raw | Delta

val mode_name : mode -> string

(** Number of values per compressed block (128). *)
val block_size : int

type t

val length : t -> int

(** Bytes of off-heap storage held by the column. *)
val mem_bytes : t -> int

val mode : t -> mode

(** [get t i] — cold random access. On compressed columns a non-sample
    position decodes a throwaway block; sequential and search paths use
    cursors instead. *)
val get : t -> int -> int

(** A per-reader decode cache: one 128-value scratch plus the id of the
    block it holds. Never share a cursor across domains. *)
type cursor

val cursor : t -> cursor

(** [read t cur i] — random access through [cur]; consecutive reads
    within one block decode it once. *)
val read : t -> cursor -> int -> int

(** [iter t ~lo ~hi ~f] applies [f] to the values at positions
    [lo..hi-1] in order, decoding each touched block exactly once. *)
val iter : t -> lo:int -> hi:int -> f:(int -> unit) -> unit

(** [lower_bound t ?cursor ~lo ~hi v] is the first position in
    [lo, hi)] whose value is [>= v], or [hi]. Requires the values over
    [lo, hi)] to be increasing. Compressed columns binary-search the
    uncompressed samples and decode exactly one candidate block (into
    [cursor] when given, so a following {!read} of the found position
    is free). *)
val lower_bound : t -> ?cursor:cursor -> lo:int -> hi:int -> int -> int

module Builder : sig
  type col = t

  type t

  val create : mode -> t

  (** [add b v] appends [v] (which must be [>= 0]). *)
  val add : t -> int -> unit

  val finish : t -> col
end

(** [of_array mode arr] builds a column from [arr] (test helper). *)
val of_array : mode -> int array -> t

(** [to_array t] decodes the whole column (test helper). *)
val to_array : t -> int array
