(** A sorted permutation index stored as off-heap compressed columns.

    The store keeps six {!t} values, one per component order (SPO, SOP,
    PSO, POS, OSP, OPS). Each is a three-level grouping structure over
    {!Column} storage: distinct first keys, (first, second) groups, and
    the full third-key column — all outside the OCaml heap, with the
    two big columns block-compressed under {!Column.Delta}. Lookups with
    any set of bound positions become sample-galloped searches yielding
    global row ranges, exactly as in the old permutation layout. *)

type order = Spo | Sop | Pso | Pos | Osp | Ops

(** A raw triple table: [s.(i), p.(i), o.(i)] is the i-th triple. Used
    by {!build} (tests); index sets feed {!of_sorted}. *)
type table = { s : int array; p : int array; o : int array }

type t

val order : t -> order

(** Number of rows. *)
val length : t -> int

(** Bytes of off-heap storage held by the index. *)
val mem_bytes : t -> int

(** [build ?mode order table] sorts the rows of [table]
    lexicographically by the components of [order] with {!sort_perm}
    and encodes the index ([mode] defaults to [Delta]). *)
val build : ?mode:Column.mode -> order -> table -> t

(** [sort_perm ~n ~max_id ~key1 ~key2 ~key3] is the permutation of
    [0..n-1] that sorts rows lexicographically by their key components,
    all of which lie in [0, max_id]. The one sort behind every index
    build: an LSD radix sort, O(n + max_id) per pass, when
    {!radix_pays}; otherwise a comparison sort on packed keys,
    O(n log n) whatever the id range. *)
val sort_perm :
  n:int ->
  max_id:int ->
  key1:(int -> int) ->
  key2:(int -> int) ->
  key3:(int -> int) ->
  int array

(** [radix_pays ~n ~max_id] is the cost rule {!sort_perm} applies: true
    when three counting passes over [n] rows and an id range of
    [max_id] cost no more than a comparison sort of [n] rows. Bulk
    loads and checkpoints pass it; a small delta over a large
    dictionary does not. *)
val radix_pays : n:int -> max_id:int -> bool

(** [of_sorted order ~mode ~n ~key1 ~key2 ~key3] encodes [n] rows
    already sorted lexicographically by their key components, streamed
    through the accessors in one pass — the bulk-load path (per-group
    cardinalities come free from boundary detection). *)
val of_sorted :
  order ->
  mode:Column.mode ->
  n:int ->
  key1:(int -> int) ->
  key2:(int -> int) ->
  key3:(int -> int) ->
  t

(** [range index ?a ?b ?c ()] is the half-open interval [(lo, hi)] of
    global row positions matching the given key prefix, where [a]
    constrains the first component of the order, [b] the second and [c]
    the third. Passing [b] without [a], or [c] without [b], is an
    [Invalid_argument]. *)
val range : t -> ?a:int -> ?b:int -> ?c:int -> unit -> int * int

(** A strictly increasing sequence of ids: a zero-copy window onto a
    compressed column (with its own block-decode cursor), or a
    materialized array (snapshot merges). Views carry mutable decode
    state — never share one across domains. *)
type view

(** [column_view index ~a ~b] is the sorted, duplicate-free slice of
    third key components for rows whose first two components equal
    [(a, b)]; empty when the prefix is absent. Touched blocks decode
    into the view's cursor on demand — nothing is copied up front. *)
val column_view : t -> a:int -> b:int -> view

(** [firsts_view index] — the distinct first-key values in increasing
    order (distinct subjects of SPO, distinct objects of OSP): the
    statistics pass reads entity ids straight off the skip level. *)
val firsts_view : t -> view

(** [view_of_sorted_array vals] wraps a materialized array as a view.
    [vals] must be strictly increasing — the caller (the snapshot layer,
    merging base and delta third columns) guarantees it. *)
val view_of_sorted_array : int array -> view

val view_length : view -> int

(** [view_get v i] is the [i]-th (ascending) value, [0 <= i < length]. *)
val view_get : view -> int -> int

(** [view_lower_bound v ~from value] is the first index [>= from] whose
    value is [>= value], or [view_length v]. On compressed slices this
    searches the uncompressed block samples and decodes at most one
    block — the intersection kernel's gallop probe. *)
val view_lower_bound : view -> from:int -> int -> int

(** [iter index ~lo ~hi ~f] applies [f ~s ~p ~o] to each row in
    positions [lo..hi-1], in index order, decoding each block once. *)
val iter : t -> lo:int -> hi:int -> f:(s:int -> p:int -> o:int -> unit) -> unit

(** Decode state for positional reads: nearby positions read through
    one cursor decode each touched block once. Single-reader mutable
    state, like a {!view}. *)
type cursor

val cursor : t -> cursor

(** [row index cur pos] is the (s, p, o) at global position [pos]. *)
val row : t -> cursor -> int -> int * int * int

(** [rank index ~s ~p ~o] is the number of rows ordered before
    [(s, p, o)] in the index's component order — the triple's position
    when it is present. *)
val rank : t -> s:int -> p:int -> o:int -> int

(** [iter_firsts index ~f] — every distinct first-key value with its
    global row range, in key order (the per-predicate walk on PSO). *)
val iter_firsts : t -> f:(int -> lo:int -> hi:int -> unit) -> unit

(** [distinct_firsts index ~lo ~hi] counts distinct values of the
    order's first component within the range — group-id arithmetic on
    the offset columns, no scan. *)
val distinct_firsts : t -> lo:int -> hi:int -> int

(** [distinct_seconds index ~lo ~hi] counts distinct (first, second)
    pairs within the range. *)
val distinct_seconds : t -> lo:int -> hi:int -> int
