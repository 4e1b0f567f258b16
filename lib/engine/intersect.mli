(** K-way sorted-set intersection with adaptive galloping — the kernel of
    the vertex-at-a-time WCO extension step.

    Operands are sorted duplicate-free ascending sequences (index column
    views or plain arrays). Per Aberger et al., "Old Techniques for New
    Join Algorithms", the kernel intersects smallest-first and switches
    between a linear merge and galloping (exponential probe + binary
    search) per pass, galloping only when the next operand is more than
    {!gallop_ratio} times larger than the running result. *)

type src =
  | View of Rdf_store.Index.view  (** sorted third-column index slice *)
  | Values of int array  (** strictly increasing array *)

(** [multiway ~gov ~buf srcs ~filters] intersects all operands in [srcs],
    dropping values rejected by any predicate in [filters] (dense candidate
    bitsets fold in here, one load+mask per probe, applied to the smallest
    operand before any merge pass). The result is written to the front of
    [!buf] — grown as needed, reusable across calls — and its length
    returned. [srcs] must be non-empty. The kernel's activity is counted
    on [gov], the ticket of the execution it works for. *)
val multiway :
  gov:Sparql.Governor.t ->
  buf:int array ref ->
  src list ->
  filters:(int -> bool) list ->
  int

(** [arrays operands] is [multiway] over plain sorted arrays under the
    ambient ticket, returning a fresh exactly-sized result. For tests and
    micro-benchmarks. *)
val arrays : int array list -> int array

(** {1 Instrumentation}

    The kernel's counters, as charged to one execution's ticket. *)

type counters = {
  intersections : int;  (** multiway intersections performed *)
  gallop_passes : int;  (** two-way passes that galloped *)
  merge_passes : int;  (** two-way passes that linear-merged *)
  domain_values : int;  (** total values across all emitted domains *)
  operands : int;  (** total operands consumed (views + sorted sets) *)
}

(** [of_counts c] reads the kernel counters out of a ticket snapshot. *)
val of_counts : Sparql.Governor.counts -> counters
