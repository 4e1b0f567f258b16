(** A from-scratch LUBM generator (the paper's synthetic dataset,
    Section 7): universities → departments → faculty, students, courses,
    research groups and publications, with the schema's 18 predicates and
    LUBM's published cardinality ratios, deterministically seeded.

    University 0 is generated with floors on department and student counts
    so that the constants appearing in the benchmark queries
    (Department12.University0, UndergraduateStudent363, the email literal
    of q1.4, …) are guaranteed to exist at every scale. *)

type config = {
  universities : int;
  seed : int;
  density : float;
      (** scales per-entity fan-outs (students per faculty, publications,
          …); 1.0 reproduces LUBM's ratios, tests use smaller values *)
}

(** [default] — 130 universities at density 1.0 (≈ 13M triples). All
    benchmark query constants exist from 13 universities up; the default
    sits an order of magnitude above that now that base data lives in
    off-heap compressed columns. *)
val default : config

(** [tiny] — 1 university at low density (68,779 triples; university 0's
    department and student floors apply at every scale), for tests. *)
val tiny : config

(** [scaled n] — [default] with [n] universities (Figure 12's ladder). *)
val scaled : int -> config

(** [iter_triples config ~f] streams the dataset to [f] in generation
    order without materializing it — the path the bulk loader uses; at
    the default scale the triple list form would dominate the heap. *)
val iter_triples : config -> f:(Rdf.Triple.t -> unit) -> unit

(** [generate config] materializes the dataset as a list (tests, small
    scales). *)
val generate : config -> Rdf.Triple.t list

(** [store config] — stream-generate and bulk-index via
    {!Rdf_store.Triple_store.of_iter}. *)
val store : config -> Rdf_store.Triple_store.t

(** {1 IRI helpers (used by queries and tests)} *)

val department_iri : univ:int -> dept:int -> string
