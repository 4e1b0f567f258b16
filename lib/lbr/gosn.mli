(** The GoSN (Graph of SuperNodes) of LBR (Atre, SIGMOD 2015): the
    structure LBR builds over a SPARQL query with AND and OPTIONAL
    patterns. Each supernode holds the triple patterns of one
    required/optional scope; directed edges go from the OPTIONAL-left
    scope (master) to each OPTIONAL-right scope.

    Nested groups are normalized the way LBR treats well-designed
    patterns: the conjunctive part of a nested group merges into the
    enclosing scope and its OPTIONAL scopes become children
    ((P AND (A OPT B)) ≡ ((P AND A) OPT B) under well-designedness).

    LBR's scope is queries of ANDs and OPTIONALs; UNION or FILTER make a
    query {!Unsupported} (the paper compares against LBR on OPTIONAL-only
    workloads, q2.1–q2.6). *)

exception Unsupported of string

type t = {
  id : int;
  patterns : Sparql.Triple_pattern.t list;  (** this scope's own patterns *)
  children : t list;  (** OPTIONAL-right scopes nested below this one *)
}

(** [of_group g] builds the GoSN of a surface group. Raises
    {!Unsupported} on UNION or FILTER. *)
val of_group : Sparql.Ast.group -> t

val of_query : Sparql.Ast.query -> t

(** [supernodes gosn] — all supernodes in pre-order (master first): LBR's
    forward pass order. *)
val supernodes : t -> t list

(** [pattern_count gosn] — total triple patterns. *)
val pattern_count : t -> int

(** [well_designed q] — the criterion of Pérez et al. (TODS 2009): for
    every subpattern [(P1 OPTIONAL P2)], each variable of [P2] that also
    occurs elsewhere in the query occurs in [P1]. LBR's semijoin pruning
    is only semantics-preserving on this fragment; {!Lbr_eval.run} refuses
    queries outside it. *)
val well_designed : Sparql.Ast.query -> bool

val pp : Format.formatter -> t -> unit
