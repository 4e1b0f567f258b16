(** Query-statistics computation for Tables 3 and 4: query type (U / O /
    UO), the Count_BGP and Depth metrics of Section 7.1, and the result
    size under the reference evaluation. *)

type query_class = U | O | UO | Conjunctive

val class_name : query_class -> string

(** [classify q] — which of UNION/OPTIONAL the query uses. *)
val classify : Sparql.Ast.query -> query_class

type row = {
  id : string;
  query_class : query_class;
  count_bgp : int;
  depth : int;
  result_size : int option;  (** [None] if the reference run hit a limit *)
}

(** [row_of ?row_budget store entry] computes one table row (the result
    size is measured with the Full configuration, as the paper's tables
    report final result cardinalities, which are mode-independent). *)
val row_of :
  ?row_budget:int -> Rdf_store.Triple_store.t -> Queries.entry -> row
