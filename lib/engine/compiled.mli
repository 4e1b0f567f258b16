(** Triple patterns compiled against a store and a query's variable table:
    variables become column indexes and constant terms become dictionary
    ids (or {!Missing} when the constant does not occur in the data, which
    forces an empty result). *)

type node =
  | Cvar of int  (** variable, by {!Sparql.Vartable} column *)
  | Cterm of int  (** constant, by dictionary id *)
  | Missing  (** constant absent from the dictionary *)

type t = {
  cs : node;
  cp : node;
  co : node;
  source : Sparql.Triple_pattern.t;
}

val compile :
  Rdf_store.Snapshot.t -> Sparql.Vartable.t -> Sparql.Triple_pattern.t -> t

val compile_list :
  Rdf_store.Snapshot.t ->
  Sparql.Vartable.t ->
  Sparql.Triple_pattern.t list ->
  t list

(** [has_missing ctp] is true when some position is {!Missing}. *)
val has_missing : t -> bool

(** [var_columns ctp] lists the distinct variable columns (s, p, o order). *)
val var_columns : t -> int list

(** [exact_count store ctp] is the exact number of data triples matching
    [ctp] taken in isolation (constant positions keyed, variables
    wildcarded) — read straight off the index ranges, as the paper's
    cardinality estimation does for single triple patterns. *)
val exact_count : Rdf_store.Snapshot.t -> t -> int

(** [count_with store ctp row] is the exact match count after substituting
    the bound columns of [row] into the pattern; [None] if a [Missing]
    constant makes it trivially 0. *)
val count_with : Rdf_store.Snapshot.t -> t -> Sparql.Binding.t -> int

(** [iter_matches store ctp row ~f] enumerates matching triples after
    substituting bound columns of [row]; [f] receives the full (s, p, o). *)
val iter_matches :
  Rdf_store.Snapshot.t ->
  t ->
  Sparql.Binding.t ->
  f:(s:int -> p:int -> o:int -> unit) ->
  unit

(** [iter_strided store ctp row ~stride ~f] visits the matches
    {!iter_matches} enumerates at positions [0, stride, 2·stride, …]
    while [f] returns [true], reading them by position
    ({!Rdf_store.Snapshot.iter_strided}). *)
val iter_strided :
  Rdf_store.Snapshot.t ->
  t ->
  Sparql.Binding.t ->
  stride:int ->
  f:(s:int -> p:int -> o:int -> bool) ->
  unit
