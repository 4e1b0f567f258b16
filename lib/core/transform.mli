(** The BE-tree transformations: merge (Definition 9) and inject
    (Definition 10) as pure tree rewrites, and the cost-driven drivers
    (Algorithms 2–4).

    A merged BGP leaves an *empty BGP node* at its original position —
    exactly as the paper retains empty nodes — which keeps sibling indexes
    stable across transformations and is the join identity for evaluation.

    Safety beyond the paper's stated conditions: a merge may not move a
    BGP across an OPTIONAL sibling (left-outer joins do not commute with
    the distribution of Theorem 1 across that boundary), so [can_merge]
    additionally requires that no OPTIONAL node sits strictly between the
    BGP and the target UNION. Inject is safe regardless of intermediate
    siblings because every row of the OPTIONAL-left result extends a match
    of the injected BGP. *)

(** {1 Primitives} *)

(** [can_merge g ~p1 ~union] — Definition 9's applicability conditions
    (plus the OPTIONAL-crossing restriction): child [p1] is a non-empty
    BGP, child [union] is a UNION with at least one branch holding a
    coalescable top-level BGP child. *)
val can_merge : Be_tree.group -> p1:int -> union:int -> bool

(** [apply_merge g ~p1 ~union] performs the merge; the BGP is inserted as
    the leftmost child of every branch and coalesced to maximality.
    Raises [Invalid_argument] if [can_merge] is false. *)
val apply_merge : Be_tree.group -> p1:int -> union:int -> Be_tree.group

(** [can_inject g ~p1 ~opt] — Definition 10's conditions: child [p1] is a
    non-empty BGP, child [opt] is an OPTIONAL strictly to its right whose
    child group holds a coalescable top-level BGP child. *)
val can_inject : Be_tree.group -> p1:int -> opt:int -> bool

(** [apply_inject g ~p1 ~opt] performs the inject; the BGP stays at its
    original position *and* is coalesced into the OPTIONAL's child. *)
val apply_inject : Be_tree.group -> p1:int -> opt:int -> Be_tree.group

(** {1 Cost-driven drivers} *)

(** [multi_level env ?skip_cp_equivalent g] — Algorithm 4: greedy
    post-order traversal; lower levels are transformed before their
    parents. *)
val multi_level :
  Engine.Bgp_eval.t -> ?skip_cp_equivalent:bool -> Be_tree.group -> Be_tree.group

(** [timed_multi_level env ?skip_cp_equivalent g] is {!multi_level}
    paired with its elapsed wall-clock milliseconds — the prepare-phase
    cost a prepared query pays once and re-executions amortize. *)
val timed_multi_level :
  Engine.Bgp_eval.t ->
  ?skip_cp_equivalent:bool ->
  Be_tree.group ->
  Be_tree.group * float
