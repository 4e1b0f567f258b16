(** Graphviz rendering of BE-trees: one box per node, BGP leaves listing
    their triple patterns, so before/after transformation plans can be
    inspected visually ([dot -Tsvg plan.dot > plan.svg]). *)

(** [pair_to_dot ~before ~after] — both trees side by side in one digraph,
    labeled as two clusters. *)
val pair_to_dot : before:Be_tree.group -> after:Be_tree.group -> string
