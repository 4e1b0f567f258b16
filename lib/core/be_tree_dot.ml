let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let bgp_label patterns =
  match patterns with
  | [] -> "BGP (empty)"
  | _ ->
      "BGP\\n"
      ^ String.concat "\\n"
          (List.map
             (fun tp -> escape (Sparql.Triple_pattern.to_string tp))
             patterns)

(* Emit the subtree rooted at [g]; [path] names its nodes; returns this
   group's dot node id. *)
let rec emit buf ~prefix path (g : Be_tree.group) =
  let id path = Printf.sprintf "%s_%s" prefix (String.concat "_" (List.map string_of_int (List.rev path))) in
  let self = id path in
  let filters =
    match g.Be_tree.filters with
    | [] -> ""
    | filters ->
        "\\n"
        ^ String.concat "\\n"
            (List.map
               (fun e ->
                 escape
                   (Format.asprintf "FILTER(%a)"
                      (Sparql.Ast.pp_expr (Rdf.Namespace.with_defaults ()))
                      e))
               filters)
  in
  Buffer.add_string buf
    (Printf.sprintf "  %s [shape=box, style=rounded, label=\"group%s\"];\n"
       self filters);
  List.iteri
    (fun i node ->
      let child_path = i :: path in
      let child = id child_path in
      (match node with
      | Be_tree.Bgp patterns ->
          Buffer.add_string buf
            (Printf.sprintf "  %s [shape=box, label=\"%s\"];\n" child
               (bgp_label patterns))
      | Be_tree.Values { Sparql.Ast.vars; rows } ->
          Buffer.add_string buf
            (Printf.sprintf
               "  %s [shape=box, label=\"VALUES %s (%d rows)\"];\n" child
               (escape (String.concat " " (List.map (fun v -> "?" ^ v) vars)))
               (List.length rows))
      | Be_tree.Union branches ->
          Buffer.add_string buf
            (Printf.sprintf "  %s [shape=diamond, label=\"UNION\"];\n" child);
          List.iteri
            (fun j branch ->
              let branch_id = emit buf ~prefix (j :: child_path) branch in
              Buffer.add_string buf
                (Printf.sprintf "  %s -> %s;\n" child branch_id))
            branches
      | Be_tree.Optional inner ->
          Buffer.add_string buf
            (Printf.sprintf "  %s [shape=diamond, label=\"OPTIONAL\"];\n"
               child);
          let inner_id = emit buf ~prefix (0 :: child_path) inner in
          Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" child inner_id)
      | Be_tree.Minus inner ->
          Buffer.add_string buf
            (Printf.sprintf "  %s [shape=diamond, label=\"MINUS\"];\n" child);
          let inner_id = emit buf ~prefix (0 :: child_path) inner in
          Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" child inner_id)
      | Be_tree.Group inner ->
          let inner_id = emit buf ~prefix (0 :: child_path) inner in
          Buffer.add_string buf
            (Printf.sprintf "  %s [shape=box, label=\"{ }\"];\n" child);
          Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" child inner_id));
      Buffer.add_string buf
        (Printf.sprintf "  %s -> %s [label=\"%d\"];\n" self child i))
    g.Be_tree.children;
  self

let pair_to_dot ~before ~after =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "digraph betree_pair {\n  rankdir=TB;\n  node [fontname=\"monospace\", fontsize=10];\n";
  Buffer.add_string buf "  subgraph cluster_before {\n    label=\"before transformation\";\n";
  ignore (emit buf ~prefix:"b" [ 0 ] before);
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf "  subgraph cluster_after {\n    label=\"after transformation\";\n";
  ignore (emit buf ~prefix:"a" [ 0 ] after);
  Buffer.add_string buf "  }\n}\n";
  Buffer.contents buf
