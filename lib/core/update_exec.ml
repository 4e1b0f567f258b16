(* Instantiate a template triple pattern against one solution row;
   [None] when non-ground or invalid. *)
let instantiate ~decode vartable row (tp : Sparql.Triple_pattern.t) =
  let resolve = function
    | Sparql.Triple_pattern.Term t -> Some t
    | Sparql.Triple_pattern.Var v -> (
        match Sparql.Vartable.find vartable v with
        | Some col when Sparql.Binding.is_bound row col ->
            Some (decode row.(col))
        | _ -> None)
  in
  match (resolve tp.s, resolve tp.p, resolve tp.o) with
  | Some s, Some p, Some o ->
      let triple = Rdf.Triple.make s p o in
      if Rdf.Triple.is_valid triple then Some triple else None
  | _ -> None

let where_query (where : Sparql.Ast.group) =
  {
    Sparql.Ast.env = Rdf.Namespace.with_defaults ();
    form = Sparql.Ast.Select Sparql.Ast.Star;
    distinct = false;
    where;
    group_by = [];
    having = None;
    order_by = [];
    limit = None;
    offset = None;
  }

let instantiate_bag ~decode vartable bag templates =
  Sparql.Bag.fold bag ~init:[] ~f:(fun acc row ->
      List.fold_left
        (fun acc tp ->
          match instantiate ~decode vartable row tp with
          | Some triple -> triple :: acc
          | None -> acc)
        acc templates)

(* All triple patterns of a group, recursively — DELETE WHERE treats the
   whole pattern as its template. *)
let rec group_patterns (g : Sparql.Ast.group) =
  List.concat_map
    (function
      | Sparql.Ast.Triples tps -> tps
      | Sparql.Ast.Group inner | Sparql.Ast.Optional inner
      | Sparql.Ast.Minus inner ->
          group_patterns inner
      | Sparql.Ast.Union gs -> List.concat_map group_patterns gs
      | Sparql.Ast.Filter _ | Sparql.Ast.Values _ -> [])
    g

(* WHERE clauses of session updates run through the session plan cache
   under a synthetic key derived from the group's structure (the AST is
   pure data, so a Marshal digest is a sound structural fingerprint).
   Repeated updates with the same WHERE shape — the common serving
   pattern — therefore hit the cache instead of re-planning. *)
let where_key (where : Sparql.Ast.group) =
  "update-where:" ^ Digest.to_hex (Digest.string (Marshal.to_string where []))

(* Evaluate [where] once; instantiate any number of template lists from
   the same solution set (a Modify needs both its DELETE and INSERT
   templates against one evaluation). *)
let solutions_session ?engine session where =
  let report =
    Session.run_query_ast ?engine session ~key:(where_key where)
      (where_query where)
  in
  match report.Prepared.bag with
  | None -> fun _templates -> []
  | Some bag ->
      let snap = Session.snapshot session in
      let decode = Rdf_store.Snapshot.decode_term snap in
      fun templates ->
        instantiate_bag ~decode report.Prepared.vartable bag templates

(* One update operation = one transaction: the WHERE clause (if any) is
   evaluated against the pre-update snapshot, both DELETE and INSERT
   templates against that same evaluation (SPARQL Update semantics),
   and the buffered writes publish atomically on commit. Deletes fold
   before inserts, so a Modify that removes and re-adds a triple keeps
   it. On a durable session the commit is write-ahead logged, so the
   operation is all-or-nothing across crashes too. *)
let apply_session ?engine session (update : Sparql.Ast.update) =
  let in_txn f =
    let txn = Session.begin_txn session in
    match f txn with
    | () -> Session.commit session txn
    | exception e ->
        Session.abort session txn;
        raise e
  in
  match update with
  | Sparql.Ast.Insert_data triples ->
      in_txn (fun txn -> List.iter (Rdf_store.Mvcc.insert txn) triples)
  | Sparql.Ast.Delete_data triples ->
      in_txn (fun txn -> List.iter (Rdf_store.Mvcc.delete txn) triples)
  | Sparql.Ast.Delete_where where ->
      let removed = solutions_session ?engine session where (group_patterns where) in
      in_txn (fun txn -> List.iter (Rdf_store.Mvcc.delete txn) removed)
  | Sparql.Ast.Modify { delete; insert; where } ->
      let instantiate = solutions_session ?engine session where in
      let removed = instantiate delete in
      let added = instantiate insert in
      in_txn (fun txn ->
          List.iter (Rdf_store.Mvcc.delete txn) removed;
          List.iter (Rdf_store.Mvcc.insert txn) added)

let run_session ?engine session text =
  List.iter (apply_session ?engine session) (Sparql.Parser.parse_update text)
