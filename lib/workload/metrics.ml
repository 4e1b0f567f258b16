type query_class = U | O | UO | Conjunctive

let class_name = function U -> "U" | O -> "O" | UO -> "UO" | Conjunctive -> "B"

let classify (q : Sparql.Ast.query) =
  let has_union = ref false and has_optional = ref false in
  let rec walk_group g = List.iter walk_element g
  and walk_element = function
    | Sparql.Ast.Triples _ | Sparql.Ast.Filter _ | Sparql.Ast.Values _ -> ()
    | Sparql.Ast.Group g | Sparql.Ast.Minus g -> walk_group g
    | Sparql.Ast.Union gs ->
        has_union := true;
        List.iter walk_group gs
    | Sparql.Ast.Optional g ->
        has_optional := true;
        walk_group g
  in
  walk_group q.Sparql.Ast.where;
  match (!has_union, !has_optional) with
  | true, true -> UO
  | true, false -> U
  | false, true -> O
  | false, false -> Conjunctive

type row = {
  id : string;
  query_class : query_class;
  count_bgp : int;
  depth : int;
  result_size : int option;
}

let row_of ?row_budget store (entry : Queries.entry) =
  let query = Sparql.Parser.parse entry.text in
  let report =
    Sparql_uo.Executor.run_query ~mode:Sparql_uo.Executor.Full ?row_budget store
      query
  in
  {
    id = entry.id;
    query_class = classify query;
    count_bgp = Sparql_uo.Executor.count_bgp_of_query query;
    depth = Sparql_uo.Executor.depth_of_query query;
    result_size = report.Sparql_uo.Executor.result_count;
  }
