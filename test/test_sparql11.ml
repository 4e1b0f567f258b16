(* Tests for the SPARQL 1.1 extensions: MINUS, VALUES, EXISTS/NOT EXISTS,
   the expression grammar (arithmetic, functions), ORDER BY and the
   ASK/CONSTRUCT/DESCRIBE query forms — parser-level and end-to-end
   through the executor. Also the regex engine. *)

let iri i = Rdf.Term.iri (Printf.sprintf "http://t/e%d" i)
let pred i = Rdf.Term.iri (Printf.sprintf "http://t/p%d" i)

let tiny_store () =
  Rdf_store.Triple_store.of_triples
    [
      Rdf.Triple.make (iri 0) (pred 0) (iri 1);
      Rdf.Triple.make (iri 0) (pred 1) (Rdf.Term.literal "alpha");
      Rdf.Triple.make (iri 2) (pred 0) (iri 3);
      Rdf.Triple.make (iri 2) (pred 1) (Rdf.Term.literal "Beta");
      Rdf.Triple.make (iri 4) (pred 0) (iri 1);
      Rdf.Triple.make (iri 4) (pred 2) (Rdf.Term.int_literal 7);
    ]

let count store text =
  Option.get
    (Sparql_uo.Executor.run store text).Sparql_uo.Executor.result_count

let solutions_of store text =
  let report = Sparql_uo.Executor.run store text in
  Sparql_uo.Executor.solutions store report

(* --- Regex engine ------------------------------------------------------- *)

let test_regex_basics () =
  let check ?(ci = false) pattern cases =
    let re = Sparql.Regex.compile ~case_insensitive:ci pattern in
    List.iter
      (fun (s, expected) ->
        Alcotest.(check bool)
          (Printf.sprintf "%S on %S" pattern s)
          expected (Sparql.Regex.matches re s))
      cases
  in
  check "abc" [ ("xxabcxx", true); ("ab", false) ];
  check "^abc$" [ ("abc", true); ("xabc", false); ("abcx", false) ];
  check "a*b" [ ("b", true); ("aaab", true); ("ac", false) ];
  check "a+b" [ ("b", false); ("aaab", true) ];
  check "colou?r" [ ("color", true); ("colour", true); ("colouur", false) ];
  check "cat|dog" [ ("my cat", true); ("my dog", true); ("my cow", false) ];
  check "[a-c]+[0-9]" [ ("abc9", true); ("d4", false) ];
  check "[^0-9]" [ ("5", false); ("55x", true) ];
  check "\\d+\\.\\d+" [ ("pi=3.25!", true); ("325", false) ];
  check "(ab)+c" [ ("ababc", true); ("abbc", false) ];
  check "" [ ("anything", true); ("", true) ];
  check "a.c" [ ("abc", true); ("a\nc", false) ];
  check ~ci:true "HeLLo" [ ("hello world", true); ("help", false) ];
  check "^$" [ ("", true); ("x", false) ];
  check "x(a|b)*y" [ ("xy", true); ("xabababy", true); ("xacy", false) ];
  check "\\w+@\\w+" [ ("mail me@example please", true); ("@", false) ]

let test_regex_errors () =
  List.iter
    (fun pattern ->
      match Sparql.Regex.compile pattern with
      | exception Sparql.Regex.Syntax_error _ -> ()
      | _ -> Alcotest.fail ("expected syntax error for " ^ pattern))
    [ "("; "[abc"; "*x"; "a|*"; "\\q"; "a)" ]

(* A pattern built by escaping an arbitrary string always matches that
   string (contains semantics). *)
let prop_regex_literal_self_match =
  QCheck2.Test.make ~name:"escaped literal matches itself" ~count:300
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 15))
    (fun s ->
      let escaped = Buffer.create (String.length s * 2) in
      String.iter
        (fun c ->
          (match c with
          | '.' | '\\' | '*' | '+' | '?' | '(' | ')' | '[' | ']' | '|' | '^'
          | '$' | '{' | '}' | '-' ->
              Buffer.add_char escaped '\\'
          | _ -> ());
          Buffer.add_char escaped c)
        s;
      (* Skip strings with characters our escape table can't express. *)
      match Sparql.Regex.compile (Buffer.contents escaped) with
      | re -> Sparql.Regex.matches re s
      | exception Sparql.Regex.Syntax_error _ -> QCheck2.assume_fail ())

(* --- Parser: new syntax -------------------------------------------------- *)

let test_parse_minus_values () =
  let q =
    Sparql.Parser.parse
      {|SELECT * WHERE {
         ?x <http://t/p0> ?y .
         MINUS { ?x <http://t/p2> ?z . }
         VALUES (?x ?w) { (<http://t/e0> <http://t/e1>) (UNDEF <http://t/e2>) }
       }|}
  in
  match q.Sparql.Ast.where with
  | [ Sparql.Ast.Triples _; Sparql.Ast.Minus _; Sparql.Ast.Values block ] ->
      Alcotest.(check (list string)) "values vars" [ "x"; "w" ] block.Sparql.Ast.vars;
      Alcotest.(check int) "two rows" 2 (List.length block.Sparql.Ast.rows);
      Alcotest.(check bool) "UNDEF parsed" true
        (List.nth (List.nth block.Sparql.Ast.rows 1) 0 = None)
  | _ -> Alcotest.fail "unexpected structure"

let test_parse_single_var_values () =
  let q =
    Sparql.Parser.parse
      "SELECT * WHERE { VALUES ?x { <http://t/e0> UNDEF <http://t/e1> } }"
  in
  match q.Sparql.Ast.where with
  | [ Sparql.Ast.Values block ] ->
      Alcotest.(check int) "three rows" 3 (List.length block.Sparql.Ast.rows)
  | _ -> Alcotest.fail "unexpected structure"

let test_parse_exists_filter () =
  let q =
    Sparql.Parser.parse
      "SELECT * WHERE { ?x <http://t/p0> ?y . FILTER NOT EXISTS { ?x <http://t/p2> ?n . } }"
  in
  match q.Sparql.Ast.where with
  | [ _; Sparql.Ast.Filter (Sparql.Expr.Not_exists _) ] -> ()
  | _ -> Alcotest.fail "expected NOT EXISTS filter"

let test_parse_arith_and_functions () =
  let q =
    Sparql.Parser.parse
      "SELECT * WHERE { ?x <http://t/p2> ?n . FILTER (?n * 2 + 1 > 10 / 2 && regex(str(?x), \"e4\")) }"
  in
  match q.Sparql.Ast.where with
  | [ _; Sparql.Ast.Filter (Sparql.Expr.And (Sparql.Expr.Cmp _, Sparql.Expr.Call (Sparql.Expr.B_regex, _))) ] -> ()
  | [ _; Sparql.Ast.Filter _ ] -> Alcotest.fail "unexpected filter shape"
  | _ -> Alcotest.fail "expected filter"

let test_parse_order_by () =
  let q =
    Sparql.Parser.parse
      "SELECT * WHERE { ?x <http://t/p0> ?y . } ORDER BY DESC(?y) ?x LIMIT 3"
  in
  Alcotest.(check bool) "order keys" true
    (q.Sparql.Ast.order_by = [ ("y", true); ("x", false) ]);
  Alcotest.(check (option int)) "limit after order" (Some 3) q.Sparql.Ast.limit

let test_parse_forms () =
  let ask = Sparql.Parser.parse "ASK { ?x <http://t/p0> ?y . }" in
  Alcotest.(check bool) "ask form" true (ask.Sparql.Ast.form = Sparql.Ast.Ask);
  let construct =
    Sparql.Parser.parse
      "CONSTRUCT { ?x <http://t/derived> ?y . } WHERE { ?x <http://t/p0> ?y . }"
  in
  (match construct.Sparql.Ast.form with
  | Sparql.Ast.Construct [ _ ] -> ()
  | _ -> Alcotest.fail "construct template");
  let describe = Sparql.Parser.parse "DESCRIBE <http://t/e0>" in
  match describe.Sparql.Ast.form with
  | Sparql.Ast.Describe [ Sparql.Ast.Dterm _ ] -> ()
  | _ -> Alcotest.fail "describe target"

(* --- End-to-end through the executor ------------------------------------- *)

let test_minus_semantics () =
  let store = tiny_store () in
  (* Three p0 edges; e0 and e4 have extra attributes; MINUS removes
     subjects that also have p1. *)
  let n =
    count store
      "SELECT * WHERE { ?x <http://t/p0> ?y . MINUS { ?x <http://t/p1> ?l . } }"
  in
  Alcotest.(check int) "minus removes p1 subjects" 1 n;
  (* Disjoint-domain MINUS removes nothing (SPARQL's subtlety). *)
  let n =
    count store
      "SELECT * WHERE { ?x <http://t/p0> ?y . MINUS { ?a <http://t/p1> ?l . } }"
  in
  Alcotest.(check int) "disjoint-domain minus keeps all" 3 n

let test_values_semantics () =
  let store = tiny_store () in
  let n =
    count store
      "SELECT * WHERE { ?x <http://t/p0> ?y . VALUES ?x { <http://t/e0> <http://t/e2> } }"
  in
  Alcotest.(check int) "values restricts" 2 n;
  (* UNDEF joins with anything. *)
  let n =
    count store
      "SELECT * WHERE { ?x <http://t/p0> ?y . VALUES (?x) { (UNDEF) } }"
  in
  Alcotest.(check int) "UNDEF row keeps all" 3 n;
  (* A VALUES constant absent from the data joins with nothing. *)
  let n =
    count store
      "SELECT * WHERE { ?x <http://t/p0> ?y . VALUES ?x { <http://t/absent> } }"
  in
  Alcotest.(check int) "absent constant" 0 n

let test_exists_semantics () =
  let store = tiny_store () in
  let n =
    count store
      "SELECT * WHERE { ?x <http://t/p0> ?y . FILTER EXISTS { ?x <http://t/p1> ?l . } }"
  in
  Alcotest.(check int) "exists" 2 n;
  let n =
    count store
      "SELECT * WHERE { ?x <http://t/p0> ?y . FILTER NOT EXISTS { ?x <http://t/p1> ?l . } }"
  in
  Alcotest.(check int) "not exists" 1 n

(* EXISTS stops at its first row: every ?x below has 50 [p1] matches, so
   materializing each parameterized pattern would produce 20 x 50 = 1000
   rows; streaming it into a stop-at-first-row sink produces a handful
   per outer row. The result is still the oracle's bag. *)
let test_exists_stops_at_first_row () =
  let subjects = 20 and matches = 50 in
  let store =
    Rdf_store.Triple_store.of_triples
      (List.concat
         (List.init subjects (fun i ->
              Rdf.Triple.make (iri i) (pred 0) (iri i)
              :: List.init matches (fun j ->
                     Rdf.Triple.make (iri i) (pred 1) (iri (1000 + j))))))
  in
  let text =
    "SELECT * WHERE { ?x <http://t/p0> ?y . FILTER EXISTS { ?x <http://t/p1> ?z . } }"
  in
  let expected, _ = Qgen.oracle store (Sparql.Parser.parse text) in
  let report = Sparql_uo.Executor.run store text in
  (match report.Sparql_uo.Executor.bag with
  | Some bag ->
      Alcotest.(check bool) "EXISTS = oracle" true
        (Sparql.Bag.equal_as_bags bag expected)
  | None -> Alcotest.fail "unexpected resource limit");
  Alcotest.(check (option int)) "every subject passes" (Some subjects)
    report.Sparql_uo.Executor.result_count;
  Alcotest.(check bool)
    (Printf.sprintf "EXISTS produced %d rows, under the %d a full \
                     materialization needs"
       report.Sparql_uo.Executor.pushed_rows (subjects * matches))
    true
    (report.Sparql_uo.Executor.pushed_rows < subjects * matches)

let test_filter_functions_semantics () =
  let store = tiny_store () in
  let n =
    count store
      "SELECT * WHERE { ?x <http://t/p1> ?l . FILTER regex(?l, \"^al\", \"i\") }"
  in
  Alcotest.(check int) "regex filter" 1 n;
  let n =
    count store
      "SELECT * WHERE { ?x <http://t/p2> ?n . FILTER (?n * 2 = 14) }"
  in
  Alcotest.(check int) "arithmetic filter" 1 n;
  (* "alpha" has 5 characters, "Beta" only 4. *)
  let n =
    count store
      "SELECT * WHERE { ?x <http://t/p1> ?l . FILTER (strlen(?l) = 5 && isLiteral(?l)) }"
  in
  Alcotest.(check int) "strlen + isLiteral" 1 n;
  let n =
    count store
      "SELECT * WHERE { ?x <http://t/p1> ?l . FILTER isLiteral(?l) }"
  in
  Alcotest.(check int) "isLiteral alone" 2 n

let test_order_by_semantics () =
  let store = tiny_store () in
  let report =
    Sparql_uo.Executor.run store
      "SELECT * WHERE { ?x <http://t/p0> ?y . } ORDER BY ?x"
  in
  let xs =
    List.map
      (fun solution -> List.assoc "x" solution)
      (Sparql_uo.Executor.solutions store report)
  in
  Alcotest.(check bool) "sorted ascending" true
    (xs = List.sort Rdf.Term.compare xs);
  let report =
    Sparql_uo.Executor.run store
      "SELECT * WHERE { ?x <http://t/p0> ?y . } ORDER BY DESC(?x)"
  in
  let xs_desc =
    List.map
      (fun solution -> List.assoc "x" solution)
      (Sparql_uo.Executor.solutions store report)
  in
  Alcotest.(check bool) "sorted descending" true (xs_desc = List.rev xs)

let test_ask_form () =
  let store = tiny_store () in
  let yes = Sparql_uo.Executor.run store "ASK { ?x <http://t/p0> ?y . }" in
  Alcotest.(check (option bool)) "ask true" (Some true) (Sparql_uo.Executor.ask yes);
  let no = Sparql_uo.Executor.run store "ASK { ?x <http://t/p9> ?y . }" in
  Alcotest.(check (option bool)) "ask false" (Some false) (Sparql_uo.Executor.ask no);
  (* ask on a SELECT is None. *)
  let sel = Sparql_uo.Executor.run store "SELECT * WHERE { ?x <http://t/p0> ?y . }" in
  Alcotest.(check (option bool)) "ask on select" None (Sparql_uo.Executor.ask sel)

let test_construct_form () =
  let store = tiny_store () in
  let report =
    Sparql_uo.Executor.run store
      "CONSTRUCT { ?y <http://t/inverse> ?x . } WHERE { ?x <http://t/p0> ?y . }"
  in
  let triples = Sparql_uo.Executor.construct store report in
  Alcotest.(check int) "one triple per distinct solution" 3 (List.length triples);
  Alcotest.(check bool) "inverted edge present" true
    (List.exists
       (fun t ->
         Rdf.Triple.equal t
           (Rdf.Triple.make (iri 1) (Rdf.Term.iri "http://t/inverse") (iri 0)))
       triples);
  (* Templates instantiated to invalid triples (literal subject) drop. *)
  let report =
    Sparql_uo.Executor.run store
      "CONSTRUCT { ?l <http://t/bad> ?x . } WHERE { ?x <http://t/p1> ?l . }"
  in
  Alcotest.(check int) "invalid triples dropped" 0
    (List.length (Sparql_uo.Executor.construct store report))

let test_describe_form () =
  let store = tiny_store () in
  let report = Sparql_uo.Executor.run store "DESCRIBE <http://t/e0>" in
  let triples = Sparql_uo.Executor.describe store report in
  (* e0 appears in two triples as subject. *)
  Alcotest.(check int) "e0 triples" 2 (List.length triples);
  let report =
    Sparql_uo.Executor.run store "DESCRIBE ?x WHERE { ?x <http://t/p2> ?n . }"
  in
  let triples = Sparql_uo.Executor.describe store report in
  (* ?x = e4: subject of p0 and p2 edges, object of none. *)
  Alcotest.(check int) "described var" 2 (List.length triples)

(* --- Property paths ------------------------------------------------------- *)

let path_store () =
  (* e0 -p0-> e1 -p1-> e2 ; e0 -p1-> e3 ; e4 -p0-> e1 *)
  Rdf_store.Triple_store.of_triples
    [
      Rdf.Triple.make (iri 0) (pred 0) (iri 1);
      Rdf.Triple.make (iri 1) (pred 1) (iri 2);
      Rdf.Triple.make (iri 0) (pred 1) (iri 3);
      Rdf.Triple.make (iri 4) (pred 0) (iri 1);
    ]

let test_path_sequence () =
  let store = path_store () in
  (* e0 -p0/p1-> ?y : e0->e1->e2. *)
  let rows =
    solutions_of store
      "SELECT ?y WHERE { <http://t/e0> <http://t/p0>/<http://t/p1> ?y . }"
  in
  match rows with
  | [ [ ("y", y) ] ] -> Alcotest.(check bool) "seq target" true (y = iri 2)
  | _ -> Alcotest.fail "expected exactly one sequence match"

let test_path_alternation () =
  let store = path_store () in
  let n =
    count store
      "SELECT * WHERE { <http://t/e0> (<http://t/p0>|<http://t/p1>) ?y . }"
  in
  (* e0 p0 e1 and e0 p1 e3. *)
  Alcotest.(check int) "alt matches" 2 n;
  (* The alternation is equivalent to an explicit UNION. *)
  let n_union =
    count store
      "SELECT * WHERE { { <http://t/e0> <http://t/p0> ?y . } UNION { \
       <http://t/e0> <http://t/p1> ?y . } }"
  in
  Alcotest.(check int) "equivalent to UNION" n_union n

let test_path_inverse () =
  let store = path_store () in
  let n = count store "SELECT * WHERE { ?x ^<http://t/p0> <http://t/e0> . }" in
  Alcotest.(check int) "inverse of constant subject" 1 n;
  (* a ^P b iff b P a: the sources reaching e2 via p0/p1 are found from
     e2's side. *)
  let rows =
    solutions_of store
      "SELECT ?x WHERE { <http://t/e2> ^(<http://t/p0>/<http://t/p1>) ?x . }"
  in
  (* Both e0 and e4 reach e2 through p0/p1. *)
  let xs = List.sort compare (List.map (fun sol -> List.assoc "x" sol) rows) in
  Alcotest.(check bool) "inverted seq sources" true (xs = [ iri 0; iri 4 ]);
  (* And the other direction has no solutions. *)
  Alcotest.(check int) "forward from e2 is empty" 0
    (count store
       "SELECT * WHERE { ?x ^(<http://t/p0>/<http://t/p1>) <http://t/e2> . }")

let test_path_desugared_patterns_coalesce () =
  (* The sequence's fresh variable links the two patterns, so they land
     in one BGP and the optimizer sees a plain join. *)
  let q =
    Sparql.Parser.parse
      "SELECT * WHERE { ?x <http://t/p0>/<http://t/p1> ?y . }"
  in
  match (Sparql_uo.Be_tree.of_query q).Sparql_uo.Be_tree.children with
  | [ Sparql_uo.Be_tree.Bgp [ _; _ ] ] -> ()
  | _ -> Alcotest.fail "expected one coalesced 2-pattern BGP"

let test_path_closures_rejected () =
  match
    Sparql.Parser.parse "SELECT * WHERE { ?x <http://t/p0>+ ?y . }"
  with
  | exception Sparql.Parser.Parse_error { message; _ } ->
      Alcotest.(check bool) "clear message" true
        (String.length message > 0
        && String.sub message 0 22 = "property path closures")
  | _ -> Alcotest.fail "expected closure rejection"

(* --- Aggregates ---------------------------------------------------------- *)

let agg_store () =
  (* Two groups: e0 -> {1, 2, 3}, e1 -> {10, 10}. *)
  Rdf_store.Triple_store.of_triples
    [
      Rdf.Triple.make (iri 0) (pred 0) (Rdf.Term.int_literal 1);
      Rdf.Triple.make (iri 0) (pred 0) (Rdf.Term.int_literal 2);
      Rdf.Triple.make (iri 0) (pred 0) (Rdf.Term.int_literal 3);
      Rdf.Triple.make (iri 1) (pred 0) (Rdf.Term.int_literal 10);
      Rdf.Triple.make (iri 1) (pred 1) (Rdf.Term.int_literal 10);
      Rdf.Triple.make (iri 2) (pred 2) (Rdf.Term.literal "not a number");
    ]

let test_parse_aggregates () =
  let q =
    Sparql.Parser.parse
      "SELECT ?g (COUNT(DISTINCT ?v) AS ?n) (SUM(?v) AS ?total) WHERE { ?g \
       <http://t/p0> ?v . } GROUP BY ?g HAVING (?n > 1) ORDER BY ?g LIMIT 5"
  in
  (match q.Sparql.Ast.form with
  | Sparql.Ast.Select (Sparql.Ast.Aggregated [ Sparql.Ast.Svar "g";
      Sparql.Ast.Aggregate { agg = Sparql.Ast.Count; distinct = true; target = Some "v"; alias = "n" };
      Sparql.Ast.Aggregate { agg = Sparql.Ast.Sum; distinct = false; target = Some "v"; alias = "total" } ]) -> ()
  | _ -> Alcotest.fail "unexpected select items");
  Alcotest.(check (list string)) "group by" [ "g" ] q.Sparql.Ast.group_by;
  Alcotest.(check bool) "having present" true (q.Sparql.Ast.having <> None)

let test_count_star () =
  let store = agg_store () in
  match
    solutions_of store
      "SELECT (COUNT(*) AS ?n) WHERE { ?s <http://t/p0> ?v . }"
  with
  | [ [ ("n", n) ] ] ->
      Alcotest.(check bool) "count 4" true (n = Rdf.Term.int_literal 4)
  | _ -> Alcotest.fail "expected a single COUNT row"

let test_count_empty_is_zero () =
  let store = agg_store () in
  match
    solutions_of store
      "SELECT (COUNT(*) AS ?n) WHERE { ?s <http://t/p9> ?v . }"
  with
  | [ [ ("n", n) ] ] ->
      Alcotest.(check bool) "count 0" true (n = Rdf.Term.int_literal 0)
  | _ -> Alcotest.fail "expected a single zero-count row"

let test_group_by_aggregates () =
  let store = agg_store () in
  let rows =
    solutions_of store
      "SELECT ?s (COUNT(?v) AS ?n) (SUM(?v) AS ?total) (MIN(?v) AS ?lo) \
       (MAX(?v) AS ?hi) (AVG(?v) AS ?mean) WHERE { ?s <http://t/p0> ?v . } \
       GROUP BY ?s ORDER BY ?s"
  in
  match rows with
  | [ row0; row1 ] ->
      let get row k = List.assoc k row in
      Alcotest.(check bool) "g0 count" true (get row0 "n" = Rdf.Term.int_literal 3);
      Alcotest.(check bool) "g0 sum" true (get row0 "total" = Rdf.Term.int_literal 6);
      Alcotest.(check bool) "g0 min" true (get row0 "lo" = Rdf.Term.int_literal 1);
      Alcotest.(check bool) "g0 max" true (get row0 "hi" = Rdf.Term.int_literal 3);
      Alcotest.(check bool) "g0 avg" true (get row0 "mean" = Rdf.Term.int_literal 2);
      Alcotest.(check bool) "g1 count" true (get row1 "n" = Rdf.Term.int_literal 1);
      Alcotest.(check bool) "g1 sum" true (get row1 "total" = Rdf.Term.int_literal 10)
  | _ -> Alcotest.fail (Printf.sprintf "expected 2 groups, got %d" (List.length rows))

let test_count_distinct () =
  let store = agg_store () in
  (* e1 has value 10 under two predicates: ?s ?p ?v gives duplicates. *)
  match
    solutions_of store
      "SELECT (COUNT(?v) AS ?n) (COUNT(DISTINCT ?v) AS ?d) WHERE { \
       <http://t/e1> ?p ?v . }"
  with
  | [ row ] ->
      Alcotest.(check bool) "plain count 2" true
        (List.assoc "n" row = Rdf.Term.int_literal 2);
      Alcotest.(check bool) "distinct count 1" true
        (List.assoc "d" row = Rdf.Term.int_literal 1)
  | _ -> Alcotest.fail "expected one row"

let test_sum_non_numeric_unbound () =
  let store = agg_store () in
  match
    solutions_of store
      "SELECT (SUM(?v) AS ?total) WHERE { ?s <http://t/p2> ?v . }"
  with
  | [ row ] ->
      Alcotest.(check bool) "sum over strings is unbound" true
        (not (List.mem_assoc "total" row))
  | _ -> Alcotest.fail "expected one row"

let test_having () =
  let store = agg_store () in
  let rows =
    solutions_of store
      "SELECT ?s (COUNT(?v) AS ?n) WHERE { ?s <http://t/p0> ?v . } GROUP BY \
       ?s HAVING (?n > 1)"
  in
  match rows with
  | [ row ] ->
      Alcotest.(check bool) "only the 3-value group survives" true
        (List.assoc "s" row = iri 0)
  | _ -> Alcotest.fail "expected exactly one group after HAVING"

(* MINUS/VALUES work identically across all four modes (complements the
   random-query property with a deterministic case). *)
let test_modes_agree_on_sparql11 () =
  let store = tiny_store () in
  let text =
    "SELECT * WHERE { ?x <http://t/p0> ?y . VALUES ?y { <http://t/e1> \
     <http://t/e3> } MINUS { ?x <http://t/p2> ?n . } OPTIONAL { ?x \
     <http://t/p1> ?l . } FILTER EXISTS { ?x <http://t/p0> ?z . } }"
  in
  let counts =
    List.map
      (fun mode ->
        Option.get
          (Sparql_uo.Executor.run ~mode store text).Sparql_uo.Executor
            .result_count)
      Sparql_uo.Executor.all_modes
  in
  match counts with
  | first :: rest ->
      List.iter (fun n -> Alcotest.(check int) "modes agree" first n) rest
  | [] -> ()

let test_print_parse_roundtrip_sparql11 () =
  (* Printing a parsed query and re-parsing preserves its structure, for
     the SPARQL 1.1 features too. *)
  List.iter
    (fun text ->
      let q1 = Sparql.Parser.parse text in
      let printed = Sparql.Ast.to_string q1 in
      match Sparql.Parser.parse printed with
      | q2 ->
          Alcotest.(check bool)
            ("roundtrip: " ^ text)
            true
            (q1.Sparql.Ast.where = q2.Sparql.Ast.where
            && q1.Sparql.Ast.form = q2.Sparql.Ast.form
            && q1.Sparql.Ast.group_by = q2.Sparql.Ast.group_by
            && q1.Sparql.Ast.order_by = q2.Sparql.Ast.order_by
            && q1.Sparql.Ast.limit = q2.Sparql.Ast.limit)
      | exception Sparql.Parser.Parse_error { message; _ } ->
          Alcotest.fail
            (Printf.sprintf "reprint failed for %s: %s\n%s" text message
               printed))
    [
      "SELECT * WHERE { ?x <http://t/p0> ?y . MINUS { ?x <http://t/p1> ?z . } }";
      "SELECT * WHERE { ?x <http://t/p0> ?y . VALUES (?x ?z) { (<http://t/e0> \
       UNDEF) } }";
      "SELECT * WHERE { ?x <http://t/p0> ?y . FILTER NOT EXISTS { ?x \
       <http://t/p1> ?l . } }";
      "SELECT * WHERE { ?x <http://t/p0> ?y . FILTER (strlen(str(?y)) > 3 + \
       1) }";
      "SELECT ?g (COUNT(?v) AS ?n) WHERE { ?g <http://t/p0> ?v . } GROUP BY \
       ?g ORDER BY DESC(?n) LIMIT 2";
      "ASK { ?x <http://t/p0> ?y . }";
      "CONSTRUCT { ?y <http://t/inv> ?x . } WHERE { ?x <http://t/p0> ?y . }";
    ]

(* --- SPARQL Update --------------------------------------------------------- *)

(* Apply an update through a session (one transaction per operation),
   then fold the delta into the base so the result is a plain store. *)
let update store text =
  let session = Sparql_uo.Session.create store in
  Sparql_uo.Update_exec.run_session session text;
  Sparql_uo.Session.checkpoint session;
  Sparql_uo.Session.store session

let test_update_insert_delete_data () =
  let store = Rdf_store.Triple_store.of_triples [] in
  let store =
    update store
      "INSERT DATA { <http://t/e0> <http://t/p0> <http://t/e1> . \
       <http://t/e0> <http://t/p0> <http://t/e2> . }"
  in
  Alcotest.(check int) "two inserted" 2 (Rdf_store.Triple_store.size store);
  (* Re-inserting an existing triple is a no-op (graphs are sets). *)
  let store =
    update store
      "INSERT DATA { <http://t/e0> <http://t/p0> <http://t/e1> . }"
  in
  Alcotest.(check int) "idempotent insert" 2 (Rdf_store.Triple_store.size store);
  let store =
    update store
      "DELETE DATA { <http://t/e0> <http://t/p0> <http://t/e2> . }"
  in
  Alcotest.(check int) "one deleted" 1 (Rdf_store.Triple_store.size store);
  (* Deleting an absent triple is a no-op. *)
  let store =
    update store
      "DELETE DATA { <http://t/e9> <http://t/p0> <http://t/e9> . }"
  in
  Alcotest.(check int) "absent delete no-op" 1 (Rdf_store.Triple_store.size store)

let test_update_delete_where () =
  let store = tiny_store () in
  let before = Rdf_store.Triple_store.size store in
  let store =
    update store "DELETE WHERE { ?x <http://t/p1> ?l . }"
  in
  Alcotest.(check int) "p1 triples removed" (before - 2)
    (Rdf_store.Triple_store.size store);
  Alcotest.(check int) "no p1 left" 0
    (count store "SELECT * WHERE { ?x <http://t/p1> ?l . }")

let test_update_modify () =
  let store = tiny_store () in
  (* Rewrite p0 edges into derived edges, removing the originals. *)
  let store =
    update store
      "DELETE { ?x <http://t/p0> ?y . } INSERT { ?y <http://t/rev> ?x . } \
       WHERE { ?x <http://t/p0> ?y . }"
  in
  Alcotest.(check int) "originals gone" 0
    (count store "SELECT * WHERE { ?x <http://t/p0> ?y . }");
  Alcotest.(check int) "derived present" 3
    (count store "SELECT * WHERE { ?a <http://t/rev> ?b . }");
  (* INSERT-only with a fresh constant object. *)
  let store =
    update store
      "INSERT { ?x <http://t/tag> <http://t/marked> . } WHERE { ?x \
       <http://t/p1> ?l . }"
  in
  Alcotest.(check int) "tags added" 2
    (count store "SELECT * WHERE { ?x <http://t/tag> <http://t/marked> . }")

let test_update_sequence_and_errors () =
  let store = Rdf_store.Triple_store.of_triples [] in
  let store =
    update store
      "INSERT DATA { <http://t/a> <http://t/p> <http://t/b> . } ; DELETE \
       DATA { <http://t/a> <http://t/p> <http://t/b> . } ; INSERT DATA { \
       <http://t/c> <http://t/p> <http://t/d> . }"
  in
  Alcotest.(check int) "sequence applied in order" 1
    (Rdf_store.Triple_store.size store);
  (match
     Sparql.Parser.parse_update
       "INSERT DATA { ?x <http://t/p> <http://t/b> . }"
   with
  | exception Sparql.Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected error: variable in DATA block");
  match Sparql.Parser.parse_update "DELETE { ?x <http://t/p> ?y . }" with
  | exception Sparql.Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected error: DELETE template without WHERE"

(* GROUP BY / HAVING stream through a hash-aggregate stage; the result
   must equal the reference grouping over the Definition-7 oracle's bag,
   on both engines, serial and parallel. *)
let prop_grouped_aggregates_match_reference =
  QCheck2.Test.make ~name:"GROUP BY/HAVING x {wco,hash} x domains = reference"
    ~count:100
    ~print:(fun (triples, query) ->
      Qgen.pp_dataset triples ^ "\n" ^ Qgen.pp_query query)
    QCheck2.Gen.(pair Qgen.gen_dataset Qgen.gen_grouped_query)
    (fun (triples, query) ->
      let store = Rdf_store.Triple_store.of_triples triples in
      let vartable = Qgen.aggregate_vartable query in
      let expected =
        Qgen.aggregate_reference store vartable query
          (Qgen.oracle_in store vartable query)
      in
      List.for_all
        (fun engine ->
          List.for_all
            (fun domains ->
              match
                (Sparql_uo.Executor.run_query ~engine ~domains store query)
                  .Sparql_uo.Executor.bag
              with
              | Some bag -> Sparql.Bag.equal_as_bags bag expected
              | None -> false)
            [ 1; 4 ])
        [ Engine.Bgp_eval.Wco; Engine.Bgp_eval.Hash_join ])

let () =
  Alcotest.run "sparql11"
    [
      ( "regex",
        [
          Alcotest.test_case "basics" `Quick test_regex_basics;
          Alcotest.test_case "syntax errors" `Quick test_regex_errors;
          QCheck_alcotest.to_alcotest prop_regex_literal_self_match;
        ] );
      ( "parser",
        [
          Alcotest.test_case "MINUS + VALUES" `Quick test_parse_minus_values;
          Alcotest.test_case "single-var VALUES" `Quick test_parse_single_var_values;
          Alcotest.test_case "EXISTS filter" `Quick test_parse_exists_filter;
          Alcotest.test_case "arithmetic + functions" `Quick test_parse_arith_and_functions;
          Alcotest.test_case "ORDER BY" `Quick test_parse_order_by;
          Alcotest.test_case "ASK/CONSTRUCT/DESCRIBE" `Quick test_parse_forms;
          Alcotest.test_case "aggregates" `Quick test_parse_aggregates;
          Alcotest.test_case "print/parse roundtrip" `Quick test_print_parse_roundtrip_sparql11;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "MINUS" `Quick test_minus_semantics;
          Alcotest.test_case "VALUES" `Quick test_values_semantics;
          Alcotest.test_case "EXISTS" `Quick test_exists_semantics;
          Alcotest.test_case "EXISTS stops at its first row" `Quick
            test_exists_stops_at_first_row;
          Alcotest.test_case "filter functions" `Quick test_filter_functions_semantics;
          Alcotest.test_case "ORDER BY" `Quick test_order_by_semantics;
          Alcotest.test_case "ASK" `Quick test_ask_form;
          Alcotest.test_case "CONSTRUCT" `Quick test_construct_form;
          Alcotest.test_case "DESCRIBE" `Quick test_describe_form;
          Alcotest.test_case "modes agree" `Quick test_modes_agree_on_sparql11;
        ] );
      ( "paths",
        [
          Alcotest.test_case "sequence" `Quick test_path_sequence;
          Alcotest.test_case "alternation" `Quick test_path_alternation;
          Alcotest.test_case "inverse" `Quick test_path_inverse;
          Alcotest.test_case "desugared patterns coalesce" `Quick test_path_desugared_patterns_coalesce;
          Alcotest.test_case "closures rejected" `Quick test_path_closures_rejected;
        ] );
      ( "update",
        [
          Alcotest.test_case "INSERT/DELETE DATA" `Quick test_update_insert_delete_data;
          Alcotest.test_case "DELETE WHERE" `Quick test_update_delete_where;
          Alcotest.test_case "DELETE/INSERT WHERE" `Quick test_update_modify;
          Alcotest.test_case "sequences and errors" `Quick test_update_sequence_and_errors;
        ] );
      ( "aggregates",
        [
          Alcotest.test_case "COUNT(*)" `Quick test_count_star;
          Alcotest.test_case "COUNT over empty" `Quick test_count_empty_is_zero;
          Alcotest.test_case "GROUP BY with all aggregates" `Quick test_group_by_aggregates;
          Alcotest.test_case "COUNT DISTINCT" `Quick test_count_distinct;
          Alcotest.test_case "SUM over non-numeric" `Quick test_sum_non_numeric_unbound;
          Alcotest.test_case "HAVING" `Quick test_having;
          QCheck_alcotest.to_alcotest prop_grouped_aggregates_match_reference;
        ] );
    ]
