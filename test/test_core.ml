(* Tests for the sparql_uo core library: BE-tree construction (Definition
   8), metrics, validity, merge/inject transformations (Definitions 9-10
   and Theorems 1-2 as executable properties), the cost model, Algorithm 1
   evaluation with candidate pruning, and the four executor modes. *)

module TP = Sparql.Triple_pattern
module BT = Sparql_uo.Be_tree

let v name = TP.Var name
let c iri = TP.Term (Rdf.Term.iri iri)

let parse_tree src = BT.of_query (Sparql.Parser.parse src)

(* --- BE-tree construction ------------------------------------------------- *)

let test_betree_coalesces_across_level () =
  (* t1 and t6 of the paper's Figure 2/5 example: triple patterns at the
     same level coalesce even when a UNION sits between them. *)
  let tree =
    parse_tree
      "SELECT * WHERE { ?x ub:p ?y . { ?a ub:q ?b . } UNION { ?a ub:r ?b . } ?y ub:s ?z . }"
  in
  match tree.BT.children with
  | [ BT.Bgp [ _; _ ]; BT.Union _ ] -> ()
  | _ -> Alcotest.fail ("unexpected tree: " ^ BT.to_string tree)

let test_betree_bgp_at_leftmost_position () =
  (* The coalesced BGP sits where its leftmost constituent was; disjoint
     patterns stay behind. *)
  let tree =
    parse_tree
      "SELECT * WHERE { ?a ub:p ?b . OPTIONAL { ?x ub:o ?y . } ?c ub:q ?d . }"
  in
  match tree.BT.children with
  | [ BT.Bgp [ _ ]; BT.Optional _; BT.Bgp [ _ ] ] -> ()
  | _ -> Alcotest.fail ("unexpected tree: " ^ BT.to_string tree)

let test_betree_single_branch_union_becomes_group () =
  let tree = parse_tree "SELECT * WHERE { { ?a ub:p ?b . } }" in
  match tree.BT.children with
  | [ BT.Group _ ] -> ()
  | _ -> Alcotest.fail ("unexpected tree: " ^ BT.to_string tree)

let test_betree_validity () =
  let tree =
    parse_tree
      "SELECT * WHERE { ?x ub:p ?y . { ?x ub:q ?z . } UNION { ?x ub:r ?z . } OPTIONAL { ?y ub:s ?w . } }"
  in
  (match BT.check tree with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  (* An artificial tree with coalescable sibling BGPs must be rejected. *)
  let bad =
    {
      BT.children =
        [ BT.Bgp [ TP.make (v "x") (c "p") (v "y") ];
          BT.Bgp [ TP.make (v "y") (c "q") (v "z") ] ];
      filters = [];
    }
  in
  (match BT.check bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected maximality violation");
  let bad_union = { BT.children = [ BT.Union [ tree ] ]; filters = [] } in
  match BT.check bad_union with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected UNION arity violation"

let test_betree_metrics () =
  let tree =
    parse_tree
      "SELECT * WHERE { ?x ub:p ?y . { ?a ub:q ?b . } UNION { ?a ub:r ?b . } OPTIONAL { ?y ub:s ?z . OPTIONAL { ?z ub:t ?w . } } }"
  in
  (* BGPs: outer [?x p ?y], union branches (2), optional [?y s ?z],
     nested optional [?z t ?w] = 5. *)
  Alcotest.(check int) "count_bgp" 5 (BT.count_bgp tree);
  (* Depth: outer (1) -> optional group (2) -> nested optional (3). *)
  Alcotest.(check int) "depth" 3 (BT.depth tree)

let test_betree_coalescing_barrier_safety () =
  (* Regression (found by the oracle property): coalescing must not pull a
     triple pattern leftward across an OPTIONAL that binds a shared
     variable the original left side did not — that changes the
     OPTIONAL's semantics. Here ?b is bound inside the OPTIONAL, so
     [?b p2 ?c] must NOT merge with [?c p2 e3] across it. *)
  let iri s = Rdf.Term.iri ("http://t/" ^ s) in
  let store =
    Rdf_store.Triple_store.of_triples
      [
        Rdf.Triple.make (iri "e0") (iri "p0") (iri "e0");
        Rdf.Triple.make (iri "e2") (iri "p2") (iri "e3");
        Rdf.Triple.make (iri "e0") (iri "p2") (iri "e2");
      ]
  in
  let query =
    Sparql.Parser.parse
      {|SELECT * WHERE {
         ?c <http://t/p2> <http://t/e3> .
         OPTIONAL { <http://t/e0> <http://t/p0> ?a . <http://t/e0> ?b ?a . }
         ?b <http://t/p2> ?c .
       }|}
  in
  let tree = BT.of_query query in
  (match tree.BT.children with
  | [ BT.Bgp [ _ ]; BT.Optional _; BT.Bgp [ _ ] ] -> ()
  | _ -> Alcotest.fail ("unsafe coalescing: " ^ BT.to_string tree));
  (* And the whole pipeline agrees with Definition 7. *)
  let expected, _ = Qgen.oracle store query in
  List.iter
    (fun mode ->
      let report = Sparql_uo.Executor.run_query ~mode store query in
      Alcotest.(check bool)
        (Sparql_uo.Executor.mode_name mode)
        true
        (Sparql.Bag.equal_as_bags (Option.get report.Sparql_uo.Executor.bag)
           expected))
    Sparql_uo.Executor.all_modes;
  (* When the shared variable IS certainly bound on the left, coalescing
     across the OPTIONAL stays enabled (the paper's t1/t6 example). *)
  let safe =
    Sparql.Parser.parse
      {|SELECT * WHERE {
         ?c <http://t/p2> <http://t/e3> .
         OPTIONAL { ?c <http://t/p0> ?a . }
         ?b <http://t/p2> ?c .
       }|}
  in
  match (BT.of_query safe).BT.children with
  | [ BT.Bgp [ _; _ ]; BT.Optional _ ] -> ()
  | other ->
      Alcotest.fail
        ("expected coalescing across safe OPTIONAL: "
        ^ BT.to_string { BT.children = other; filters = [] })

let test_betree_to_algebra_roundtrip_semantics () =
  (* The BE-tree of a query evaluates identically to the query's own
     algebra on a concrete dataset (checked through the oracle). *)
  let data =
    [
      Rdf.Triple.make (Qgen.iri 0) (Qgen.pred 0) (Qgen.iri 1);
      Rdf.Triple.make (Qgen.iri 1) (Qgen.pred 1) (Qgen.iri 2);
      Rdf.Triple.make (Qgen.iri 0) (Qgen.pred 1) (Qgen.iri 2);
    ]
  in
  let store = Rdf_store.Triple_store.of_triples data in
  let query =
    Sparql.Parser.parse
      "SELECT * WHERE { ?x <http://t/p0> ?y . OPTIONAL { ?y <http://t/p1> ?z . } }"
  in
  let expected, _ = Qgen.oracle store query in
  let tree = BT.of_query query in
  let vartable = Sparql.Vartable.of_list (Sparql.Ast.group_vars query.where) in
  let env = Engine.Bgp_eval.make store vartable Engine.Bgp_eval.Hash_join in
  let bag, _ = Sparql_uo.Binary_eval.eval env (BT.to_algebra tree) in
  Alcotest.(check bool) "same bag" true (Sparql.Bag.equal_as_bags bag expected)

(* --- Transformations: mechanics ------------------------------------------------ *)

let merge_fixture () =
  parse_tree
    "SELECT * WHERE { ?x ub:anchor ?y . { ?x ub:p ?z . } UNION { ?x ub:q ?z . } }"

let test_merge_mechanics () =
  let tree = merge_fixture () in
  Alcotest.(check bool) "can merge" true (Sparql_uo.Transform.can_merge tree ~p1:0 ~union:1);
  let merged = Sparql_uo.Transform.apply_merge tree ~p1:0 ~union:1 in
  (match merged.BT.children with
  | [ BT.Bgp []; BT.Union [ b1; b2 ] ] ->
      let branch_ok (g : BT.group) =
        match g.BT.children with
        | [ BT.Bgp [ _; _ ] ] -> true
        | _ -> false
      in
      Alcotest.(check bool) "both branches coalesced" true (branch_ok b1 && branch_ok b2)
  | _ -> Alcotest.fail ("unexpected merged tree: " ^ BT.to_string merged));
  (match BT.check merged with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("merged tree invalid: " ^ msg))

let test_merge_requires_coalescable () =
  (* The union branches share no subject/object variable with the BGP:
     merge must be refused (Definition 9, condition 2). *)
  let tree =
    parse_tree
      "SELECT * WHERE { ?x ub:anchor ?y . { ?a ub:p ?b . } UNION { ?a ub:q ?b . } }"
  in
  Alcotest.(check bool) "cannot merge" false
    (Sparql_uo.Transform.can_merge tree ~p1:0 ~union:1)

let test_merge_blocked_across_optional () =
  (* Moving a BGP across an OPTIONAL boundary is unsound; can_merge must
     refuse. *)
  let tree =
    parse_tree
      "SELECT * WHERE { ?x ub:anchor ?y . OPTIONAL { ?y ub:o ?w . } { ?x ub:p ?z . } UNION { ?x ub:q ?z . } }"
  in
  Alcotest.(check bool) "blocked by optional between" false
    (Sparql_uo.Transform.can_merge tree ~p1:0 ~union:2)

let test_inject_mechanics () =
  let tree =
    parse_tree "SELECT * WHERE { ?x ub:anchor ?y . OPTIONAL { ?x ub:p ?z . } }"
  in
  Alcotest.(check bool) "can inject" true (Sparql_uo.Transform.can_inject tree ~p1:0 ~opt:1);
  let injected = Sparql_uo.Transform.apply_inject tree ~p1:0 ~opt:1 in
  (match injected.BT.children with
  | [ BT.Bgp [ _ ]; BT.Optional inner ] -> (
      (* P1 keeps its occurrence AND is coalesced inside. *)
      match inner.BT.children with
      | [ BT.Bgp [ _; _ ] ] -> ()
      | _ -> Alcotest.fail ("unexpected optional child: " ^ BT.to_string inner))
  | _ -> Alcotest.fail ("unexpected injected tree: " ^ BT.to_string injected));
  match BT.check injected with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("injected tree invalid: " ^ msg)

let test_inject_only_rightward () =
  let tree =
    parse_tree "SELECT * WHERE { OPTIONAL { ?x ub:p ?z . } ?x ub:anchor ?y . }"
  in
  (* The OPTIONAL is at index 0, the BGP at index 1: no inject leftward. *)
  Alcotest.(check bool) "cannot inject leftward" false
    (Sparql_uo.Transform.can_inject tree ~p1:1 ~opt:0)

let test_inject_transitive_coalescing () =
  (* Injecting P1 can connect two previously separate BGP children of the
     optional group; maximality requires absorbing both. *)
  let tree =
    parse_tree
      "SELECT * WHERE { ?x ub:a ?y . OPTIONAL { ?x ub:p ?z . ?w ub:q ?u . ?y ub:r ?t . } }"
  in
  (* Optional children: [?x p ?z] and [?w q ?u] and [?y r ?t] — the first
     and third coalesce with P1 = [?x a ?y] once injected. *)
  let injected = Sparql_uo.Transform.apply_inject tree ~p1:0 ~opt:1 in
  match injected.BT.children with
  | [ _; BT.Optional inner ] -> (
      match inner.BT.children with
      | [ BT.Bgp combined; BT.Bgp [ _ ] ] ->
          Alcotest.(check int) "absorbed both connected BGPs" 3
            (List.length combined)
      | _ -> Alcotest.fail ("unexpected coalescing: " ^ BT.to_string inner))
  | _ -> Alcotest.fail "unexpected shape"

(* --- Theorems 1 and 2 as executable properties --------------------------------- *)

let eval_tree store (query : Sparql.Ast.query) tree =
  let vartable = Sparql.Vartable.of_list (Sparql.Ast.group_vars query.where) in
  let env = Engine.Bgp_eval.make store vartable Engine.Bgp_eval.Hash_join in
  let bag, _ =
    Sparql_uo.Evaluator.eval env ~threshold:Sparql_uo.Evaluator.No_pruning tree
  in
  bag

(* Find every applicable (p1, target) pair at the top level and check the
   transformed tree evaluates identically. *)
let check_all_top_level_transforms store query =
  let tree = BT.of_query query in
  let reference = eval_tree store query tree in
  let n = List.length tree.BT.children in
  let ok = ref true in
  for p1 = 0 to n - 1 do
    for target = 0 to n - 1 do
      if Sparql_uo.Transform.can_merge tree ~p1 ~union:target then begin
        let merged = Sparql_uo.Transform.apply_merge tree ~p1 ~union:target in
        if not (Sparql.Bag.equal_as_bags reference (eval_tree store query merged))
        then ok := false
      end;
      if Sparql_uo.Transform.can_inject tree ~p1 ~opt:target then begin
        let injected = Sparql_uo.Transform.apply_inject tree ~p1 ~opt:target in
        if
          not (Sparql.Bag.equal_as_bags reference (eval_tree store query injected))
        then ok := false
      end
    done
  done;
  !ok

let prop_transforms_preserve_semantics =
  QCheck2.Test.make ~name:"merge/inject preserve [[.]]_D (Theorems 1-2)"
    ~count:300
    ~print:(fun (triples, query) ->
      Qgen.pp_dataset triples ^ "\n" ^ Qgen.pp_query query)
    QCheck2.Gen.(pair Qgen.gen_dataset Qgen.gen_query)
    (fun (triples, query) ->
      let store = Rdf_store.Triple_store.of_triples triples in
      check_all_top_level_transforms store query)

(* The central end-to-end property: all four modes, on both engines, agree
   with the Definition 7 oracle on random SPARQL-UO queries. *)
let prop_modes_agree_with_oracle =
  QCheck2.Test.make ~name:"base/TT/CP/full x {wco,hash} = oracle" ~count:250
    ~print:(fun (triples, query) ->
      Qgen.pp_dataset triples ^ "\n" ^ Qgen.pp_query query)
    QCheck2.Gen.(pair Qgen.gen_dataset Qgen.gen_query)
    (fun (triples, query) ->
      let store = Rdf_store.Triple_store.of_triples triples in
      let expected, _ = Qgen.oracle store query in
      List.for_all
        (fun mode ->
          List.for_all
            (fun engine ->
              let report = Sparql_uo.Executor.run_query ~mode ~engine store query in
              match report.Sparql_uo.Executor.bag with
              | Some bag -> Sparql.Bag.equal_as_bags bag expected
              | None -> false)
            [ Engine.Bgp_eval.Wco; Engine.Bgp_eval.Hash_join ])
        Sparql_uo.Executor.all_modes)

(* Reference solution-modifier semantics over an already-evaluated bag:
   ORDER BY, projection, DISTINCT, LIMIT/OFFSET, each over the whole
   bag, applied to the oracle's result. *)
let apply_modifiers_reference store vartable (query : Sparql.Ast.query) bag =
  let bag =
    match query.Sparql.Ast.order_by with
    | [] -> bag
    | keys ->
        let keys =
          List.filter_map
            (fun (v, desc) ->
              Option.map (fun col -> (col, desc)) (Sparql.Vartable.find vartable v))
            keys
        in
        let compare_ids id1 id2 =
          Rdf.Term.compare
            (Rdf_store.Triple_store.decode_term store id1)
            (Rdf_store.Triple_store.decode_term store id2)
        in
        Sparql.Bag.sort bag ~keys ~compare_ids
  in
  let bag =
    match Sparql.Ast.select_query query with
    | Sparql.Ast.Star | Sparql.Ast.Aggregated _ -> bag
    | Sparql.Ast.Projection vs ->
        Sparql.Bag.project bag
          ~cols:(List.filter_map (Sparql.Vartable.find vartable) vs)
  in
  let bag = if query.Sparql.Ast.distinct then Sparql.Bag.dedup bag else bag in
  match (query.Sparql.Ast.limit, query.Sparql.Ast.offset) with
  | None, None -> bag
  | limit, offset ->
      let offset = Option.value offset ~default:0 in
      let keep =
        match limit with
        | Some n -> fun i -> i >= offset && i < offset + n
        | None -> fun i -> i >= offset
      in
      let sliced = Sparql.Bag.create ~width:(Sparql.Bag.width bag) in
      let i = ref 0 in
      Sparql.Bag.iter bag ~f:(fun row ->
          if keep !i then Sparql.Bag.push sliced row;
          incr i);
      sliced

(* The streaming sink pipeline agrees with the oracle + reference
   modifiers, on both engines, serial and parallel. *)
let prop_streaming_modifiers_match_oracle =
  QCheck2.Test.make
    ~name:"streaming modifiers x {wco,hash} x domains = oracle"
    ~count:120
    ~print:(fun (triples, query) ->
      Qgen.pp_dataset triples ^ "\n" ^ Qgen.pp_query query)
    QCheck2.Gen.(pair Qgen.gen_dataset Qgen.gen_modified_query)
    (fun (triples, query) ->
      let store = Rdf_store.Triple_store.of_triples triples in
      let oracle_bag, vartable = Qgen.oracle store query in
      let expected = apply_modifiers_reference store vartable query oracle_bag in
      List.for_all
        (fun engine ->
          List.for_all
            (fun domains ->
              let report =
                Sparql_uo.Executor.run_query ~engine ~domains store query
              in
              match report.Sparql_uo.Executor.bag with
              | Some bag -> Sparql.Bag.equal_as_bags bag expected
              | None -> false)
            [ 1; 4 ])
        [ Engine.Bgp_eval.Wco; Engine.Bgp_eval.Hash_join ])

(* LIMIT pushdown actually early-terminates: the limited run produces
   strictly fewer rows (the report's governed [pushed_rows]) than the
   unlimited one. *)
let test_streaming_limit_early_exit () =
  let store = Workload.Lubm.store Workload.Lubm.tiny in
  let base = "SELECT * WHERE { ?s ?p ?o . }" in
  let run text =
    let r = Sparql_uo.Executor.run store text in
    (Option.get r.Sparql_uo.Executor.result_count,
     r.Sparql_uo.Executor.pushed_rows)
  in
  let total, pushed_all = run base in
  let limited, pushed_limited = run (base ^ " LIMIT 5") in
  Alcotest.(check bool) "dataset bigger than the limit" true (total > 5);
  Alcotest.(check int) "limit applies" 5 limited;
  Alcotest.(check bool) "early exit produces fewer rows" true
    (pushed_limited < pushed_all)

(* Multi-level transformation output is still a valid BE-tree. *)
let prop_multi_level_valid =
  QCheck2.Test.make ~name:"Algorithm 4 output is a valid BE-tree" ~count:200
    QCheck2.Gen.(pair Qgen.gen_dataset Qgen.gen_query)
    (fun (triples, query) ->
      let store = Rdf_store.Triple_store.of_triples triples in
      let vartable = Sparql.Vartable.of_list (Sparql.Ast.group_vars query.where) in
      let env = Engine.Bgp_eval.make store vartable Engine.Bgp_eval.Wco in
      let transformed = Sparql_uo.Transform.multi_level env (BT.of_query query) in
      match BT.check transformed with Ok () -> true | Error _ -> false)

(* --- Cost model ------------------------------------------------------------------ *)

let test_cost_model_node_cards () =
  let store =
    Rdf_store.Triple_store.of_triples
      [
        Rdf.Triple.make (Qgen.iri 0) (Qgen.pred 0) (Qgen.iri 1);
        Rdf.Triple.make (Qgen.iri 2) (Qgen.pred 0) (Qgen.iri 1);
        Rdf.Triple.make (Qgen.iri 0) (Qgen.pred 1) (Qgen.iri 3);
      ]
  in
  let table = Sparql.Vartable.create () in
  let env = Engine.Bgp_eval.make store table Engine.Bgp_eval.Wco in
  let bgp0 = [ TP.make (v "x") (TP.Term (Qgen.pred 0)) (v "y") ] in
  let bgp1 = [ TP.make (v "x") (TP.Term (Qgen.pred 1)) (v "y") ] in
  Alcotest.(check (float 0.001)) "single BGP card exact" 2.
    (Sparql_uo.Cost_model.bgp_card env bgp0);
  Alcotest.(check (float 0.001)) "empty BGP card 1" 1.
    (Sparql_uo.Cost_model.bgp_card env []);
  Alcotest.(check (float 0.001)) "empty BGP cost 0" 0.
    (Sparql_uo.Cost_model.bgp_cost env []);
  let group b = { BT.children = [ BT.Bgp b ]; filters = [] } in
  (* Union card = sum of branches (f_UNION). *)
  Alcotest.(check (float 0.001)) "union = sum" 3.
    (Sparql_uo.Cost_model.node_card env (BT.Union [ group bgp0; group bgp1 ]));
  (* Group card = product of children (f_AND). *)
  Alcotest.(check (float 0.001)) "group = product" 2.
    (Sparql_uo.Cost_model.group_card env
       { BT.children = [ BT.Bgp bgp0; BT.Bgp bgp1 ]; filters = [] });
  (* Optional never shrinks below 1. *)
  let empty_bgp = [ TP.make (c "http://absent") (TP.Term (Qgen.pred 0)) (v "y") ] in
  Alcotest.(check (float 0.001)) "optional floor 1" 1.
    (Sparql_uo.Cost_model.node_card env (BT.Optional (group empty_bgp)))

let test_cost_model_merge_delta_sign () =
  (* A selective anchor merging into a UNION of unselective branches must
     have negative delta-cost; the paper's favorable case. *)
  let triples =
    List.concat_map
      (fun i ->
        [
          Rdf.Triple.make (Qgen.iri i) (Qgen.pred 0) (Qgen.iri ((i + 1) mod 6));
          Rdf.Triple.make (Qgen.iri i) (Qgen.pred 1) (Qgen.iri ((i + 2) mod 6));
        ])
      [ 0; 1; 2; 3; 4; 5 ]
  in
  let triples =
    Rdf.Triple.make (Qgen.iri 0) (Qgen.pred 2) (Qgen.iri 1) :: triples
  in
  let store = Rdf_store.Triple_store.of_triples triples in
  let query =
    Sparql.Parser.parse
      "SELECT * WHERE { ?x <http://t/p2> ?y . { ?x <http://t/p0> ?z . } UNION { ?x <http://t/p1> ?z . } }"
  in
  let tree = BT.of_query query in
  let vartable = Sparql.Vartable.of_list (Sparql.Ast.group_vars query.where) in
  let env = Engine.Bgp_eval.make store vartable Engine.Bgp_eval.Wco in
  let before = Sparql_uo.Cost_model.two_level_cost env tree in
  let merged = Sparql_uo.Transform.apply_merge tree ~p1:0 ~union:1 in
  let after = Sparql_uo.Cost_model.two_level_cost env merged in
  Alcotest.(check bool) "selective merge is favorable" true (after < before)

(* --- Evaluator: candidate pruning ------------------------------------------------- *)

let test_evaluator_pruning_reduces_work () =
  let store = Workload.Lubm.store Workload.Lubm.tiny in
  let entry = Workload.Queries.get Workload.Queries.Lubm "q1.3" in
  let query = Sparql.Parser.parse entry.Workload.Queries.text in
  let run threshold =
    let vartable = Sparql.Vartable.of_list (Sparql.Ast.group_vars query.where) in
    let env = Engine.Bgp_eval.make store vartable Engine.Bgp_eval.Wco in
    let bag, stats = Sparql_uo.Evaluator.eval env ~threshold (BT.of_query query) in
    (Sparql.Bag.length bag, stats)
  in
  let n_base, stats_base = run Sparql_uo.Evaluator.No_pruning in
  let n_cp, stats_cp =
    run (Sparql_uo.Evaluator.Fixed (Rdf_store.Triple_store.size store / 100))
  in
  Alcotest.(check int) "same result count" n_base n_cp;
  Alcotest.(check bool) "pruning reduced intermediate rows" true
    (stats_cp.Sparql_uo.Evaluator.total_rows
     < stats_base.Sparql_uo.Evaluator.total_rows);
  Alcotest.(check bool) "some BGPs pruned" true
    (stats_cp.Sparql_uo.Evaluator.pruned_bgps > 0)

let test_evaluator_join_space () =
  (* JS of a single BGP is its result size; joining two BGPs multiplies. *)
  let store =
    Rdf_store.Triple_store.of_triples
      [
        Rdf.Triple.make (Qgen.iri 0) (Qgen.pred 0) (Qgen.iri 1);
        Rdf.Triple.make (Qgen.iri 2) (Qgen.pred 0) (Qgen.iri 3);
        Rdf.Triple.make (Qgen.iri 1) (Qgen.pred 1) (Qgen.iri 2);
      ]
  in
  let query =
    Sparql.Parser.parse
      "SELECT * WHERE { ?x <http://t/p0> ?y . { ?y <http://t/p1> ?z . } UNION { ?z <http://t/p1> ?y . } }"
  in
  let vartable = Sparql.Vartable.of_list (Sparql.Ast.group_vars query.where) in
  let env = Engine.Bgp_eval.make store vartable Engine.Bgp_eval.Hash_join in
  let _, stats =
    Sparql_uo.Evaluator.eval env ~threshold:Sparql_uo.Evaluator.No_pruning
      (BT.of_query query)
  in
  (* JS = |p0| * (|p1| + |p1|) = 2 * 2 = 4. *)
  Alcotest.(check (float 0.001)) "join space" 4. stats.Sparql_uo.Evaluator.join_space

(* --- Executor ------------------------------------------------------------------------ *)

let test_executor_projection_distinct () =
  let store = Workload.Lubm.store Workload.Lubm.tiny in
  let all =
    Sparql_uo.Executor.run store
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> SELECT ?v2 WHERE { ?v1 ub:memberOf ?v2 . }"
  in
  let distinct =
    Sparql_uo.Executor.run store
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> SELECT DISTINCT ?v2 WHERE { ?v1 ub:memberOf ?v2 . }"
  in
  let n_all = Option.get all.Sparql_uo.Executor.result_count in
  let n_distinct = Option.get distinct.Sparql_uo.Executor.result_count in
  Alcotest.(check bool) "distinct strictly smaller" true (n_distinct < n_all);
  (* tiny has exactly 15+ departments in university 0; distinct members-of
     equals the department count. *)
  Alcotest.(check bool) "distinct plausibly = #departments" true
    (n_distinct >= 15 && n_distinct <= 26)

let test_executor_limit_offset () =
  let store = Workload.Lubm.store Workload.Lubm.tiny in
  let base =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> SELECT * \
     WHERE { ?v1 ub:memberOf ?v2 . }"
  in
  let total =
    Option.get
      (Sparql_uo.Executor.run store base).Sparql_uo.Executor.result_count
  in
  let limited =
    Option.get
      (Sparql_uo.Executor.run store (base ^ " LIMIT 7")).Sparql_uo.Executor
        .result_count
  in
  Alcotest.(check int) "limit applies" 7 limited;
  let tail =
    Option.get
      (Sparql_uo.Executor.run store
         (base ^ Printf.sprintf " OFFSET %d" (total - 3)))
        .Sparql_uo.Executor.result_count
  in
  Alcotest.(check int) "offset leaves the tail" 3 tail;
  let window =
    Option.get
      (Sparql_uo.Executor.run store (base ^ " LIMIT 5 OFFSET 2"))
        .Sparql_uo.Executor.result_count
  in
  Alcotest.(check int) "limit+offset window" 5 window

let test_executor_row_budget () =
  let store = Workload.Lubm.store Workload.Lubm.tiny in
  let entry = Workload.Queries.get Workload.Queries.Lubm "q1.2" in
  let report =
    Sparql_uo.Executor.run ~mode:Sparql_uo.Executor.Base ~row_budget:100 store
      entry.Workload.Queries.text
  in
  Alcotest.(check bool) "budget exhausted -> None" true
    (report.Sparql_uo.Executor.result_count = None);
  (* And the budget must not leak into later runs. *)
  let unlimited =
    Sparql_uo.Executor.run ~mode:Sparql_uo.Executor.Base store
      entry.Workload.Queries.text
  in
  Alcotest.(check bool) "subsequent run unaffected" true
    (unlimited.Sparql_uo.Executor.result_count <> None)

let test_executor_solutions_decode () =
  let data =
    [ Rdf.Triple.make (Qgen.iri 0) (Qgen.pred 0) (Rdf.Term.literal "hello") ]
  in
  let store = Rdf_store.Triple_store.of_triples data in
  let report =
    Sparql_uo.Executor.run store "SELECT * WHERE { ?s <http://t/p0> ?o . }"
  in
  match Sparql_uo.Executor.solutions store report with
  | [ solution ] ->
      Alcotest.(check bool) "subject decoded" true
        (List.assoc "s" solution = Qgen.iri 0);
      Alcotest.(check bool) "object decoded" true
        (List.assoc "o" solution = Rdf.Term.literal "hello")
  | other ->
      Alcotest.fail (Printf.sprintf "expected 1 solution, got %d" (List.length other))

let test_executor_unknown_constants () =
  (* Constants absent from the dictionary make BGPs empty without error,
     in every mode; OPTIONALs on such BGPs still retain the left side. *)
  let store = Workload.Lubm.store Workload.Lubm.tiny in
  let text =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> SELECT * \
     WHERE { ?x ub:worksFor <http://nowhere.example.org/nope> . }"
  in
  List.iter
    (fun mode ->
      let report = Sparql_uo.Executor.run ~mode store text in
      Alcotest.(check (option int))
        (Sparql_uo.Executor.mode_name mode)
        (Some 0) report.Sparql_uo.Executor.result_count)
    Sparql_uo.Executor.all_modes;
  let optional_text =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> SELECT * \
     WHERE { ?x ub:headOf ?d . OPTIONAL { ?x ub:worksFor \
     <http://nowhere.example.org/nope> . } }"
  in
  let with_opt = Sparql_uo.Executor.run store optional_text in
  let without =
    Sparql_uo.Executor.run store
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> SELECT * \
       WHERE { ?x ub:headOf ?d . }"
  in
  Alcotest.(check (option int)) "left side retained"
    without.Sparql_uo.Executor.result_count
    with_opt.Sparql_uo.Executor.result_count

let test_executor_modes_on_benchmarks () =
  (* All four modes agree on every benchmark query over the tiny datasets
     (the deterministic counterpart of the random-query property). *)
  List.iter
    (fun (ds, store) ->
      let stats = Rdf_store.Stats.compute store in
      List.iter
        (fun (entry : Workload.Queries.entry) ->
          let counts =
            List.map
              (fun mode ->
                let r =
                  Sparql_uo.Executor.run ~mode ~stats store entry.Workload.Queries.text
                in
                Option.get r.Sparql_uo.Executor.result_count)
              Sparql_uo.Executor.all_modes
          in
          match counts with
          | base :: rest ->
              List.iteri
                (fun i n ->
                  Alcotest.(check int)
                    (Printf.sprintf "%s %s mode %d" (Workload.Queries.dataset_name ds)
                       entry.id (i + 1))
                    base n)
                rest
          | [] -> ())
        (Workload.Queries.all ds))
    [
      (Workload.Queries.Lubm, Workload.Lubm.store Workload.Lubm.tiny);
      (Workload.Queries.Dbpedia, Workload.Dbpedia_gen.store Workload.Dbpedia_gen.tiny);
    ]

let () =
  Alcotest.run "sparql_uo"
    [
      ( "be_tree",
        [
          Alcotest.test_case "coalesce across level" `Quick test_betree_coalesces_across_level;
          Alcotest.test_case "leftmost placement" `Quick test_betree_bgp_at_leftmost_position;
          Alcotest.test_case "1-branch union = group" `Quick test_betree_single_branch_union_becomes_group;
          Alcotest.test_case "validity" `Quick test_betree_validity;
          Alcotest.test_case "metrics" `Quick test_betree_metrics;
          Alcotest.test_case "coalescing barrier safety" `Quick test_betree_coalescing_barrier_safety;
          Alcotest.test_case "to_algebra semantics" `Quick test_betree_to_algebra_roundtrip_semantics;
        ] );
      ( "transform",
        [
          Alcotest.test_case "merge mechanics" `Quick test_merge_mechanics;
          Alcotest.test_case "merge needs coalescable branch" `Quick test_merge_requires_coalescable;
          Alcotest.test_case "merge blocked across OPTIONAL" `Quick test_merge_blocked_across_optional;
          Alcotest.test_case "inject mechanics" `Quick test_inject_mechanics;
          Alcotest.test_case "inject only rightward" `Quick test_inject_only_rightward;
          Alcotest.test_case "inject transitive coalescing" `Quick test_inject_transitive_coalescing;
          QCheck_alcotest.to_alcotest prop_transforms_preserve_semantics;
          QCheck_alcotest.to_alcotest prop_multi_level_valid;
        ] );
      ( "cost_model",
        [
          Alcotest.test_case "node cardinalities" `Quick test_cost_model_node_cards;
          Alcotest.test_case "favorable merge has negative delta" `Quick test_cost_model_merge_delta_sign;
        ] );
      ( "evaluator",
        [
          Alcotest.test_case "pruning reduces work" `Quick test_evaluator_pruning_reduces_work;
          Alcotest.test_case "join space metric" `Quick test_evaluator_join_space;
        ] );
      ( "executor",
        [
          Alcotest.test_case "projection + distinct" `Quick test_executor_projection_distinct;
          Alcotest.test_case "limit/offset" `Quick test_executor_limit_offset;
          Alcotest.test_case "row budget" `Quick test_executor_row_budget;
          Alcotest.test_case "solutions decode" `Quick test_executor_solutions_decode;
          Alcotest.test_case "unknown constants" `Quick test_executor_unknown_constants;
          Alcotest.test_case "all modes agree on benchmarks" `Slow test_executor_modes_on_benchmarks;
          Alcotest.test_case "LIMIT pushdown early exit" `Quick test_streaming_limit_early_exit;
          QCheck_alcotest.to_alcotest prop_modes_agree_with_oracle;
          QCheck_alcotest.to_alcotest prop_streaming_modifiers_match_oracle;
        ] );
    ]
