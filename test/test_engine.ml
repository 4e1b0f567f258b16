(* Tests for the engine library: coalescing (Definitions 3-5), compiled
   patterns, the sampling planner, candidates, and the equivalence of the
   two BGP engines against each other and a naive oracle. *)

module TP = Sparql.Triple_pattern

let v name = TP.Var name
let c iri = TP.Term (Rdf.Term.iri iri)
let iri = Qgen.iri
let pred = Qgen.pred

let tiny_store () =
  Rdf_store.Triple_store.of_triples
    [
      Rdf.Triple.make (iri 0) (pred 0) (iri 1);
      Rdf.Triple.make (iri 0) (pred 0) (iri 2);
      Rdf.Triple.make (iri 1) (pred 1) (iri 2);
      Rdf.Triple.make (iri 2) (pred 1) (iri 3);
      Rdf.Triple.make (iri 3) (pred 0) (iri 0);
    ]

(* --- Bgp coalescing --------------------------------------------------------- *)

let test_coalesce_components () =
  let tp1 = TP.make (v "x") (c "p") (v "y") in
  let tp2 = TP.make (v "y") (c "q") (v "z") in
  let tp3 = TP.make (v "a") (c "p") (v "b") in
  let components = Engine.Bgp.coalesce_maximal [ tp1; tp3; tp2 ] in
  (* tp1 and tp2 connect through ?y; tp3 is separate. Components are
     ordered by leftmost constituent: [tp1;tp2] first (tp1 at index 0). *)
  Alcotest.(check int) "two components" 2 (List.length components);
  Alcotest.(check bool) "first component = {tp1, tp2}" true
    (List.nth components 0 = [ tp1; tp2 ]);
  Alcotest.(check bool) "second component = {tp3}" true
    (List.nth components 1 = [ tp3 ])

let test_coalesce_transitive () =
  (* a-b, b-c, c-d chain: one component despite no direct a-d edge. *)
  let tps =
    [
      TP.make (v "a") (c "p") (v "b");
      TP.make (v "b") (c "p") (v "c");
      TP.make (v "c") (c "p") (v "d");
    ]
  in
  Alcotest.(check int) "single chain component" 1
    (List.length (Engine.Bgp.coalesce_maximal tps))

let test_coalesce_predicate_var_ignored () =
  (* Sharing a variable only at the predicate position must NOT coalesce
     (Definition 3 looks at subject/object positions only). *)
  let tps = [ TP.make (v "a") (v "p") (v "b"); TP.make (v "c") (v "p") (v "d") ] in
  Alcotest.(check int) "not coalesced" 2
    (List.length (Engine.Bgp.coalesce_maximal tps))

let test_bgp_coalescable () =
  let b1 = [ TP.make (v "x") (c "p") (v "y") ] in
  let b2 = [ TP.make (v "z") (c "p") (v "w"); TP.make (v "y") (c "p") (v "q") ] in
  Alcotest.(check bool) "coalescable via second pattern" true
    (Engine.Bgp.coalescable b1 b2);
  Alcotest.(check bool) "empty coalescable with nothing" false
    (Engine.Bgp.coalescable [] b2)

(* --- Compiled ----------------------------------------------------------------- *)

let test_compile_missing_term () =
  let snap = Rdf_store.Snapshot.of_store (tiny_store ()) in
  let table = Sparql.Vartable.create () in
  let compiled =
    Engine.Compiled.compile snap table (TP.make (c "http://absent") (c "p") (v "x"))
  in
  Alcotest.(check bool) "missing detected" true (Engine.Compiled.has_missing compiled);
  Alcotest.(check int) "missing count 0" 0
    (Engine.Compiled.exact_count snap compiled)

let test_compile_counts () =
  let snap = Rdf_store.Snapshot.of_store (tiny_store ()) in
  let table = Sparql.Vartable.create () in
  let compiled =
    Engine.Compiled.compile snap table
      (TP.make (v "s") (TP.Term (pred 0)) (v "o"))
  in
  Alcotest.(check int) "p0 count" 3 (Engine.Compiled.exact_count snap compiled);
  let row = Sparql.Binding.create ~width:(Sparql.Vartable.size table) in
  let scol = Option.get (Sparql.Vartable.find table "s") in
  row.(scol) <- Option.get (Rdf_store.Snapshot.encode_term snap (iri 0));
  Alcotest.(check int) "count with s bound" 2
    (Engine.Compiled.count_with snap compiled row)

let test_var_columns_distinct () =
  let table = Sparql.Vartable.create () in
  let snap = Rdf_store.Snapshot.of_store (tiny_store ()) in
  let compiled =
    Engine.Compiled.compile snap table (TP.make (v "x") (TP.Term (pred 0)) (v "x"))
  in
  Alcotest.(check int) "repeated var counted once" 1
    (List.length (Engine.Compiled.var_columns compiled))

(* --- Planner ------------------------------------------------------------------- *)

let test_planner_empty () =
  let store = tiny_store () in
  let snap = Rdf_store.Snapshot.of_store store in
  let stats = Rdf_store.Stats.compute store in
  let table = Sparql.Vartable.create () in
  let plan = Engine.Planner.plan snap stats table [] in
  Alcotest.(check int) "no steps" 0 (List.length plan.Engine.Planner.steps);
  Alcotest.(check (float 0.0001)) "unit card" 1. plan.Engine.Planner.result_card

let test_planner_selective_first () =
  let store = tiny_store () in
  let snap = Rdf_store.Snapshot.of_store store in
  let stats = Rdf_store.Stats.compute store in
  let table = Sparql.Vartable.create () in
  (* p1 has 2 matches, p0 has 3: the plan should start with p1. *)
  let patterns =
    Engine.Compiled.compile_list snap table
      [
        TP.make (v "x") (TP.Term (pred 0)) (v "y");
        TP.make (v "y") (TP.Term (pred 1)) (v "z");
      ]
  in
  let plan = Engine.Planner.plan snap stats table patterns in
  match plan.Engine.Planner.steps with
  | first :: _ ->
      Alcotest.(check int) "most selective first" 2 first.Engine.Planner.pattern_count
  | [] -> Alcotest.fail "expected steps"

let test_planner_single_pattern_exact () =
  let store = tiny_store () in
  let snap = Rdf_store.Snapshot.of_store store in
  let stats = Rdf_store.Stats.compute store in
  let table = Sparql.Vartable.create () in
  let patterns =
    Engine.Compiled.compile_list snap table
      [ TP.make (v "x") (TP.Term (pred 0)) (v "y") ]
  in
  let plan = Engine.Planner.plan snap stats table patterns in
  Alcotest.(check (float 0.0001)) "single pattern cardinality exact" 3.
    plan.Engine.Planner.result_card

(* The scanning sampler the planner used before positional sampling:
   enumerate every match and keep the consistent ones at multiples of
   the stride. It stays here as the reference the positional sampler
   must reproduce exactly. *)
let oracle_bind_match pattern row ~s ~p ~o =
  let fresh = Array.copy row in
  let consistent = ref true in
  let bind node value =
    match node with
    | Engine.Compiled.Cvar col ->
        if fresh.(col) = Sparql.Binding.unbound then fresh.(col) <- value
        else if fresh.(col) <> value then consistent := false
    | Engine.Compiled.Cterm _ | Engine.Compiled.Missing -> ()
  in
  bind pattern.Engine.Compiled.cs s;
  bind pattern.Engine.Compiled.cp p;
  bind pattern.Engine.Compiled.co o;
  if !consistent then Some fresh else None

let scan_sample_matches store pattern row ~limit =
  let total = Engine.Compiled.count_with store pattern row in
  if total = 0 then (0, [])
  else begin
    let stride = max 1 (total / limit) in
    let collected = ref [] in
    let i = ref 0 in
    Engine.Compiled.iter_matches store pattern row ~f:(fun ~s ~p ~o ->
        (if !i mod stride = 0 && List.length !collected < limit then
           match oracle_bind_match pattern row ~s ~p ~o with
           | Some fresh -> collected := fresh :: !collected
           | None -> ());
        incr i);
    (total, List.rev !collected)
  end

(* Random encoded stores with a random delta — deletions drawn from the
   base, additions outside it, both landing inside and outside any
   given pattern's range — plus a pattern (repeated variables
   included), a partly bound row and a sample limit. *)
let gen_sampler_case =
  QCheck2.Gen.(
    let row = triple (int_range 0 9) (int_range 0 3) (int_range 0 9) in
    let node =
      frequency
        [
          (2, map (fun c -> Engine.Compiled.Cvar c) (int_range 0 2));
          (1, map (fun i -> Engine.Compiled.Cterm i) (int_range 0 9));
        ]
    in
    let* base = list_size (int_range 0 200) row in
    let* del_picks = list_size (int_range 0 80) nat in
    let* adds = list_size (int_range 0 60) row in
    let* with_delta = bool in
    let* cs, cp, co = triple node node node in
    let* bound = list_repeat 3 (option (int_range 0 9)) in
    let* limit = int_range 1 40 in
    return (base, del_picks, adds, with_delta, (cs, cp, co), bound, limit))

let snapshot_of_case (base, del_picks, adds, with_delta) =
  let base = Array.of_list (List.sort_uniq compare base) in
  let store =
    Rdf_store.Triple_store.of_encoded_rows (Rdf_store.Dictionary.create ()) base
  in
  if not with_delta then Rdf_store.Snapshot.of_store store
  else begin
    let n = Array.length base in
    let dels =
      if n = 0 then []
      else List.sort_uniq compare (List.map (fun i -> base.(i mod n)) del_picks)
    in
    let adds =
      List.sort_uniq compare
        (List.filter (fun r -> not (Array.mem r base)) adds)
    in
    let delta =
      Rdf_store.Delta.make ~gen:1 ~adds:(Array.of_list adds)
        ~dels:(Array.of_list dels)
    in
    Rdf_store.Snapshot.make ~base:store ~delta ~version:0
  end

let prop_positional_sampler_matches_scan =
  QCheck2.Test.make ~name:"positional sampler = scanning sampler" ~count:500
    gen_sampler_case
    (fun (base, del_picks, adds, with_delta, (cs, cp, co), bound, limit) ->
      let snap = snapshot_of_case (base, del_picks, adds, with_delta) in
      let pattern =
        {
          Engine.Compiled.cs;
          cp;
          co;
          source = TP.make (v "s") (v "p") (v "o");
        }
      in
      let row = Sparql.Binding.create ~width:3 in
      List.iteri (fun col b -> Option.iter (fun id -> row.(col) <- id) b) bound;
      Engine.Planner.sample_matches snap pattern row ~limit
      = scan_sample_matches snap pattern row ~limit)

let rec bgps_of_group group =
  List.concat_map
    (function
      | Sparql.Ast.Triples tps -> [ tps ]
      | Sparql.Ast.Group g | Sparql.Ast.Optional g | Sparql.Ast.Minus g ->
          bgps_of_group g
      | Sparql.Ast.Union gs -> List.concat_map bgps_of_group gs
      | Sparql.Ast.Filter _ | Sparql.Ast.Values _ -> [])
    group

(* Plans drawn through the positional sampler equal the plans the
   scanning sampler yields, structurally — estimates and costs
   included — on every BGP of random queries, with and without a
   delta. *)
let prop_plans_unchanged =
  QCheck2.Test.make ~name:"plans unchanged under positional sampling"
    ~count:150
    QCheck2.Gen.(
      quad Qgen.gen_dataset Qgen.gen_query Qgen.gen_dataset Qgen.gen_dataset)
    (fun (triples, query, inserts, deletes) ->
      let store = Rdf_store.Triple_store.of_triples triples in
      let mvcc = Rdf_store.Mvcc.create store in
      let written = Rdf_store.Mvcc.apply mvcc ~inserts ~deletes in
      let table =
        Sparql.Vartable.of_list (Sparql.Ast.group_vars query.Sparql.Ast.where)
      in
      List.for_all
        (fun snap ->
          let stats = Rdf_store.Stats.of_snapshot snap in
          List.for_all
            (fun tps ->
              let compiled = Engine.Compiled.compile_list snap table tps in
              Engine.Planner.plan snap stats table compiled
              = Engine.Planner.plan_with ~sample_matches:scan_sample_matches
                  snap stats table compiled)
            (bgps_of_group query.Sparql.Ast.where))
        [ Rdf_store.Snapshot.of_store store; written ])

(* Planning one pattern samples it by position, so the work does not
   grow with the pattern's range: predicate ranges 10x apart allocate
   within 2x. *)
let test_planner_cost_independent_of_range () =
  let triples =
    List.init 300 (fun i -> Rdf.Triple.make (iri i) (pred 0) (iri (i + 1)))
    @ List.init 3000 (fun i -> Rdf.Triple.make (iri i) (pred 1) (iri (i + 2)))
  in
  let store = Rdf_store.Triple_store.of_triples triples in
  let snap = Rdf_store.Snapshot.of_store store in
  let stats = Rdf_store.Stats.compute store in
  let plan_words p =
    let table = Sparql.Vartable.create () in
    let patterns =
      Engine.Compiled.compile_list snap table
        [ TP.make (v "x") (TP.Term (pred p)) (v "y") ]
    in
    ignore (Engine.Planner.plan snap stats table patterns);
    Qgen.words_allocated (fun () ->
        ignore (Engine.Planner.plan snap stats table patterns))
  in
  let small = plan_words 0 and large = plan_words 1 in
  if large > 2. *. small then
    Alcotest.failf "planning allocated %.0f words over 3000 rows vs %.0f over 300"
      large small

(* --- Candidates ------------------------------------------------------------------ *)

let test_candidates () =
  let values = Hashtbl.create 4 in
  Hashtbl.replace values 1 ();
  Hashtbl.replace values 2 ();
  (* A small universe takes the dense-bitset representation; a sorted array
     wraps explicitly. Both must behave identically. *)
  let dense = Engine.Candidates.of_hashtbl ~universe:16 values in
  let sorted = Engine.Candidates.of_sorted_array [| 1; 2 |] in
  List.iter
    (fun (name, set) ->
      let cands = Engine.Candidates.set Engine.Candidates.empty ~col:0 set in
      let gov = Sparql.Governor.unlimited () in
      Alcotest.(check int) (name ^ " cardinal") 2 (Engine.Candidates.cardinal set);
      Alcotest.(check bool) (name ^ " allows member") true
        (Engine.Candidates.allows gov cands ~col:0 1);
      Alcotest.(check bool) (name ^ " rejects non-member") false
        (Engine.Candidates.allows gov cands ~col:0 9);
      Alcotest.(check bool) (name ^ " rejects negative") false
        (Engine.Candidates.mem set (-3));
      Alcotest.(check bool) (name ^ " unconstrained column allows") true
        (Engine.Candidates.allows gov cands ~col:5 9);
      (* Only the two tests against a candidate set count, on the ticket
         they were given. *)
      let c = Engine.Candidates.of_counts (Sparql.Governor.counts gov) in
      Alcotest.(check (pair int int)) (name ^ " checks/rejects") (2, 1)
        (c.checks, c.rejects);
      let seen = ref [] in
      Engine.Candidates.iter_values set ~f:(fun v -> seen := v :: !seen);
      Alcotest.(check (list int)) (name ^ " iterates ascending") [ 1; 2 ]
        (List.rev !seen))
    [ ("dense", dense); ("sorted", sorted) ];
  Alcotest.(check bool) "empty is empty" true
    (Engine.Candidates.is_empty Engine.Candidates.empty)

(* [of_hashtbl] against its source table over a 1000-id universe: a set is
   a bitset exactly when universe <= 64 x cardinality (16 ids here), and
   either way membership and iteration match the source at every id. *)
let test_candidates_construction () =
  let universe = 1000 in
  let rng = Random.State.make [| 31 |] in
  List.iter
    (fun card ->
      let values = Hashtbl.create card in
      while Hashtbl.length values < card do
        Hashtbl.replace values (Random.State.int rng universe) ()
      done;
      let set = Engine.Candidates.of_hashtbl ~universe values in
      let name = Printf.sprintf "card %d" card in
      Alcotest.(check bool) (name ^ " is a bitset") (card >= 16)
        (Engine.Candidates.as_sorted set = None);
      Alcotest.(check int) (name ^ " cardinal") card
        (Engine.Candidates.cardinal set);
      for id = 0 to universe - 1 do
        if Engine.Candidates.mem set id <> Hashtbl.mem values id then
          Alcotest.failf "%s: membership of %d differs from the source" name id
      done;
      let seen = ref [] in
      Engine.Candidates.iter_values set ~f:(fun v -> seen := v :: !seen);
      Alcotest.(check (list int)) (name ^ " iterates the source ascending")
        (List.sort Int.compare (Hashtbl.fold (fun v () acc -> v :: acc) values []))
        (List.rev !seen))
    [ 1; 7; 15; 16; 300 ]

(* --- Engine equivalence (property) ------------------------------------------------ *)

(* A BGP's whole result, collected from the streaming engine. *)
let eval_bgp env patterns ~candidates =
  let bag = Sparql.Bag.create ~width:(Engine.Bgp_eval.width env) in
  Engine.Bgp_eval.eval_into env patterns ~candidates ~sink:(Sparql.Bag.sink bag);
  bag

(* Naive BGP evaluation: scan every pattern, nested-loop join. *)
let naive_bgp store table width patterns =
  let snap = Rdf_store.Snapshot.of_store store in
  List.fold_left
    (fun acc tp ->
      let compiled = Engine.Compiled.compile snap table tp in
      let scanned =
        Engine.Hash_join.scan_pattern snap ~width compiled
          ~candidates:Engine.Candidates.empty
      in
      Sparql.Bag.join acc scanned)
    (Sparql.Bag.unit ~width) patterns

let prop_engines_agree =
  QCheck2.Test.make ~name:"wco = hash join = naive on random BGPs" ~count:150
    QCheck2.Gen.(
      pair Qgen.gen_dataset (list_size (int_range 1 4) Qgen.gen_triple_pattern))
    (fun (triples, patterns) ->
      let store = Rdf_store.Triple_store.of_triples triples in
      let vars =
        List.concat_map Sparql.Triple_pattern.vars patterns
        |> List.sort_uniq compare
      in
      let table = Sparql.Vartable.of_list vars in
      let wco_env = Engine.Bgp_eval.make store table Engine.Bgp_eval.Wco in
      let hash_env = Engine.Bgp_eval.make store table Engine.Bgp_eval.Hash_join in
      let width = Sparql.Vartable.size table in
      let reference = naive_bgp store table width patterns in
      let wco = eval_bgp wco_env patterns ~candidates:Engine.Candidates.empty in
      let hash = eval_bgp hash_env patterns ~candidates:Engine.Candidates.empty in
      Sparql.Bag.equal_as_bags wco reference
      && Sparql.Bag.equal_as_bags hash reference)

(* Candidate sets must behave exactly like a post-filter, in either
   representation: qgen's universes are under 64 ids, so [of_hashtbl]
   always builds a bitset there, and the sorted-array copy (plus the
   empty set) is what drives the sorted-operand, seeded and steered
   paths. *)
let prop_candidates_are_filters =
  QCheck2.Test.make ~name:"candidate pruning = post-filter" ~count:150
    QCheck2.Gen.(
      triple Qgen.gen_dataset
        (list_size (int_range 1 3) Qgen.gen_triple_pattern)
        (list_size (int_range 1 4) (int_range 0 5)))
    (fun (triples, patterns, allowed) ->
      let store = Rdf_store.Triple_store.of_triples triples in
      let vars =
        List.concat_map Sparql.Triple_pattern.vars patterns
        |> List.sort_uniq compare
      in
      match vars with
      | [] -> true
      | first :: _ ->
          let table = Sparql.Vartable.of_list vars in
          let col = Option.get (Sparql.Vartable.find table first) in
          let values = Hashtbl.create 8 in
          List.iter
            (fun i ->
              match Rdf_store.Triple_store.encode_term store (iri i) with
              | Some id -> Hashtbl.replace values id ()
              | None -> ())
            allowed;
          let universe =
            Rdf_store.Dictionary.size (Rdf_store.Triple_store.dictionary store)
          in
          let sorted =
            Array.of_list
              (List.sort_uniq Int.compare
                 (Hashtbl.fold (fun id () acc -> id :: acc) values []))
          in
          (* Each set paired with its oracle, taken from the source
             values rather than from the set under test. *)
          let sets =
            [
              (Engine.Candidates.of_hashtbl ~universe values, Hashtbl.mem values);
              (Engine.Candidates.of_sorted_array sorted, Hashtbl.mem values);
              (Engine.Candidates.of_sorted_array [||], fun _ -> false);
            ]
          in
          List.for_all
            (fun (set, admits) ->
              let cands = Engine.Candidates.set Engine.Candidates.empty ~col set in
              List.for_all
                (fun engine ->
                  let env = Engine.Bgp_eval.make store table engine in
                  let pruned = eval_bgp env patterns ~candidates:cands in
                  let full =
                    eval_bgp env patterns ~candidates:Engine.Candidates.empty
                  in
                  let filtered =
                    Sparql.Bag.filter full ~f:(fun row ->
                        (not (Sparql.Binding.is_bound row col))
                        || admits row.(col))
                  in
                  Sparql.Bag.equal_as_bags pruned filtered)
                [ Engine.Bgp_eval.Wco; Engine.Bgp_eval.Hash_join ])
            sets)

(* --- Candidate steering ------------------------------------------------------------ *)

let ub_iri name =
  Rdf.Term.iri ("http://swat.cse.lehigh.edu/onto/univ-bench.owl#" ^ name)

let ub name = TP.Term (ub_iri name)
let lubm_tiny = lazy (Workload.Lubm.store Workload.Lubm.tiny)

(* The compiled predicate position of a [ub:] pattern. *)
let ub_cp name =
  Engine.Compiled.Cterm
    (Option.get
       (Rdf_store.Triple_store.encode_term (Lazy.force lubm_tiny) (ub_iri name)))

(* LUBM q1.6's inner OPTIONAL BGP, planned on [Lubm.tiny]. *)
let q16_inner_plan patterns =
  let store = Lazy.force lubm_tiny in
  let snap = Rdf_store.Snapshot.of_store store in
  let stats = Rdf_store.Stats.cached store in
  let table = Sparql.Vartable.of_list [ "v4"; "v5"; "v6" ] in
  let compiled = Engine.Compiled.compile_list snap table patterns in
  let col name = Option.get (Sparql.Vartable.find table name) in
  (stats, col, Engine.Planner.plan snap stats table compiled)

let email = TP.make (v "v5") (ub "emailAddress") (v "v6")
let takes = TP.make (v "v5") (ub "takesCourse") (v "v4")

let first_predicate (plan : Engine.Planner.plan) =
  match plan.Engine.Planner.steps with
  | first :: _ -> first.Engine.Planner.pattern.Engine.Compiled.cp
  | [] -> Alcotest.fail "expected steps"

let test_steer_seeds_smallest_set () =
  let stats, col, plan = q16_inner_plan [ email; takes ] in
  Alcotest.(check bool) "unsteered plan starts from emailAddress" true
    (first_predicate plan = ub_cp "emailAddress");
  let card c = if c = col "v4" then Some 3 else None in
  let steered = Engine.Planner.steer stats plan ~card in
  Alcotest.(check bool) "takesCourse moves first" true
    (first_predicate steered = ub_cp "takesCourse");
  Alcotest.(check bool) "estimates are the memoized plan's" true
    (steered.Engine.Planner.result_card = plan.Engine.Planner.result_card
    && steered.Engine.Planner.cost_wco = plan.Engine.Planner.cost_wco
    && steered.Engine.Planner.cost_hash = plan.Engine.Planner.cost_hash)

let test_steer_keeps_untouched_plan () =
  let stats, col, plan = q16_inner_plan [ email; takes ] in
  Alcotest.(check bool) "no set on the BGP's columns" true
    (Engine.Planner.steer stats plan ~card:(fun _ -> None) == plan);
  (* A set on the already-first pattern lowers a count, not the order. *)
  let card c = if c = col "v6" then Some 1 else None in
  Alcotest.(check bool) "order does not move" true
    (Engine.Planner.steer stats plan ~card == plan)

let test_steer_single_pattern () =
  let stats, col, plan = q16_inner_plan [ takes ] in
  let card c = if c = col "v4" then Some 3 else None in
  Alcotest.(check bool) "single pattern unchanged" true
    (Engine.Planner.steer stats plan ~card == plan)

(* --- Multiway intersection -------------------------------------------------------- *)

let test_intersect_kernel () =
  let check name expected ops =
    Alcotest.(check (array int)) name expected (Engine.Intersect.arrays ops)
  in
  check "single operand" [| 1; 5; 9 |] [ [| 1; 5; 9 |] ];
  check "singleton sets" [| 7 |] [ [| 7 |]; [| 3; 7 |] ];
  check "empty operand" [||] [ [| 1; 2; 3 |]; [||] ];
  check "disjoint" [||] [ [| 1; 3; 5 |]; [| 2; 4; 6 |] ];
  check "three-way" [| 4; 8 |]
    [ [| 1; 4; 8; 9 |]; [| 2; 4; 7; 8 |]; [| 0; 4; 8; 20 |] ];
  (* A > 4x size ratio must take the galloping pass, small ratios the
     linear merge — and both must produce the same sets. *)
  let evens = Array.init 500 (fun i -> 2 * i) in
  (* Each run counts its passes on its own ticket. *)
  let counted f =
    let gov = Sparql.Governor.unlimited () in
    Sparql.Governor.with_ticket gov f;
    Engine.Intersect.of_counts (Sparql.Governor.counts gov)
  in
  let c =
    counted (fun () ->
        check "gallop result" [| 10; 400 |] [ [| 10; 151; 400 |]; evens ])
  in
  Alcotest.(check bool) "ratio > 4x gallops" true (c.gallop_passes = 1);
  let c =
    counted (fun () ->
        check "merge result" [| 0; 2 |]
          [ [| 0; 1; 2; 3 |]; [| 0; 2; 4; 6; 8 |] ])
  in
  Alcotest.(check bool) "ratio <= 4x merges" true
    (c.merge_passes = 1 && c.gallop_passes = 0)

let strictly_increasing a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) >= a.(i) then ok := false
  done;
  !ok

(* The kernel against naive membership: any number of operands (>2
   included), any size skew (so both the gallop and merge paths run), and
   the sorted duplicate-free output invariant. *)
let prop_intersect_matches_naive =
  QCheck2.Test.make ~name:"multiway intersection = naive set intersection"
    ~count:300
    QCheck2.Gen.(
      list_size (int_range 1 5)
        (list_size (int_range 0 40) (int_range 0 60)))
    (fun lists ->
      let ops =
        List.map (fun l -> Array.of_list (List.sort_uniq compare l)) lists
      in
      let result = Engine.Intersect.arrays ops in
      let mem a x = Array.exists (fun y -> y = x) a in
      let expected =
        match ops with
        | [] -> [||]
        | first :: rest ->
            Array.of_list
              (List.filter
                 (fun x -> List.for_all (fun a -> mem a x) rest)
                 (Array.to_list first))
      in
      result = expected && strictly_increasing result)

let test_planner_groups_star () =
  let store = tiny_store () in
  let snap = Rdf_store.Snapshot.of_store store in
  let stats = Rdf_store.Stats.compute store in
  let table = Sparql.Vartable.create () in
  (* All three patterns have ?x as their only variable: one Extend step
     intersecting three column views, no intermediate bag at all. *)
  let star =
    Engine.Compiled.compile_list snap table
      [
        TP.make (v "x") (TP.Term (pred 0)) (TP.Term (iri 1));
        TP.make (v "x") (TP.Term (pred 0)) (TP.Term (iri 2));
        TP.make (TP.Term (iri 3)) (TP.Term (pred 0)) (v "x");
      ]
  in
  let plan = Engine.Planner.plan snap stats table star in
  (match plan.Engine.Planner.vsteps with
  | [ Engine.Planner.Extend { steps; _ } ] ->
      Alcotest.(check int) "star absorbs all three" 3 (List.length steps)
  | _ -> Alcotest.fail "expected a single Extend vstep");
  (* Triangle: the first pattern binds two fresh columns (a Scan), each
     closing pattern then single-extends and the last one is absorbed. *)
  let table = Sparql.Vartable.create () in
  let triangle =
    Engine.Compiled.compile_list snap table
      [
        TP.make (v "x") (TP.Term (pred 0)) (v "y");
        TP.make (v "y") (TP.Term (pred 1)) (v "z");
        TP.make (v "x") (TP.Term (pred 1)) (v "z");
      ]
  in
  let plan = Engine.Planner.plan snap stats table triangle in
  match plan.Engine.Planner.vsteps with
  | [ Engine.Planner.Scan _; Engine.Planner.Extend { steps; _ } ] ->
      Alcotest.(check int) "closing pattern absorbed" 2 (List.length steps)
  | _ -> Alcotest.fail "expected Scan then Extend"

(* The multiway-intersection WCO path agrees with the Definition-7
   oracle on random queries across every mode x engine x domains
   configuration. *)
let prop_multiway_matches_oracle =
  QCheck2.Test.make ~name:"multiway = oracle across configs" ~count:25
    QCheck2.Gen.(pair Qgen.gen_dataset Qgen.gen_query)
    (fun (triples, query) ->
      let store = Rdf_store.Triple_store.of_triples triples in
      let expected, _ = Qgen.oracle store query in
      List.for_all
        (fun (mode, engine, domains) ->
          let report =
            Sparql_uo.Executor.run_query ~mode ~engine ~domains store query
          in
          match report.Sparql_uo.Executor.bag with
          | Some bag -> Sparql.Bag.equal_as_bags bag expected
          | None -> false)
        Qgen.exec_configs)

(* --- Parallel execution ----------------------------------------------------------- *)

(* The multicore layer must be invisible in the results: every parallel
   configuration — engine x domains {2,4} — agrees with the serial run
   as bags, on every mode and random query. *)
let prop_parallel_matches_serial =
  QCheck2.Test.make
    ~name:"parallel = serial across mode x engine x domains"
    ~count:40
    QCheck2.Gen.(pair Qgen.gen_dataset Qgen.gen_query)
    (fun (triples, query) ->
      let store = Rdf_store.Triple_store.of_triples triples in
      List.for_all
        (fun mode ->
          List.for_all
            (fun engine ->
              let serial =
                Sparql_uo.Executor.run_query ~mode ~engine ~domains:1 store
                  query
              in
              match serial.Sparql_uo.Executor.bag with
              | None -> false
              | Some expected ->
                  List.for_all
                    (fun domains ->
                      let par =
                        Sparql_uo.Executor.run_query ~mode ~engine ~domains
                          store query
                      in
                      match par.Sparql_uo.Executor.bag with
                      | Some bag -> Sparql.Bag.equal_as_bags bag expected
                      | None -> false)
                    [ 2; 4 ])
            [ Engine.Bgp_eval.Wco; Engine.Bgp_eval.Hash_join ])
        Sparql_uo.Executor.all_modes)

(* A chain dataset big enough that both the UNION fan-out and the
   per-branch join steps cross every parallel threshold. *)
let chain_triples n =
  List.concat
    (List.init n (fun i ->
         [
           Rdf.Triple.make (iri i) (pred 0) (iri (n + i));
           Rdf.Triple.make (iri (n + i)) (pred 1) (iri (2 * n + i));
         ]))

(* Nested parallelism must enqueue into the running scheduler, not
   deadlock and not degrade to serial: the UNION fans its branches out
   one-per-morsel, and the joins inside each branch (probe sides of 1000
   rows) seed their own morsels into the same scheduler while every
   domain is already busy with a branch. Completing at all is the
   deadlock check; the serial run is the correctness oracle. *)
let test_nested_union_of_joins () =
  let store = Rdf_store.Triple_store.of_triples (chain_triples 1000) in
  let text =
    "SELECT * WHERE {\n\
    \  { ?x <http://t/p0> ?y . ?y <http://t/p1> ?z }\n\
     UNION { ?a <http://t/p1> ?b . ?a <http://t/p1> ?c }\n\
     UNION { ?s <http://t/p0> ?t . ?s <http://t/p0> ?u } }"
  in
  let serial = Sparql_uo.Executor.run ~mode:Sparql_uo.Executor.Base ~domains:1 store text in
  let par =
    Sparql_uo.Executor.run ~mode:Sparql_uo.Executor.Base ~domains:4 store text
  in
  match (serial.Sparql_uo.Executor.bag, par.Sparql_uo.Executor.bag) with
  | Some b1, Some b2 ->
      Alcotest.(check bool) "nested UNION of joins equal" true
        (Sparql.Bag.equal_as_bags b1 b2)
  | _ -> Alcotest.fail "unexpected resource limit"

(* The early-termination guarantee: with a streamed LIMIT at 4 domains, a
   satisfied limit raises [Stop] in one shard and the other domains park
   at their next morsel boundary — the run must scan far less than the
   same query without LIMIT, which extends all 1000 input rows. *)
let test_limit_early_termination () =
  let store = Rdf_store.Triple_store.of_triples (chain_triples 1000) in
  let text = "SELECT * WHERE { ?x <http://t/p0> ?y . ?y <http://t/p1> ?z }" in
  let run text =
    Sparql_uo.Executor.run ~mode:Sparql_uo.Executor.Base
      ~engine:Engine.Bgp_eval.Wco ~domains:4 store text
  in
  let streamed = run (text ^ " LIMIT 10") in
  let full = run text in
  Alcotest.(check (option int)) "streamed limit honored" (Some 10)
    streamed.Sparql_uo.Executor.result_count;
  Alcotest.(check (option int)) "unlimited run returns every row" (Some 1000)
    full.Sparql_uo.Executor.result_count;
  (* The unlimited run pays both full steps (~2000 produced rows); the
     streamed run pays the first step plus at most the in-flight morsels
     of the 4 domains when the Stop lands. *)
  Alcotest.(check bool)
    (Printf.sprintf "full scan produced %d rows"
       full.Sparql_uo.Executor.pushed_rows)
    true
    (full.Sparql_uo.Executor.pushed_rows >= 2000);
  Alcotest.(check bool)
    (Printf.sprintf "early termination crossed domains (%d rows)"
       streamed.Sparql_uo.Executor.pushed_rows)
    true
    (streamed.Sparql_uo.Executor.pushed_rows <= 1600)

(* --- Parallel-safe sinks (fork/drain merge) ---------------------------------------- *)

let row2 ~width a b =
  let r = Sparql.Binding.create ~width in
  r.(0) <- a;
  if b >= 0 then r.(1) <- b;
  r

(* Sharded DISTINCT: each shard deduplicates locally, the drain replay
   deduplicates globally — the merged result must equal the serial
   DISTINCT over the same rows, whatever the shard assignment. *)
let test_sharded_distinct_merge () =
  let width = 2 in
  let rows = List.init 60 (fun i -> row2 ~width (i mod 7) (i mod 3)) in
  let serial_out = Sparql.Bag.create ~width in
  let serial = Sparql.Sink.distinct (Sparql.Bag.sink serial_out) in
  List.iter (Sparql.Sink.emit serial) rows;
  Sparql.Sink.close serial;
  let par_out = Sparql.Bag.create ~width in
  let par = Sparql.Sink.distinct (Sparql.Bag.sink par_out) in
  let fork = Option.get (Sparql.Sink.fork par) in
  let shards = Array.init 3 (fun _ -> fork.Sparql.Sink.new_shard ()) in
  List.iteri (fun i row -> Sparql.Sink.emit shards.(i mod 3) row) rows;
  fork.Sparql.Sink.drain ();
  Sparql.Sink.close par;
  Alcotest.(check int) "distinct cardinality" 21 (Sparql.Bag.length par_out);
  Alcotest.(check bool) "sharded DISTINCT = serial DISTINCT" true
    (Sparql.Bag.equal_as_bags serial_out par_out)

(* Per-domain top-k heaps merged at drain: the merged k rows must equal
   the serial top-k as a bag even when the cut falls inside a tie group
   (tied rows are identical here, as the streaming planner guarantees:
   LIMIT is only pushed below a sort that covers every projected
   variable), and must flush in sorted order. *)
let test_topk_merge () =
  let width = 2 in
  let compare_rows r1 r2 = compare r1.(0) r2.(0) in
  (* 40 rows over 8 key values; rows sharing a key are identical. *)
  let rows = List.init 40 (fun i -> row2 ~width (i mod 8) 9) in
  let run_serial k =
    let out = Sparql.Bag.create ~width in
    let s = Sparql.Sink.top_k ~compare:compare_rows ~k (Sparql.Bag.sink out) in
    List.iter (Sparql.Sink.emit s) rows;
    Sparql.Sink.close s;
    out
  in
  let run_sharded k shard_count =
    let out = Sparql.Bag.create ~width in
    let s = Sparql.Sink.top_k ~compare:compare_rows ~k (Sparql.Bag.sink out) in
    let fork = Option.get (Sparql.Sink.fork s) in
    let shards = Array.init shard_count (fun _ -> fork.Sparql.Sink.new_shard ()) in
    List.iteri
      (fun i row -> Sparql.Sink.emit shards.(i mod shard_count) row)
      rows;
    fork.Sparql.Sink.drain ();
    Sparql.Sink.close s;
    out
  in
  List.iter
    (fun k ->
      (* k=7 cuts inside the key=1 tie group; k=5 cuts exactly at a key
         boundary; k=40 retains everything. *)
      let serial = run_serial k and sharded = run_sharded k 3 in
      Alcotest.(check int)
        (Printf.sprintf "k=%d cardinality" k)
        (Sparql.Bag.length serial) (Sparql.Bag.length sharded);
      Alcotest.(check bool)
        (Printf.sprintf "k=%d sharded top-k = serial top-k" k)
        true
        (Sparql.Bag.equal_as_bags serial sharded);
      let sorted = ref true in
      let prev = ref min_int in
      Sparql.Bag.iter sharded ~f:(fun row ->
          if row.(0) < !prev then sorted := false;
          prev := row.(0));
      Alcotest.(check bool)
        (Printf.sprintf "k=%d flushed in sorted order" k)
        true !sorted)
    [ 5; 7; 40 ]

(* Deterministic cross-check on the real workload: every mixed
   OPTIONAL/UNION LUBM query, both engines. *)
let test_parallel_lubm () =
  let store =
    Rdf_store.Triple_store.of_triples
      (Workload.Lubm.generate Workload.Lubm.tiny)
  in
  let stats = Rdf_store.Stats.compute store in
  List.iter
    (fun engine ->
      List.iter
        (fun entry ->
          let serial =
            Sparql_uo.Executor.run ~mode:Sparql_uo.Executor.Full ~engine
              ~domains:1 ~stats store entry.Workload.Queries.text
          in
          let par =
            Sparql_uo.Executor.run ~mode:Sparql_uo.Executor.Full ~engine
              ~domains:4 ~stats store entry.Workload.Queries.text
          in
          match
            (serial.Sparql_uo.Executor.bag, par.Sparql_uo.Executor.bag)
          with
          | Some b1, Some b2 ->
              Alcotest.(check bool)
                (Printf.sprintf "%s (%s) equal as bags"
                   entry.Workload.Queries.id
                   (Engine.Bgp_eval.engine_name engine))
                true
                (Sparql.Bag.equal_as_bags b1 b2)
          | _ ->
              Alcotest.fail
                (entry.Workload.Queries.id ^ ": unexpected resource limit"))
        (Workload.Queries.group1 Workload.Queries.Lubm))
    [ Engine.Bgp_eval.Wco; Engine.Bgp_eval.Hash_join ]

(* The row budget lives on the run's governor ticket, propagated into
   the pool: a tiny budget must still kill the run promptly when the
   pushes happen on worker domains (here, two UNION branches evaluated
   concurrently). *)
let test_parallel_budget_fires () =
  let store =
    Rdf_store.Triple_store.of_triples
      (Workload.Lubm.generate Workload.Lubm.tiny)
  in
  let text = "SELECT * WHERE { { ?s ?p ?o } UNION { ?a ?b ?c } }" in
  let report =
    Sparql_uo.Executor.run ~mode:Sparql_uo.Executor.Base ~domains:4
      ~row_budget:10 store text
  in
  Alcotest.(check bool)
    "out of budget" true
    (report.Sparql_uo.Executor.failure
    = Some Sparql_uo.Executor.Out_of_budget);
  Alcotest.(check bool) "no bag" true (report.Sparql_uo.Executor.bag = None)

(* --- Adaptive execution ------------------------------------------------ *)

(* The whole adaptive layer (sideways bitset prefilters into OPTIONAL and
   MINUS subtrees, feedback-primed estimates, per-node engine selection,
   skip-on-empty short-circuits) is an execution strategy, never a
   semantics change: adaptive = static as bags under every mode, engine
   and domain count. *)
let prop_adaptive_matches_static =
  QCheck2.Test.make ~name:"adaptive = static execution on random UO queries"
    ~count:40
    ~print:(fun (triples, query) ->
      Qgen.pp_dataset triples ^ "\n" ^ Qgen.pp_query query)
    QCheck2.Gen.(pair Qgen.gen_dataset Qgen.gen_query)
    (fun (triples, query) ->
      let store = Rdf_store.Triple_store.of_triples triples in
      let stats = Rdf_store.Stats.compute store in
      List.for_all
        (fun mode ->
          List.for_all
            (fun engine ->
              List.for_all
                (fun domains ->
                  let run ~adaptive =
                    Sparql_uo.Executor.run_query ~mode ~engine ~domains
                      ~adaptive ~stats store query
                  in
                  let static = run ~adaptive:false in
                  let adaptive = run ~adaptive:true in
                  match
                    ( static.Sparql_uo.Executor.bag,
                      adaptive.Sparql_uo.Executor.bag )
                  with
                  | Some b1, Some b2 -> Sparql.Bag.equal_as_bags b1 b2
                  | _ -> false)
                [ 1; 4 ])
            [ Engine.Bgp_eval.Wco; Engine.Bgp_eval.Hash_join ])
        Sparql_uo.Executor.all_modes)

(* Sideways prefilters may only carry left-universal columns: ?z here is
   bound by the first OPTIONAL for some left rows only, so the second
   OPTIONAL's scan of ?z must NOT be restricted to the values the first
   one produced — the row whose ?z is still unbound is compatible with
   every inner ?z. A prefilter leak would leave that row unextended. *)
let test_prefilter_unbound_left_vars () =
  let store =
    Rdf_store.Triple_store.of_triples
      [
        Rdf.Triple.make (iri 0) (pred 0) (iri 1);
        (* no p1 edge from e2: its ?z stays unbound after OPTIONAL 1 *)
        Rdf.Triple.make (iri 2) (pred 0) (iri 3);
        Rdf.Triple.make (iri 0) (pred 1) (iri 4);
        Rdf.Triple.make (iri 5) (pred 2) (iri 6);
      ]
  in
  let text =
    "SELECT * WHERE { ?x <http://t/p0> ?y . OPTIONAL { ?x <http://t/p1> ?z } \
     OPTIONAL { ?v <http://t/p2> ?z } }"
  in
  List.iter
    (fun engine ->
      let run ~adaptive =
        Sparql_uo.Executor.run ~mode:Sparql_uo.Executor.Full ~engine ~adaptive
          store text
      in
      let static = run ~adaptive:false in
      let adaptive = run ~adaptive:true in
      (match
         (static.Sparql_uo.Executor.bag, adaptive.Sparql_uo.Executor.bag)
       with
      | Some b1, Some b2 ->
          Alcotest.(check bool) "adaptive = static" true
            (Sparql.Bag.equal_as_bags b1 b2)
      | _ -> Alcotest.fail "unexpected resource limit");
      Alcotest.(check (option int)) "two rows" (Some 2)
        adaptive.Sparql_uo.Executor.result_count;
      (* The unbound-?z row must have been extended by the second
         OPTIONAL: some solution binds ?v. *)
      let extended =
        List.exists
          (fun solution -> List.mem_assoc "v" solution)
          (Sparql_uo.Executor.solutions store adaptive)
      in
      Alcotest.(check bool) "unbound-?z row extended through OPTIONAL 2" true
        extended)
    [ Engine.Bgp_eval.Wco; Engine.Bgp_eval.Hash_join ]

(* Feedback straight from the adaptive loop: prime the cache with a
   wildly wrong observation, and the next run must (a) flag the node as
   re-planned (estimate off by >= 10x) and (b) overwrite the belief with
   the actual cardinality. *)
let test_replan_trigger () =
  let store =
    Rdf_store.Triple_store.of_triples
      (List.init 40 (fun i ->
           Rdf.Triple.make (iri i) (pred 0) (iri (i + 1))))
  in
  let patterns = [ TP.make (v "s") (v "p") (v "o") ] in
  let feedback = Sparql_uo.Feedback.create () in
  Sparql_uo.Feedback.record feedback patterns ~rows:1;
  let report =
    Sparql_uo.Executor.run ~mode:Sparql_uo.Executor.Full ~feedback store
      "SELECT * WHERE { ?s ?p ?o }"
  in
  Alcotest.(check (option int)) "all rows" (Some 40)
    report.Sparql_uo.Executor.result_count;
  let stats = Option.get report.Sparql_uo.Executor.eval_stats in
  Alcotest.(check bool) "re-plan triggered" true
    (stats.Sparql_uo.Evaluator.replans >= 1);
  Alcotest.(check bool) "a node is marked re-planned" true
    (List.exists
       (fun (n : Sparql_uo.Evaluator.node_report) ->
         n.Sparql_uo.Evaluator.replanned
         && n.Sparql_uo.Evaluator.actual_rows = 40)
       stats.Sparql_uo.Evaluator.nodes);
  Alcotest.(check (option int)) "belief corrected to the actual count"
    (Some 40)
    (Option.map int_of_float (Sparql_uo.Feedback.find feedback patterns));
  (* A re-run with the corrected belief no longer deviates. *)
  let report2 =
    Sparql_uo.Executor.run ~mode:Sparql_uo.Executor.Full ~feedback store
      "SELECT * WHERE { ?s ?p ?o }"
  in
  let stats2 = Option.get report2.Sparql_uo.Executor.eval_stats in
  Alcotest.(check int) "no re-plan after correction" 0
    stats2.Sparql_uo.Evaluator.replans

(* Static (non-adaptive) runs must not pay for node reporting. *)
let test_static_reports_no_nodes () =
  let store = tiny_store () in
  let report =
    Sparql_uo.Executor.run ~mode:Sparql_uo.Executor.Full ~adaptive:false store
      "SELECT * WHERE { ?s ?p ?o }"
  in
  Alcotest.(check bool) "report not marked adaptive" false
    report.Sparql_uo.Executor.adaptive;
  let stats = Option.get report.Sparql_uo.Executor.eval_stats in
  Alcotest.(check int) "no node reports" 0
    (List.length stats.Sparql_uo.Evaluator.nodes)

(* A UNION that is its group's last child streams into the sink like any
   other last child, and still reports its node. *)
let test_last_child_union_node () =
  let report =
    Sparql_uo.Executor.run ~mode:Sparql_uo.Executor.Full
      (Workload.Lubm.store Workload.Lubm.tiny)
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> SELECT * \
       WHERE { { ?x ub:takesCourse ?c } UNION { ?x ub:teacherOf ?c } }"
  in
  let stats = Option.get report.Sparql_uo.Executor.eval_stats in
  let union =
    List.find_opt
      (fun (n : Sparql_uo.Evaluator.node_report) ->
        n.Sparql_uo.Evaluator.label = "union{2}")
      stats.Sparql_uo.Evaluator.nodes
  in
  match union with
  | Some n ->
      Alcotest.(check (option int)) "union node counts the result"
        report.Sparql_uo.Executor.result_count
        (Some n.Sparql_uo.Evaluator.actual_rows)
  | None -> Alcotest.fail "no union{2} node reported"

(* --- Streaming ungrouped aggregates ------------------------------------ *)

(* A SELECT of pure aggregates without GROUP BY streams through the
   terminal aggregate sink: its one row must equal the reference fold over
   the Definition-7 oracle's bag, serial and parallel. SAMPLE picks by
   arrival order, so its run is only checked for a bound pick. *)
let test_streaming_aggregate_matches () =
  let ub n = "<http://swat.cse.lehigh.edu/onto/univ-bench.owl#" ^ n ^ ">" in
  let store =
    Rdf_store.Triple_store.of_triples
      (Workload.Lubm.generate Workload.Lubm.tiny)
  in
  let queries =
    [
      "SELECT (COUNT(*) AS ?n) WHERE { ?x " ^ ub "takesCourse" ^ " ?c }";
      "SELECT (COUNT(?c) AS ?n) (COUNT(DISTINCT ?c) AS ?d) (MIN(?c) AS ?lo) \
       (MAX(?c) AS ?hi) WHERE { ?x " ^ ub "takesCourse" ^ " ?c }";
      (* OPTIONAL body: the adaptive layer runs under the aggregate sink. *)
      "SELECT (COUNT(*) AS ?n) (COUNT(?e) AS ?ne) WHERE { ?x "
      ^ ub "takesCourse" ^ " ?c OPTIONAL { ?x " ^ ub "emailAddress"
      ^ " ?e } }";
      (* Empty match: aggregates over zero rows still emit one row. *)
      "SELECT (COUNT(*) AS ?n) WHERE { ?x " ^ ub "noSuchPredicate" ^ " ?y }";
    ]
  in
  List.iter
    (fun text ->
      let query = Sparql.Parser.parse text in
      let vartable = Qgen.aggregate_vartable query in
      let expected =
        Qgen.aggregate_reference store vartable query
          (Qgen.oracle_in store vartable query)
      in
      List.iter
        (fun domains ->
          let streamed =
            Sparql_uo.Executor.run ~mode:Sparql_uo.Executor.Full ~domains
              store text
          in
          Alcotest.(check (option int)) "one aggregate row" (Some 1)
            streamed.Sparql_uo.Executor.result_count;
          (match streamed.Sparql_uo.Executor.bag with
          | Some bag ->
              Alcotest.(check bool) "streamed aggregate = reference" true
                (Sparql.Bag.equal_as_bags bag expected)
          | None -> Alcotest.fail "unexpected resource limit");
          (* The run really took the sink path. *)
          if domains = 1 then
            let stats =
              Option.get streamed.Sparql_uo.Executor.eval_stats
            in
            Alcotest.(check bool) "aggregate stage present" true
              (List.exists
                 (fun (s : Sparql.Sink.stage) ->
                   s.Sparql.Sink.name = "aggregate")
                 stats.Sparql_uo.Evaluator.stages))
        [ 1; 4 ])
    queries;
  let sampled =
    Sparql_uo.Executor.run store
      ("SELECT (SAMPLE(?c) AS ?any) WHERE { ?x " ^ ub "takesCourse" ^ " ?c }")
  in
  match Sparql_uo.Executor.solutions store sampled with
  | [ solution ] ->
      Alcotest.(check bool) "SAMPLE picks a value" true
        (List.mem_assoc "any" solution)
  | _ -> Alcotest.fail "expected one SAMPLE row"

let () =
  Alcotest.run "engine"
    [
      ( "bgp",
        [
          Alcotest.test_case "coalesce components" `Quick test_coalesce_components;
          Alcotest.test_case "transitive chain" `Quick test_coalesce_transitive;
          Alcotest.test_case "predicate var ignored" `Quick test_coalesce_predicate_var_ignored;
          Alcotest.test_case "BGP coalescability" `Quick test_bgp_coalescable;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "missing term" `Quick test_compile_missing_term;
          Alcotest.test_case "counts" `Quick test_compile_counts;
          Alcotest.test_case "repeated var columns" `Quick test_var_columns_distinct;
        ] );
      ( "planner",
        [
          Alcotest.test_case "empty BGP" `Quick test_planner_empty;
          Alcotest.test_case "selective first" `Quick test_planner_selective_first;
          Alcotest.test_case "single-pattern exact card" `Quick test_planner_single_pattern_exact;
          QCheck_alcotest.to_alcotest prop_positional_sampler_matches_scan;
          QCheck_alcotest.to_alcotest prop_plans_unchanged;
          Alcotest.test_case "planning cost independent of range" `Quick
            test_planner_cost_independent_of_range;
        ] );
      ( "candidates",
        [
          Alcotest.test_case "membership" `Quick test_candidates;
          Alcotest.test_case "construction matches source" `Quick
            test_candidates_construction;
        ] );
      ( "steering",
        [
          Alcotest.test_case "q1.6 inner BGP seeds from ?v4" `Quick
            test_steer_seeds_smallest_set;
          Alcotest.test_case "untouched plan is physically equal" `Quick
            test_steer_keeps_untouched_plan;
          Alcotest.test_case "single pattern unchanged" `Quick
            test_steer_single_pattern;
        ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_engines_agree;
          QCheck_alcotest.to_alcotest prop_candidates_are_filters;
        ] );
      ( "intersection",
        [
          Alcotest.test_case "galloping kernel edge cases" `Quick
            test_intersect_kernel;
          Alcotest.test_case "planner groups star and triangle" `Quick
            test_planner_groups_star;
          QCheck_alcotest.to_alcotest prop_intersect_matches_naive;
          QCheck_alcotest.to_alcotest prop_multiway_matches_oracle;
        ] );
      ( "parallel",
        [
          QCheck_alcotest.to_alcotest prop_parallel_matches_serial;
          Alcotest.test_case "LUBM group1, both engines" `Quick
            test_parallel_lubm;
          Alcotest.test_case "budget fires under parallel eval" `Quick
            test_parallel_budget_fires;
          Alcotest.test_case "nested UNION of joins (no deadlock)" `Quick
            test_nested_union_of_joins;
          Alcotest.test_case "streamed LIMIT terminates remote domains" `Quick
            test_limit_early_termination;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "sharded DISTINCT merge" `Quick
            test_sharded_distinct_merge;
          Alcotest.test_case "top-k merge ordering and ties" `Quick
            test_topk_merge;
        ] );
      ( "adaptive",
        [
          QCheck_alcotest.to_alcotest prop_adaptive_matches_static;
          Alcotest.test_case "prefilter spares unbound-on-left vars" `Quick
            test_prefilter_unbound_left_vars;
          Alcotest.test_case "10x deviation triggers re-plan" `Quick
            test_replan_trigger;
          Alcotest.test_case "static runs report no nodes" `Quick
            test_static_reports_no_nodes;
          Alcotest.test_case "last-child UNION reports its node" `Quick
            test_last_child_union_node;
          Alcotest.test_case "streaming ungrouped aggregates" `Quick
            test_streaming_aggregate_matches;
        ] );
    ]
