(* Shared qcheck generators for the engine/core/LBR property tests: random
   small RDF datasets and random SPARQL-UO queries over their vocabulary,
   plus the Definition-7 oracle to compare engines against, a reference
   GROUP BY over its bags, and the allocation count the cost-independence
   tests read. *)

module TP = Sparql.Triple_pattern

let iri i = Rdf.Term.iri (Printf.sprintf "http://t/e%d" i)
let pred i = Rdf.Term.iri (Printf.sprintf "http://t/p%d" i)

(* Datasets draw subjects/objects from a small universe so random patterns
   actually join. *)
let gen_dataset =
  QCheck2.Gen.(
    list_size (int_range 1 40)
      (map3
         (fun s p o -> Rdf.Triple.make (iri s) (pred p) (iri o))
         (int_range 0 5) (int_range 0 2) (int_range 0 5)))

let var_names = [| "a"; "b"; "c"; "d" |]

let gen_node =
  QCheck2.Gen.(
    frequency
      [
        (3, map (fun i -> TP.Var var_names.(i)) (int_range 0 3));
        (2, map (fun i -> TP.Term (iri i)) (int_range 0 5));
      ])

let gen_pred_node =
  QCheck2.Gen.(
    frequency
      [
        (1, map (fun i -> TP.Var var_names.(i)) (int_range 0 3));
        (5, map (fun i -> TP.Term (pred i)) (int_range 0 2));
      ])

let gen_triple_pattern =
  QCheck2.Gen.(
    map3 (fun s p o -> TP.make s p o) gen_node gen_pred_node gen_node)

let gen_triples_block =
  QCheck2.Gen.(
    map (fun tps -> Sparql.Ast.Triples tps)
      (list_size (int_range 1 3) gen_triple_pattern))

(* FILTER expressions over the same vocabulary: Bound, (in)equality and
   EXISTS cover the evaluator's group-filter paths. *)
let gen_filter =
  QCheck2.Gen.(
    map
      (fun (kind, v, w, i) ->
        let var = Sparql.Expr.Var var_names.(v) in
        let other =
          if w < 4 then Sparql.Expr.Var var_names.(w)
          else Sparql.Expr.Const (iri i)
        in
        let expr =
          match kind with
          | 0 -> Sparql.Expr.Cmp (Sparql.Expr.Ceq, var, other)
          | 1 -> Sparql.Expr.Cmp (Sparql.Expr.Cneq, var, other)
          | 2 -> Sparql.Expr.Bound var_names.(v)
          | 3 -> Sparql.Expr.Not (Sparql.Expr.Bound var_names.(v))
          | 4 ->
              Sparql.Expr.Exists
                [ Sparql.Ast.Triples
                    [ Sparql.Triple_pattern.make
                        (Sparql.Triple_pattern.Var var_names.(v))
                        (Sparql.Triple_pattern.Term (pred (i mod 3)))
                        (Sparql.Triple_pattern.Var var_names.(w mod 4)) ] ]
          | _ ->
              Sparql.Expr.Not_exists
                [ Sparql.Ast.Triples
                    [ Sparql.Triple_pattern.make
                        (Sparql.Triple_pattern.Var var_names.(v))
                        (Sparql.Triple_pattern.Term (pred (i mod 3)))
                        (Sparql.Triple_pattern.Term (iri i)) ] ]
        in
        Sparql.Ast.Filter expr)
      (quad (int_range 0 5) (int_range 0 3) (int_range 0 5) (int_range 0 5)))

(* VALUES blocks over the shared vocabulary (with occasional UNDEF). *)
let gen_values =
  QCheck2.Gen.(
    map
      (fun (v1, v2, cells) ->
        let vars =
          if v1 = v2 then [ var_names.(v1) ]
          else [ var_names.(v1); var_names.(v2) ]
        in
        let arity = List.length vars in
        let rec rows cells acc =
          match cells with
          | a :: b :: rest when arity = 2 ->
              rows rest ((a :: [ b ]) :: acc)
          | a :: rest when arity = 1 -> rows rest ([ a ] :: acc)
          | _ -> acc
        in
        let cell i = if i > 5 then None else Some (iri i) in
        let rows = rows (List.map cell cells) [] in
        let rows = if rows = [] then [ List.map (fun _ -> None) vars ] else rows in
        Sparql.Ast.Values { Sparql.Ast.vars; rows })
      (triple (int_range 0 3) (int_range 0 3)
         (list_size (int_range 2 6) (int_range 0 7))))

(* Random group graph patterns, with UNION / OPTIONAL / FILTER / nesting,
   bounded by a fuel parameter. *)
let rec gen_group fuel =
  let open QCheck2.Gen in
  if fuel <= 0 then map (fun b -> [ b ]) gen_triples_block
  else
    let element =
      frequency
        [
          (4, gen_triples_block);
          ( 2,
            map (fun g -> Sparql.Ast.Optional g) (gen_group (fuel - 1)) );
          ( 2,
            map2
              (fun g1 g2 -> Sparql.Ast.Union [ g1; g2 ])
              (gen_group (fuel - 1))
              (gen_group (fuel - 1)) );
          (1, map (fun g -> Sparql.Ast.Group g) (gen_group (fuel - 1)));
          (1, map (fun g -> Sparql.Ast.Minus g) (gen_group (fuel - 1)));
          (1, gen_filter);
          (1, gen_values);
        ]
    in
    list_size (int_range 1 3) element

let gen_query =
  QCheck2.Gen.(
    map
      (fun g ->
        {
          Sparql.Ast.env = Rdf.Namespace.with_defaults ();
          form = Sparql.Ast.Select Sparql.Ast.Star;
          distinct = false;
          where = g;
          group_by = [];
          having = None;
          order_by = [];
          limit = None;
          offset = None;
        })
      (gen_group 2))

(* [gen_query] plus random solution modifiers (DISTINCT, projection,
   ORDER BY, LIMIT/OFFSET). LIMIT/OFFSET are generated only together with
   an ORDER BY over *all* four variables: under a full-key stable sort,
   rows tied on every key are identical, so the selected window is unique
   as a bag no matter what order the producers emitted rows in (parallel
   UNION branches or domain shards) — without it, LIMIT over an unordered
   bag is legitimately nondeterministic and untestable. *)
let gen_modified_query =
  QCheck2.Gen.(
    let* q = gen_query in
    let* distinct = bool in
    let* proj_k = int_range 0 4 in
    let* descs = quad bool bool bool bool in
    let* has_order = bool in
    let* limit = option (int_range 0 6) in
    let* offset = option (int_range 0 4) in
    let form =
      if proj_k = 0 then Sparql.Ast.Select Sparql.Ast.Star
      else
        Sparql.Ast.Select
          (Sparql.Ast.Projection
             (Array.to_list (Array.sub var_names 0 proj_k)))
    in
    let restrict = limit <> None || offset <> None in
    let order_by =
      if has_order || restrict then
        let d0, d1, d2, d3 = descs in
        List.combine (Array.to_list var_names) [ d0; d1; d2; d3 ]
      else []
    in
    let limit, offset = if restrict then (limit, offset) else (None, None) in
    return { q with Sparql.Ast.form; distinct; order_by; limit; offset })

(* AND/OPTIONAL-only groups in LBR's normalized shape (triples blocks and
   OPTIONAL children only — the well-designed fragment LBR targets). *)
let rec gen_wd_group fuel =
  let open QCheck2.Gen in
  if fuel <= 0 then map (fun b -> [ b ]) gen_triples_block
  else
    map2
      (fun block optionals -> block :: optionals)
      gen_triples_block
      (list_size (int_range 0 2)
         (map (fun g -> Sparql.Ast.Optional g) (gen_wd_group (fuel - 1))))

let gen_wd_query =
  QCheck2.Gen.(
    map
      (fun g ->
        {
          Sparql.Ast.env = Rdf.Namespace.with_defaults ();
          form = Sparql.Ast.Select Sparql.Ast.Star;
          distinct = false;
          where = g;
          group_by = [];
          having = None;
          order_by = [];
          limit = None;
          offset = None;
        })
      (gen_wd_group 2))

(* [gen_query] grouped: GROUP BY on 0-2 variables (projected as plain
   items), a COUNT( * ) alias [?n], one to three aggregates over single
   variables — COUNT, COUNT DISTINCT, SUM, MIN and MAX, whose values do
   not depend on row order (SAMPLE's pick does, so it is left out) — and
   an optional HAVING on [?n]. *)
let gen_grouped_query =
  QCheck2.Gen.(
    let* q = gen_query in
    let* keys = int_range 0 2 in
    let* targets = list_size (int_range 1 3) (pair (int_range 0 4) (int_range 0 3)) in
    let* having = option (int_range 0 3) in
    let group_by = Array.to_list (Array.sub var_names 0 keys) in
    let aggregate i (kind, v) =
      let agg, distinct =
        match kind with
        | 0 -> (Sparql.Ast.Count, false)
        | 1 -> (Sparql.Ast.Count, true)
        | 2 -> (Sparql.Ast.Sum, false)
        | 3 -> (Sparql.Ast.Min, false)
        | _ -> (Sparql.Ast.Max, false)
      in
      Sparql.Ast.Aggregate
        { agg; distinct; target = Some var_names.(v);
          alias = Printf.sprintf "x%d" i }
    in
    let items =
      List.map (fun v -> Sparql.Ast.Svar v) group_by
      @ Sparql.Ast.Aggregate
          { agg = Sparql.Ast.Count; distinct = false; target = None; alias = "n" }
        :: List.mapi aggregate targets
    in
    let having =
      Option.map
        (fun k ->
          Sparql.Expr.Cmp
            (Sparql.Expr.Cgt, Sparql.Expr.Var "n",
             Sparql.Expr.Const (Rdf.Term.int_literal k)))
        having
    in
    return
      { q with
        Sparql.Ast.form = Sparql.Ast.Select (Sparql.Ast.Aggregated items);
        group_by;
        having })

(* The execution configurations the prepare/execute properties sweep:
   every mode x engine x domain count {1,2,4}. *)
let exec_configs =
  List.concat_map
    (fun mode ->
      List.concat_map
        (fun engine -> List.map (fun domains -> (mode, engine, domains)) [ 1; 2; 4 ])
        [ Engine.Bgp_eval.Wco; Engine.Bgp_eval.Hash_join ])
    Sparql_uo.Executor.all_modes

(* The Definition 7 oracle, over a given variable table. *)
let oracle_in store vartable (query : Sparql.Ast.query) =
  let env = Engine.Bgp_eval.make store vartable Engine.Bgp_eval.Hash_join in
  fst (Sparql_uo.Binary_eval.eval env (Sparql.Algebra.of_query query))

(* The Definition 7 oracle. *)
let oracle store (query : Sparql.Ast.query) =
  let vartable = Sparql.Vartable.of_list (Sparql.Ast.group_vars query.where) in
  (oracle_in store vartable query, vartable)

(* The variable table the executor builds for an aggregated query: the
   pattern's variables, then one column per aggregate alias. *)
let aggregate_vartable (query : Sparql.Ast.query) =
  let vartable = Sparql.Vartable.of_list (Sparql.Ast.group_vars query.where) in
  (match query.Sparql.Ast.form with
  | Sparql.Ast.Select (Sparql.Ast.Aggregated items) ->
      List.iter
        (function
          | Sparql.Ast.Aggregate { alias; _ } ->
              ignore (Sparql.Vartable.id vartable alias)
          | Sparql.Ast.Svar _ -> ())
        items
  | _ -> ());
  vartable

(* Reference GROUP BY + HAVING over an already-evaluated bag: partition
   the rows by the GROUP BY columns, emit one row per group in
   first-arrival order (the key columns plus one column per aggregate
   alias, each folded over the group's bound target ids in reverse
   arrival order), then keep the rows HAVING accepts. A grouped query over
   no rows yields no groups; the ungrouped one yields one row. *)
let aggregate_reference store vartable (query : Sparql.Ast.query) bag =
  let snap = Rdf_store.Snapshot.of_store store in
  let dict = Rdf_store.Triple_store.dictionary store in
  let width = Sparql.Bag.width bag in
  let items =
    match query.Sparql.Ast.form with
    | Sparql.Ast.Select (Sparql.Ast.Aggregated items) -> items
    | _ -> []
  in
  let key_cols =
    List.filter_map (Sparql.Vartable.find vartable) query.Sparql.Ast.group_by
  in
  let groups = Hashtbl.create 64 in
  let order = ref [] in
  Sparql.Bag.iter bag ~f:(fun row ->
      let key = List.map (fun col -> row.(col)) key_cols in
      match Hashtbl.find_opt groups key with
      | Some rows -> rows := row :: !rows
      | None ->
          Hashtbl.add groups key (ref [ row ]);
          order := key :: !order);
  let keys =
    match (List.rev !order, key_cols) with
    | [], [] ->
        Hashtbl.add groups [] (ref []);
        [ [] ]
    | keys, _ -> keys
  in
  let result = Sparql.Bag.create ~width in
  List.iter
    (fun key ->
      let rows = !(Hashtbl.find groups key) in
      let fresh = Sparql.Binding.create ~width in
      List.iter2 (fun col v -> fresh.(col) <- v) key_cols key;
      List.iter
        (function
          | Sparql.Ast.Svar _ -> ()
          | Sparql.Ast.Aggregate { agg; distinct; target; alias } -> (
              let ids =
                match Option.bind target (Sparql.Vartable.find vartable) with
                | None -> []
                | Some col ->
                    List.filter_map
                      (fun row ->
                        if Sparql.Binding.is_bound row col then Some row.(col)
                        else None)
                      rows
              in
              match
                ( Sparql_uo.Prepared.compute_aggregate_ids snap ~agg ~distinct
                    ~target ~row_count:(List.length rows) ids,
                  Sparql.Vartable.find vartable alias )
              with
              | Some term, Some col ->
                  fresh.(col) <- Rdf_store.Dictionary.encode dict term
              | _ -> ()))
        items;
      Sparql.Bag.push result fresh)
    keys;
  match query.Sparql.Ast.having with
  | None -> result
  | Some e ->
      let lookup row v =
        match Sparql.Vartable.find vartable v with
        | Some col when Sparql.Binding.is_bound row col ->
            Some (Rdf_store.Triple_store.decode_term store row.(col))
        | _ -> None
      in
      Sparql.Bag.filter result ~f:(fun row ->
          Sparql.Expr.eval ~lookup:(lookup row) ~exists:(fun _ -> false) e)

let pp_query q = Sparql.Ast.to_string q

let pp_dataset triples =
  String.concat "" (List.map Rdf.Triple.to_ntriples triples)

(* Words allocated on the OCaml heap while [f] runs: minor plus major
   allocations, minus the promotions counted in both. A count of work,
   not a wall time, so it does not depend on the host. The minor
   collection before each reading brings the minor-word counter up to
   date. *)
let words_allocated f =
  let total () =
    Gc.minor ();
    let st = Gc.quick_stat () in
    st.minor_words +. st.major_words -. st.promoted_words
  in
  let before = total () in
  f ();
  total () -. before
