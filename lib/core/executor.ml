(* The historical one-shot execution API, re-expressed on the
   prepare/execute split: [run_query] is [Prepared.prepare] immediately
   followed by [Prepared.execute]. Callers that execute a query more than
   once should hold a [Session] (plan cache + epoch invalidation) or a
   [Prepared.t] instead. *)

type mode = Prepared.mode = Base | TT | CP | Full

let mode_name = Prepared.mode_name
let all_modes = Prepared.all_modes

type failure = Prepared.failure =
  | Out_of_budget
  | Timeout
  | Cancelled
  | Injected_fault of string

let failure_name = Prepared.failure_name

type cache_info = Prepared.cache_info = {
  hit : bool;
  hits : int;
  misses : int;
}

type report = Prepared.report = {
  mode : mode;
  engine : Engine.Bgp_eval.engine;
  adaptive : bool;
  query : Sparql.Ast.query;
  vartable : Sparql.Vartable.t;
  projection : string list;
  bag : Sparql.Bag.t option;
  result_count : int option;
  failure : failure option;
  partial : failure option;
  pushed_rows : int;
  transform_ms : float;
  exec_ms : float;
  eval_stats : Evaluator.stats option;
  tree_before : Be_tree.group;
  tree_after : Be_tree.group;
  epoch : int;
  cache : cache_info option;
}

let run_query ?mode ?engine ?domains ?adaptive ?feedback ?row_budget
    ?timeout_ms ?partial ?governor ?stats store (query : Sparql.Ast.query) =
  let prepared = Prepared.prepare ?mode ?engine ?stats store query in
  Prepared.execute ?domains ?adaptive ?feedback ?row_budget ?timeout_ms
    ?partial ?governor prepared

let run ?mode ?engine ?domains ?adaptive ?feedback ?row_budget ?timeout_ms
    ?partial ?governor ?stats store text =
  run_query ?mode ?engine ?domains ?adaptive ?feedback ?row_budget
    ?timeout_ms ?partial ?governor ?stats store (Sparql.Parser.parse text)

let solutions store report =
  match report.bag with
  | None -> []
  | Some bag ->
      let cols =
        List.filter_map
          (fun v ->
            Option.map (fun col -> (v, col)) (Sparql.Vartable.find report.vartable v))
          report.projection
      in
      List.rev
        (Sparql.Bag.fold bag ~init:[] ~f:(fun acc row ->
             let solution =
               List.filter_map
                 (fun (v, col) ->
                   if Sparql.Binding.is_bound row col then
                     Some (v, Rdf_store.Triple_store.decode_term store row.(col))
                   else None)
                 cols
             in
             solution :: acc))

let explain report =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "mode=%s engine=%s%s\n" (mode_name report.mode)
       (Engine.Bgp_eval.engine_name report.engine)
       (if report.adaptive then " adaptive" else ""));
  Buffer.add_string buf "-- BE-tree (as constructed) --\n";
  Buffer.add_string buf (Be_tree.to_string report.tree_before);
  Buffer.add_string buf "\n-- BE-tree (after transformation) --\n";
  Buffer.add_string buf (Be_tree.to_string report.tree_after);
  Buffer.add_string buf
    (Printf.sprintf "\ntransform: %.3f ms, execution: %.3f ms\n"
       report.transform_ms report.exec_ms);
  Buffer.add_string buf (Printf.sprintf "store epoch: %d\n" report.epoch);
  (match report.cache with
  | Some c ->
      Buffer.add_string buf
        (Printf.sprintf "plan cache: %s (session hits=%d misses=%d)\n"
           (if c.hit then "hit" else "miss")
           c.hits c.misses)
  | None ->
      Buffer.add_string buf "plan cache: bypassed (one-shot execution)\n");
  (match (report.result_count, report.failure) with
  | Some n, None -> Buffer.add_string buf (Printf.sprintf "results: %d rows\n" n)
  | Some n, Some f ->
      Buffer.add_string buf
        (Printf.sprintf "results: %d rows (partial: killed by %s)\n" n
           (failure_name f))
  | None, Some f ->
      Buffer.add_string buf
        (Printf.sprintf "results: none (killed by %s)\n" (failure_name f))
  | None, None -> Buffer.add_string buf "results: none\n");
  (match report.eval_stats with
  | Some stats ->
      Buffer.add_string buf
        (Printf.sprintf
           "join space: %.3g; peak rows: %d; total rows: %d; BGP evals: %d \
            (%d pruned)\n"
           stats.Evaluator.join_space stats.Evaluator.peak_rows
           stats.Evaluator.total_rows stats.Evaluator.bgp_evals
           stats.Evaluator.pruned_bgps);
      (let i = stats.Evaluator.isect in
       if i.Engine.Intersect.intersections > 0 then
         Buffer.add_string buf
           (Printf.sprintf
              "wco multiway: %d intersections over %d operands; passes: %d \
               gallop / %d merge; domain values: %d\n"
              i.Engine.Intersect.intersections i.Engine.Intersect.operands
              i.Engine.Intersect.gallop_passes i.Engine.Intersect.merge_passes
              i.Engine.Intersect.domain_values));
      (match stats.Evaluator.nodes with
      | [] -> ()
      | nodes ->
          Buffer.add_string buf
            "adaptive nodes (evaluation order):\n\
            \  node        engine  est rows  actual rows\n";
          List.iter
            (fun (n : Evaluator.node_report) ->
              Buffer.add_string buf
                (Printf.sprintf "  %-11s %-7s %9.3g  %11d%s\n" n.Evaluator.label
                   n.Evaluator.engine n.Evaluator.est_rows
                   n.Evaluator.actual_rows
                   (if n.Evaluator.replanned then "  [replanned: est off >=10x]"
                    else "")))
            nodes;
          let pf = stats.Evaluator.prefilter in
          Buffer.add_string buf
            (Printf.sprintf
               "re-plans: %d; prefilter membership tests: %d (%d rejected)\n"
               stats.Evaluator.replans pf.Engine.Candidates.checks
               pf.Engine.Candidates.rejects));
      (match stats.Evaluator.stages with
      | [] -> ()
      | stages ->
          Buffer.add_string buf "sink pipeline:";
          List.iter
            (fun (s : Sparql.Sink.stage) ->
              Buffer.add_string buf
                (Printf.sprintf " %s(in=%d out=%d)" s.Sparql.Sink.name
                   s.Sparql.Sink.rows_in s.Sparql.Sink.rows_out))
            stages;
          Buffer.add_string buf "\n")
  | None -> ());
  Buffer.contents buf

let count_bgp_of_query q = Be_tree.count_bgp (Be_tree.of_query q)

let depth_of_query q = Be_tree.depth (Be_tree.of_query q)

(* --- Query forms beyond SELECT ----------------------------------------- *)

let ask report =
  match report.query.Sparql.Ast.form with
  | Sparql.Ast.Ask -> Option.map (fun n -> n > 0) report.result_count
  | _ -> None

(* Instantiate the CONSTRUCT template against each solution; triples with
   an unbound variable or an invalid shape (literal subject etc.) are
   dropped, per the SPARQL spec. Duplicates are removed (graphs are
   sets). *)
let construct store report =
  match (report.query.Sparql.Ast.form, report.bag) with
  | Sparql.Ast.Construct template, Some bag ->
      let resolve row node =
        match node with
        | Sparql.Triple_pattern.Term t -> Some t
        | Sparql.Triple_pattern.Var v -> (
            match Sparql.Vartable.find report.vartable v with
            | Some col when Sparql.Binding.is_bound row col ->
                Some (Rdf_store.Triple_store.decode_term store row.(col))
            | _ -> None)
      in
      let acc = ref [] in
      Sparql.Bag.iter bag ~f:(fun row ->
          List.iter
            (fun (tp : Sparql.Triple_pattern.t) ->
              match (resolve row tp.s, resolve row tp.p, resolve row tp.o) with
              | Some s, Some p, Some o ->
                  let triple = Rdf.Triple.make s p o in
                  if Rdf.Triple.is_valid triple then acc := triple :: !acc
              | _ -> ())
            template);
      List.sort_uniq Rdf.Triple.compare !acc
  | _ -> []

(* DESCRIBE: every triple in which a target resource appears as subject
   or object. *)
let describe store report =
  match report.query.Sparql.Ast.form with
  | Sparql.Ast.Describe targets ->
      let ids = Hashtbl.create 16 in
      List.iter
        (fun target ->
          match target with
          | Sparql.Ast.Dterm t -> (
              match Rdf_store.Triple_store.encode_term store t with
              | Some id -> Hashtbl.replace ids id ()
              | None -> ())
          | Sparql.Ast.Dvar v -> (
              match (report.bag, Sparql.Vartable.find report.vartable v) with
              | Some bag, Some col ->
                  Sparql.Bag.iter bag ~f:(fun row ->
                      if Sparql.Binding.is_bound row col then
                        Hashtbl.replace ids row.(col) ())
              | _ -> ()))
        targets;
      let acc = ref [] in
      Hashtbl.iter
        (fun id () ->
          let collect ~s ~p ~o =
            acc :=
              Rdf.Triple.make
                (Rdf_store.Triple_store.decode_term store s)
                (Rdf_store.Triple_store.decode_term store p)
                (Rdf_store.Triple_store.decode_term store o)
              :: !acc
          in
          Rdf_store.Triple_store.iter store ~s:id ~f:collect ();
          Rdf_store.Triple_store.iter store ~o:id ~f:collect ())
        ids;
      List.sort_uniq Rdf.Triple.compare !acc
  | _ -> []
