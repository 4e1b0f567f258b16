(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 7) on the synthetic substrates.

     dune exec bench/main.exe              # full run
     dune exec bench/main.exe -- --quick   # reduced-scale smoke run
     dune exec bench/main.exe -- --only fig10 --only fig13

   Absolute numbers differ from the paper (its substrate was gStore/Jena on
   a 256 GB server against 500M-2B triple datasets; ours is an OCaml
   engine at laptop scale) — the reproduced artifact is the *shape*: which
   configuration wins, by roughly what factor, and where base hits its
   resource limits. See EXPERIMENTS.md for the side-by-side reading. *)

let all_sections =
  [ "table2"; "table3"; "table4"; "fig3"; "fig10"; "fig11"; "fig12"; "fig13";
    "ablation"; "micro"; "parallel"; "plan_cache"; "robustness"; "serving";
    "durability"; "scale"; "adaptive" ]

type context = {
  config : Harness.config;
  lubm : (Rdf_store.Triple_store.t * Rdf_store.Stats.t) Lazy.t;
  dbpedia : (Rdf_store.Triple_store.t * Rdf_store.Stats.t) Lazy.t;
}

let dataset_of ctx = function
  | Workload.Queries.Lubm -> Lazy.force ctx.lubm
  | Workload.Queries.Dbpedia -> Lazy.force ctx.dbpedia

(* [produce] streams triples into the bulk loader — no intermediate list,
   which matters now that the default LUBM scale is 130 universities. *)
let build_store name produce =
  let store = Rdf_store.Triple_store.of_iter produce in
  (* The epoch-memoized path: the same [Stats.t] every session over this
     store value reuses, instead of a private full scan per call site. *)
  let stats = Rdf_store.Stats.cached store in
  let ls = Rdf_store.Triple_store.load_stats store in
  Printf.printf "[build] %s: %s triples (%.1fs, %s triples/s, %.1f MB off-heap)\n%!"
    name
    (Harness.human_int (Rdf_store.Triple_store.size store))
    ls.Rdf_store.Triple_store.elapsed_s
    (Harness.human_int (int_of_float ls.Rdf_store.Triple_store.triples_per_sec))
    (float_of_int (Rdf_store.Triple_store.mem_bytes store) /. 1048576.);
  (store, stats)

(* ------------------------------------------------------------------ *)
(* Table 2: dataset statistics.                                        *)
(* ------------------------------------------------------------------ *)

let table2 ctx =
  Harness.section "Table 2: Dataset statistics";
  let row name (_, stats) =
    [
      name;
      Harness.human_int (Rdf_store.Stats.num_triples stats);
      Harness.human_int (Rdf_store.Stats.num_entities stats);
      Harness.human_int (Rdf_store.Stats.num_predicates stats);
      Harness.human_int (Rdf_store.Stats.num_literals stats);
    ]
  in
  Harness.print_table
    ~header:[ "Dataset"; "triples"; "entities"; "predicates"; "literals" ]
    ~rows:
      [
        row "LUBM" (Lazy.force ctx.lubm);
        row "DBpedia" (Lazy.force ctx.dbpedia);
      ]

(* ------------------------------------------------------------------ *)
(* Tables 3 and 4: query statistics.                                   *)
(* ------------------------------------------------------------------ *)

let query_stats_table ctx ds title =
  Harness.section title;
  let store, _stats = dataset_of ctx ds in
  let rows =
    List.map
      (fun entry ->
        let row =
          Workload.Metrics.row_of ~row_budget:ctx.config.Harness.row_budget
            store entry
        in
        [
          row.Workload.Metrics.id;
          Workload.Metrics.class_name row.Workload.Metrics.query_class;
          string_of_int row.Workload.Metrics.count_bgp;
          string_of_int row.Workload.Metrics.depth;
          (match row.Workload.Metrics.result_size with
          | Some n -> Harness.human_int n
          | None -> ">limit");
        ])
      (Workload.Queries.all ds)
  in
  Harness.print_table
    ~header:[ "Query"; "Type"; "Count_BGP"; "Depth"; "|[[Q]]_D|" ]
    ~rows

let table3 ctx =
  query_stats_table ctx Workload.Queries.Lubm "Table 3: Query statistics on LUBM"

let table4 ctx =
  query_stats_table ctx Workload.Queries.Dbpedia
    "Table 4: Query statistics on DBpedia"

(* ------------------------------------------------------------------ *)
(* Figure 3 (motivational): binary-tree vs BGP-based evaluation.       *)
(* ------------------------------------------------------------------ *)

let fig3 ctx =
  Harness.section
    "Figure 3 (motivational): binary-tree vs BGP-based evaluation";
  let store, stats = Lazy.force ctx.lubm in
  let text =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n\
     SELECT * WHERE { ?x ub:memberOf \
     <http://www.Department0.University0.edu> . ?x ub:telephone ?y . }"
  in
  let query = Sparql.Parser.parse text in
  Printf.printf
    "Query: one selective pattern joined with one unselective attribute \
     pattern\n";
  (* Binary-tree evaluation materializes every triple pattern. *)
  let vartable = Sparql.Vartable.of_list (Sparql.Ast.group_vars query.where) in
  let env = Engine.Bgp_eval.make ~stats store vartable Engine.Bgp_eval.Wco in
  let gov =
    Sparql.Governor.create ~row_budget:ctx.config.Harness.row_budget ()
  in
  let t0 = Unix.gettimeofday () in
  let binary =
    try
      Sparql.Governor.with_ticket gov (fun () ->
          let bag, bstats =
            Sparql_uo.Binary_eval.eval env (Sparql.Algebra.of_query query)
          in
          Some (Sparql.Bag.length bag, bstats))
    with Sparql.Governor.Kill _ -> None
  in
  let binary_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let report =
    Sparql_uo.Executor.run_query ~mode:Sparql_uo.Executor.Base
      ~row_budget:ctx.config.Harness.row_budget ~stats store query
  in
  let rows =
    [
      (match binary with
      | Some (n, bstats) ->
          [
            "binary-tree (per triple pattern)";
            Printf.sprintf "%.1f" binary_ms;
            Harness.human_int bstats.Sparql_uo.Binary_eval.total_rows;
            Harness.human_int n;
          ]
      | None ->
          [
            "binary-tree (per triple pattern)";
            "OOM";
            ">" ^ Harness.human_int ctx.config.Harness.row_budget;
            "-";
          ]);
      (match report.Sparql_uo.Executor.eval_stats with
      | Some estats ->
          [
            "BGP-based (Algorithm 1)";
            Printf.sprintf "%.1f" report.Sparql_uo.Executor.exec_ms;
            Harness.human_int estats.Sparql_uo.Evaluator.total_rows;
            Harness.human_int
              (Option.value report.Sparql_uo.Executor.result_count ~default:0);
          ]
      | None -> [ "BGP-based (Algorithm 1)"; "OOM"; "-"; "-" ]);
    ]
  in
  Harness.print_table
    ~header:[ "Strategy"; "time (ms)"; "intermediate rows"; "results" ]
    ~rows

(* ------------------------------------------------------------------ *)
(* Figure 10: base/TT/CP/full on q1.1-q1.6, both datasets and engines. *)
(* ------------------------------------------------------------------ *)

let fig10_panel ctx ds engine =
  let store, stats = dataset_of ctx ds in
  Harness.subsection
    (Printf.sprintf
       "%s / %s engine (times in ms; OOM = row budget, as in the paper's \
        absent bars)"
       (Workload.Queries.dataset_name ds)
       (Engine.Bgp_eval.engine_name engine));
  let rows =
    List.map
      (fun entry ->
        let cells =
          List.map
            (fun mode ->
              let cell, _ =
                Harness.run_mode ctx.config ~stats store entry ~mode ~engine
              in
              Harness.cell_to_string cell)
            Sparql_uo.Executor.all_modes
        in
        entry.Workload.Queries.id :: cells)
      (Workload.Queries.group1 ds)
  in
  Harness.print_table ~header:[ "Query"; "base"; "TT"; "CP"; "full" ] ~rows

let fig10 ctx =
  Harness.section
    "Figure 10: execution time of base / TT / CP / full (4 panels)";
  List.iter
    (fun ds ->
      List.iter
        (fun engine -> fig10_panel ctx ds engine)
        [ Engine.Bgp_eval.Wco; Engine.Bgp_eval.Hash_join ])
    [ Workload.Queries.Lubm; Workload.Queries.Dbpedia ]

(* ------------------------------------------------------------------ *)
(* Figure 11: execution time and join space.                           *)
(* ------------------------------------------------------------------ *)

let fig11 ctx =
  Harness.section "Figure 11: execution time and join space (WCO engine)";
  List.iter
    (fun ds ->
      let store, stats = dataset_of ctx ds in
      Harness.subsection (Workload.Queries.dataset_name ds);
      let rows =
        List.concat_map
          (fun entry ->
            List.map
              (fun mode ->
                let cell, report =
                  Harness.run_mode ctx.config ~stats store entry ~mode
                    ~engine:Engine.Bgp_eval.Wco
                in
                [
                  entry.Workload.Queries.id;
                  Sparql_uo.Executor.mode_name mode;
                  Harness.cell_to_string cell;
                  (match report.Sparql_uo.Executor.eval_stats with
                  | Some s ->
                      Printf.sprintf "%.3g" s.Sparql_uo.Evaluator.join_space
                  | None -> "-");
                  (match report.Sparql_uo.Executor.eval_stats with
                  | Some s -> Harness.human_int s.Sparql_uo.Evaluator.peak_rows
                  | None -> "-");
                ])
              Sparql_uo.Executor.all_modes)
          (Workload.Queries.group1 ds)
      in
      Harness.print_table
        ~header:[ "Query"; "Mode"; "time (ms)"; "join space"; "peak rows" ]
        ~rows)
    [ Workload.Queries.Lubm; Workload.Queries.Dbpedia ]

(* ------------------------------------------------------------------ *)
(* Figure 12: scalability of full on growing LUBM datasets.            *)
(* ------------------------------------------------------------------ *)

let fig12 ctx =
  Harness.section
    "Figure 12: execution time of full on LUBM datasets of growing size";
  let scales =
    List.map
      (fun n ->
        let store, stats =
          build_store
            (Printf.sprintf "LUBM(%d universities)" n)
            (fun f ->
              Workload.Lubm.iter_triples (Workload.Lubm.scaled n) ~f)
        in
        (n, Rdf_store.Triple_store.size store, store, stats))
      ctx.config.Harness.scaling_universities
  in
  let header =
    "Query"
    :: List.map
         (fun (_, size, _, _) -> Harness.human_int size ^ " triples")
         scales
  in
  let rows =
    List.map
      (fun entry ->
        entry.Workload.Queries.id
        :: List.map
             (fun (_, _, store, stats) ->
               let cell, _ =
                 Harness.run_mode ctx.config ~stats store entry
                   ~mode:Sparql_uo.Executor.Full ~engine:Engine.Bgp_eval.Wco
               in
               Harness.cell_to_string cell)
             scales)
      (Workload.Queries.group1 Workload.Queries.Lubm)
  in
  Harness.print_table ~header ~rows

(* ------------------------------------------------------------------ *)
(* Figure 13: full vs LBR on q2.1-q2.6.                                *)
(* ------------------------------------------------------------------ *)

let fig13 ctx =
  Harness.section "Figure 13: comparison with the state of the art (LBR)";
  List.iter
    (fun ds ->
      let store, stats = dataset_of ctx ds in
      Harness.subsection (Workload.Queries.dataset_name ds);
      let rows =
        List.map
          (fun entry ->
            let full_cell, _ =
              Harness.run_mode ctx.config ~stats store entry
                ~mode:Sparql_uo.Executor.Full ~engine:Engine.Bgp_eval.Wco
            in
            let query = Sparql.Parser.parse entry.Workload.Queries.text in
            let lbr_cell =
              if Lbr.Lbr_eval.supported query then begin
                let vartable =
                  Sparql.Vartable.of_list
                    (Sparql.Ast.group_vars query.Sparql.Ast.where)
                in
                let env =
                  Engine.Bgp_eval.make ~stats store vartable
                    Engine.Bgp_eval.Hash_join
                in
                Harness.cell_to_string
                  (Harness.run_lbr ctx.config ~stats env query)
              end
              else "unsupported"
            in
            [
              entry.Workload.Queries.id;
              Harness.cell_to_string full_cell;
              lbr_cell;
            ])
          (Workload.Queries.group2 ds)
      in
      Harness.print_table ~header:[ "Query"; "full (ms)"; "LBR (ms)" ] ~rows)
    [ Workload.Queries.Lubm; Workload.Queries.Dbpedia ]

(* ------------------------------------------------------------------ *)
(* Ablation: the candidate-pruning threshold (Section 6).              *)
(* ------------------------------------------------------------------ *)

(* The paper fixes CP's threshold at 1% of |D| and gives full an adaptive
   per-BGP threshold; this ablation sweeps the fixed threshold and
   compares against both extremes and the adaptive rule, on the
   CP-sensitive queries (the transformed tree is held fixed at the Full
   plan so only the pruning rule varies). *)
let ablation ctx =
  Harness.section
    "Ablation: candidate-pruning threshold (fixed sweep vs adaptive)";
  let store, stats = Lazy.force ctx.lubm in
  let size = Rdf_store.Triple_store.size store in
  let thresholds =
    [
      ("none", Sparql_uo.Evaluator.No_pruning);
      ("0.01%", Sparql_uo.Evaluator.Fixed (max 1 (size / 10000)));
      ("0.1%", Sparql_uo.Evaluator.Fixed (max 1 (size / 1000)));
      ("1%", Sparql_uo.Evaluator.Fixed (max 1 (size / 100)));
      ("10%", Sparql_uo.Evaluator.Fixed (max 1 (size / 10)));
      ("adaptive", Sparql_uo.Evaluator.Adaptive);
    ]
  in
  let header = "Query" :: List.map fst thresholds @ [ "pruned BGPs (adaptive)" ] in
  let rows =
    List.filter_map
      (fun id ->
        let entry = Workload.Queries.get Workload.Queries.Lubm id in
        let query = Sparql.Parser.parse entry.Workload.Queries.text in
        let vartable =
          Sparql.Vartable.of_list (Sparql.Ast.group_vars query.Sparql.Ast.where)
        in
        let env =
          Engine.Bgp_eval.make ~stats store vartable Engine.Bgp_eval.Wco
        in
        let tree =
          Sparql_uo.Transform.multi_level env ~skip_cp_equivalent:true
            (Sparql_uo.Be_tree.of_query query)
        in
        let last_pruned = ref 0 in
        let cell threshold =
          let gov =
            Sparql.Governor.create
              ~row_budget:ctx.config.Harness.row_budget
              ~deadline:
                ( Unix.gettimeofday ()
                  +. (ctx.config.Harness.timeout_ms /. 1000.),
                  Unix.gettimeofday )
              ()
          in
          let t0 = Unix.gettimeofday () in
          try
            Sparql.Governor.with_ticket gov (fun () ->
                let _, stats = Sparql_uo.Evaluator.eval env ~threshold tree in
                last_pruned := stats.Sparql_uo.Evaluator.pruned_bgps;
                Printf.sprintf "%.1f" ((Unix.gettimeofday () -. t0) *. 1000.))
          with Sparql.Governor.Kill _ -> "OOM/t.o."
        in
        let cells = List.map (fun (_, t) -> cell t) thresholds in
        Some ((id :: cells) @ [ string_of_int !last_pruned ]))
      [ "q1.3"; "q1.4"; "q1.5"; "q1.6" ]
  in
  Harness.print_table ~header ~rows

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel): core operator costs.                   *)
(* ------------------------------------------------------------------ *)

let micro ctx =
  Harness.section "Micro-benchmarks (Bechamel): core operator costs";
  let open Bechamel in
  let store, stats =
    build_store "LUBM (micro subset)" (fun f ->
        Workload.Lubm.iter_triples Workload.Lubm.tiny ~f)
  in
  ignore ctx;
  let mk_bag seed n =
    let rng = Workload.Rng.create ~seed in
    let bag = Sparql.Bag.create ~width:3 in
    for _ = 1 to n do
      Sparql.Bag.push bag
        [| Workload.Rng.int rng 64; Workload.Rng.int rng 64; -1 |]
    done;
    bag
  in
  let b1 = mk_bag 1 2000 and b2 = mk_bag 2 2000 in
  let entry = Workload.Queries.get Workload.Queries.Lubm "q1.6" in
  let query = Sparql.Parser.parse entry.Workload.Queries.text in
  let vartable = Sparql.Vartable.of_list (Sparql.Ast.group_vars query.where) in
  let wco_env = Engine.Bgp_eval.make ~stats store vartable Engine.Bgp_eval.Wco in
  let hash_env =
    Engine.Bgp_eval.make ~stats store vartable Engine.Bgp_eval.Hash_join
  in
  let eval_bgp env bgp =
    let bag = Sparql.Bag.create ~width:(Engine.Bgp_eval.width env) in
    Engine.Bgp_eval.eval_into env bgp ~candidates:Engine.Candidates.empty
      ~sink:(Sparql.Bag.sink bag);
    bag
  in
  let bgp =
    [
      Sparql.Triple_pattern.make
        (Sparql.Triple_pattern.Var "x")
        (Sparql.Triple_pattern.Term (Rdf.Term.iri (Rdf.Namespace.ub "advisor")))
        (Sparql.Triple_pattern.Var "y");
      Sparql.Triple_pattern.make
        (Sparql.Triple_pattern.Var "y")
        (Sparql.Triple_pattern.Term
           (Rdf.Term.iri (Rdf.Namespace.ub "teacherOf")))
        (Sparql.Triple_pattern.Var "z");
      Sparql.Triple_pattern.make
        (Sparql.Triple_pattern.Var "x")
        (Sparql.Triple_pattern.Term
           (Rdf.Term.iri (Rdf.Namespace.ub "takesCourse")))
        (Sparql.Triple_pattern.Var "z");
    ]
  in
  let tree = Sparql_uo.Be_tree.of_query query in
  let tests =
    Test.make_grouped ~name:"core"
      [
        Test.make ~name:"bag_join_2k_x_2k"
          (Staged.stage (fun () -> Sparql.Bag.join b1 b2));
        Test.make ~name:"bag_left_outer_join_2k_x_2k"
          (Staged.stage (fun () -> Sparql.Bag.left_outer_join b1 b2));
        Test.make ~name:"bag_union_2k_x_2k"
          (Staged.stage (fun () -> Sparql.Bag.union b1 b2));
        Test.make ~name:"bgp_eval_wco_triangle"
          (Staged.stage (fun () -> eval_bgp wco_env bgp));
        Test.make ~name:"bgp_eval_hash_triangle"
          (Staged.stage (fun () -> eval_bgp hash_env bgp));
        Test.make ~name:"parse_q1.1"
          (Staged.stage (fun () ->
               Sparql.Parser.parse
                 (Workload.Queries.get Workload.Queries.Lubm "q1.1")
                   .Workload.Queries.text));
        Test.make ~name:"betree_multi_level_transform_q1.6"
          (Staged.stage (fun () -> Sparql_uo.Transform.multi_level wco_env tree));
      ]
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (estimate :: _) -> Printf.sprintf "%.0f" estimate
        | _ -> "-"
      in
      rows := [ name; ns ] :: !rows)
    results;
  Harness.print_table
    ~header:[ "Benchmark"; "ns/run (OLS)" ]
    ~rows:(List.sort compare !rows)

(* ------------------------------------------------------------------ *)
(* Parallel: serial vs multi-domain execution on the mixed workload.   *)
(* ------------------------------------------------------------------ *)

(* Not a paper figure: validates and times the morsel-driven multicore
   execution layer. Each LUBM group-1 query (mixed OPTIONAL/UNION) runs
   under Full at domains=1 and at each parallel domain count for both
   engines; results must be equal as bags. The per-query wall-clock, the
   per-domain-count aggregate speedups, the scheduler's morsel/steal/stop
   counters and a cross-domain early-termination probe (streamed LIMIT vs
   full scan at max domains) go into a machine-readable BENCH json next
   to the human table. *)
let parallel_bench_file = "bench_parallel.json"

(* The scheduler counters a run's own report carries (zero when it was
   killed before reporting). *)
let sched_counters report =
  match report.Sparql_uo.Executor.eval_stats with
  | Some es -> es.Sparql_uo.Evaluator.sched
  | None -> Engine.Pool.{ morsels = 0; steals = 0; stops = 0 }

let parallel ctx ~domains =
  (* The sweep: serial baseline plus each parallel domain count up to
     [domains] (the --domains flag; 4 by default gives {1, 2, 4}). *)
  let parallel_counts =
    List.sort_uniq compare (List.filter (fun d -> d > 1) [ 2; domains ])
  in
  Harness.section
    (Printf.sprintf
       "Parallel: full at domains={1%s} (LUBM mixed OPTIONAL/UNION workload)"
       (String.concat ""
          (List.map (fun d -> Printf.sprintf ",%d" d) parallel_counts)));
  let store, stats = Lazy.force ctx.lubm in
  let cell_json = function
    | Harness.Time ms -> Printf.sprintf "%.3f" ms
    | Harness.Oom | Harness.Timed_out -> "null"
  in
  let json_engines =
    List.map
      (fun engine ->
        Harness.subsection (Engine.Bgp_eval.engine_name engine);
        let rows_json = ref [] in
        (* Per domain count: summed serial/parallel wall-clock and the
           scheduler counters accumulated over that count's runs. *)
        let sums =
          List.map (fun d -> (d, (ref 0., ref 0.))) parallel_counts
        in
        let counters =
          List.map (fun d -> (d, ref Engine.Pool.{ morsels = 0; steals = 0; stops = 0 }))
            parallel_counts
        in
        let all_equal = ref true in
        let rows =
          List.map
            (fun entry ->
              let serial_cell, serial_report =
                Harness.run_mode
                  { ctx.config with Harness.domains = 1 }
                  ~stats store entry ~mode:Sparql_uo.Executor.Full ~engine
              in
              let par_cells =
                List.map
                  (fun d ->
                    let cell, report =
                      Harness.run_mode
                        { ctx.config with Harness.domains = d }
                        ~stats store entry ~mode:Sparql_uo.Executor.Full
                        ~engine
                    in
                    let c = sched_counters report in
                    let acc = List.assoc d counters in
                    acc :=
                      Engine.Pool.
                        {
                          morsels = !acc.morsels + c.morsels;
                          steals = !acc.steals + c.steals;
                          stops = !acc.stops + c.stops;
                        };
                    let equal =
                      match
                        ( serial_report.Sparql_uo.Executor.bag,
                          report.Sparql_uo.Executor.bag )
                      with
                      | Some b1, Some b2 -> Sparql.Bag.equal_as_bags b1 b2
                      | None, None -> true
                      | _ -> false
                    in
                    if not equal then all_equal := false;
                    let speedup =
                      match (serial_cell, cell) with
                      | Harness.Time t1, Harness.Time tn when tn > 0. ->
                          let sum_s, sum_p = List.assoc d sums in
                          sum_s := !sum_s +. t1;
                          sum_p := !sum_p +. tn;
                          Some (t1 /. tn)
                      | _ -> None
                    in
                    (d, cell, equal, speedup))
                  parallel_counts
              in
              rows_json :=
                Printf.sprintf "      {\"id\": %S, \"ms_d1\": %s%s}"
                  entry.Workload.Queries.id (cell_json serial_cell)
                  (String.concat ""
                     (List.map
                        (fun (d, cell, equal, speedup) ->
                          Printf.sprintf
                            ", \"ms_d%d\": %s, \"speedup_d%d\": %s, \
                             \"equal_as_bags_d%d\": %b"
                            d (cell_json cell) d
                            (match speedup with
                            | Some s -> Printf.sprintf "%.3f" s
                            | None -> "null")
                            d equal)
                        par_cells))
                :: !rows_json;
              entry.Workload.Queries.id :: Harness.cell_to_string serial_cell
              :: List.concat_map
                   (fun (_, cell, equal, speedup) ->
                     [
                       Harness.cell_to_string cell;
                       (match speedup with
                       | Some s -> Printf.sprintf "%.2fx" s
                       | None -> "-");
                       (if equal then "yes" else "NO");
                     ])
                   par_cells)
            (Workload.Queries.group1 Workload.Queries.Lubm)
        in
        Harness.print_table
          ~header:
            ("Query" :: "d=1 (ms)"
            :: List.concat_map
                 (fun d ->
                   [
                     Printf.sprintf "d=%d (ms)" d;
                     Printf.sprintf "speedup d=%d" d;
                     "equal";
                   ])
                 parallel_counts)
          ~rows;
        let aggregates =
          List.map
            (fun d ->
              let sum_s, sum_p = List.assoc d sums in
              (d, if !sum_p > 0. then !sum_s /. !sum_p else 0.))
            parallel_counts
        in
        List.iter
          (fun (d, aggregate) ->
            let c = !(List.assoc d counters) in
            Printf.printf
              "aggregate speedup (%s, domains=%d): %.2fx  [morsels=%d \
               steals=%d stops=%d]\n\
               %!"
              (Engine.Bgp_eval.engine_name engine)
              d aggregate c.Engine.Pool.morsels c.Engine.Pool.steals
              c.Engine.Pool.stops)
          aggregates;
        Printf.sprintf
          "    {\"engine\": %S, \"all_equal_as_bags\": %b,%s%s \"queries\": [\n\
           %s\n\
          \    ]}"
          (Engine.Bgp_eval.engine_name engine)
          !all_equal
          (String.concat ""
             (List.map
                (fun (d, aggregate) ->
                  Printf.sprintf " \"aggregate_speedup_d%d\": %.3f," d
                    aggregate)
                aggregates))
          (String.concat ""
             (List.map
                (fun (d, acc) ->
                  let c = !acc in
                  Printf.sprintf
                    " \"counters_d%d\": {\"morsels\": %d, \"steals\": %d, \
                     \"stops\": %d},"
                    d c.Engine.Pool.morsels c.Engine.Pool.steals
                    c.Engine.Pool.stops)
                counters))
          (String.concat ",\n" (List.rev !rows_json)))
      [ Engine.Bgp_eval.Wco; Engine.Bgp_eval.Hash_join ]
  in
  (* Cross-domain early termination, measured: a streamed LIMIT 10 over a
     chain join at max domains must scan far fewer rows than the same
     query without LIMIT (which pays both full steps). [pushed_rows]
     counts every produced row under the run's ticket. *)
  let early_termination =
    let n = 1000 in
    let chain =
      List.concat
        (List.init n (fun i ->
             [
               Rdf.Triple.make
                 (Rdf.Term.iri (Printf.sprintf "http://b/s%d" i))
                 (Rdf.Term.iri "http://b/p0")
                 (Rdf.Term.iri (Printf.sprintf "http://b/m%d" i));
               Rdf.Triple.make
                 (Rdf.Term.iri (Printf.sprintf "http://b/m%d" i))
                 (Rdf.Term.iri "http://b/p1")
                 (Rdf.Term.iri (Printf.sprintf "http://b/o%d" i));
             ]))
    in
    let chain_store = Rdf_store.Triple_store.of_triples chain in
    let text = "SELECT * WHERE { ?x <http://b/p0> ?y . ?y <http://b/p1> ?z }" in
    let run text =
      let report =
        Sparql_uo.Executor.run ~mode:Sparql_uo.Executor.Base
          ~engine:Engine.Bgp_eval.Wco ~domains chain_store text
      in
      (report.Sparql_uo.Executor.pushed_rows, sched_counters report)
    in
    let full_rows, _ = run text in
    let streamed_rows, c = run (text ^ " LIMIT 10") in
    Printf.printf
      "early termination: streamed LIMIT 10 at domains=%d scanned %d rows \
       (full scan %d; stops=%d)\n\
       %!"
      domains streamed_rows full_rows c.Engine.Pool.stops;
    Printf.sprintf
      "  \"early_termination\": {\"query\": \"chain-limit10\", \"domains\": \
       %d, \"pushed_rows_full\": %d, \"pushed_rows_streamed\": %d, \
       \"stops\": %d, \"early\": %b},"
      domains full_rows streamed_rows c.Engine.Pool.stops
      (streamed_rows < full_rows)
  in
  let oc = open_out parallel_bench_file in
  Printf.fprintf oc
    "{\n\
    \  \"section\": \"parallel\",\n\
    \  \"dataset\": \"LUBM\",\n\
    \  \"mode\": \"full\",\n\
    \  \"recommended_domain_count\": %d,\n\
    \  \"peak_rss_mb\": %.1f,\n\
    \  \"major_collections\": %d,\n\
    \  \"domains\": [1%s],\n\
     %s\n\
    \  \"engines\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    (Domain.recommended_domain_count ())
    (float_of_int (Harness.peak_rss_kb ()) /. 1024.)
    (Harness.major_collections ())
    (String.concat ""
       (List.map (fun d -> Printf.sprintf ", %d" d) parallel_counts))
    early_termination
    (String.concat ",\n" json_engines);
  close_out oc;
  Printf.printf "[bench] wrote %s\n%!" parallel_bench_file

(* ------------------------------------------------------------------ *)
(* Plan cache: compile-once / execute-many amortization.               *)
(* ------------------------------------------------------------------ *)

(* Not a paper figure: measures the prepare/execute split. Each LUBM
   group-1 query runs once cold through a fresh session (parse, BE-tree
   construction, Algorithm-4 transformation, pattern compilation, and --
   for the first query -- the statistics scan) and then [cached_runs]
   more times against the session's plan cache; amortized is the mean of
   the cached runs, which pay only evaluation. Result counts of every
   run must match a fresh one-shot [Executor.run]. *)
let plan_cache_bench_file = "bench_plan_cache.json"

let plan_cache ctx =
  Harness.section
    "Plan cache: cold prepare+execute vs cached re-execution (LUBM group 1, \
     full/WCO)";
  let store, _stats = Lazy.force ctx.lubm in
  let session = Sparql_uo.Session.create store in
  let cached_runs = 5 in
  (* Keep only scalars from each run: retaining the result bags across
     runs would grow the major heap and bias later timings. [Gc.major]
     settles the previous run's garbage before the clock starts. *)
  let time_run text =
    Gc.major ();
    let t0 = Unix.gettimeofday () in
    let report =
      Sparql_uo.Session.run ~mode:Sparql_uo.Executor.Full
        ~engine:Engine.Bgp_eval.Wco ~timeout_ms:ctx.config.Harness.timeout_ms
        ~row_budget:ctx.config.Harness.row_budget session text
    in
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    let hit =
      match report.Sparql_uo.Executor.cache with
      | Some c -> c.Sparql_uo.Executor.hit
      | None -> false
    in
    (ms, report.Sparql_uo.Executor.result_count, hit)
  in
  let rows_json = ref [] in
  let sum_first = ref 0. and sum_amortized = ref 0. in
  let rows =
    List.map
      (fun (entry : Workload.Queries.entry) ->
        let text = entry.Workload.Queries.text in
        let first_ms, count, _ = time_run text in
        let cached = List.init cached_runs (fun _ -> time_run text) in
        let cached_ms = List.map (fun (ms, _, _) -> ms) cached in
        let amortized =
          List.fold_left ( +. ) 0. cached_ms /. float_of_int cached_runs
        in
        let best = List.fold_left min first_ms cached_ms in
        let oneshot =
          Sparql_uo.Executor.run ~mode:Sparql_uo.Executor.Full
            ~engine:Engine.Bgp_eval.Wco
            ~timeout_ms:ctx.config.Harness.timeout_ms
            ~row_budget:ctx.config.Harness.row_budget store text
        in
        let counts_equal =
          count = oneshot.Sparql_uo.Executor.result_count
          && List.for_all (fun (_, c, _) -> c = count) cached
        in
        let all_hits = List.for_all (fun (_, _, hit) -> hit) cached in
        sum_first := !sum_first +. first_ms;
        sum_amortized := !sum_amortized +. amortized;
        rows_json :=
          Printf.sprintf
            "    {\"id\": %S, \"first_ms\": %.3f, \"amortized_ms\": %.3f, \
             \"best_ms\": %.3f, \"results\": %s, \"counts_equal\": %b}"
            entry.Workload.Queries.id first_ms amortized best
            (match count with Some n -> string_of_int n | None -> "null")
            counts_equal
          :: !rows_json;
        [
          entry.Workload.Queries.id;
          Printf.sprintf "%.2f" first_ms;
          Printf.sprintf "%.2f" amortized;
          Printf.sprintf "%.2f" best;
          (if amortized > 0. then Printf.sprintf "%.2fx" (first_ms /. amortized)
           else "-");
          (match count with Some n -> Harness.human_int n | None -> "OOM/t.o.");
          (if all_hits && counts_equal then "yes" else "NO");
        ])
      (Workload.Queries.group1 Workload.Queries.Lubm)
  in
  Harness.print_table
    ~header:
      [
        "Query"; "first (ms)"; "amortized (ms)"; "best (ms)"; "speedup";
        "results"; "hit+equal";
      ]
    ~rows;
  Printf.printf
    "aggregate: first %.1f ms, amortized %.1f ms (%.2fx); cache hits=%d \
     misses=%d evictions=%d, store epoch=%d\n%!"
    !sum_first !sum_amortized
    (if !sum_amortized > 0. then !sum_first /. !sum_amortized else 0.)
    (Sparql_uo.Session.hits session)
    (Sparql_uo.Session.misses session)
    (Sparql_uo.Session.evictions session)
    (Sparql_uo.Session.epoch session);
  let oc = open_out plan_cache_bench_file in
  Printf.fprintf oc
    "{\n\
    \  \"section\": \"plan_cache\",\n\
    \  \"dataset\": \"LUBM\",\n\
    \  \"mode\": \"full\",\n\
    \  \"engine\": \"wco\",\n\
    \  \"cached_runs\": %d,\n\
    \  \"hits\": %d,\n\
    \  \"misses\": %d,\n\
    \  \"evictions\": %d,\n\
    \  \"epoch\": %d,\n\
    \  \"sum_first_ms\": %.3f,\n\
    \  \"sum_amortized_ms\": %.3f,\n\
    \  \"queries\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    cached_runs
    (Sparql_uo.Session.hits session)
    (Sparql_uo.Session.misses session)
    (Sparql_uo.Session.evictions session)
    (Sparql_uo.Session.epoch session)
    !sum_first !sum_amortized
    (String.concat ",\n" (List.rev !rows_json));
  close_out oc;
  Printf.printf "[bench] wrote %s\n%!" plan_cache_bench_file

(* ------------------------------------------------------------------ *)
(* Robustness: governor overhead and kill latency.                     *)
(* ------------------------------------------------------------------ *)

let robustness_bench_file = "bench_robustness.json"

(* Nearest-rank percentile over a sorted array (small-n, bench-grade). *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let idx = int_of_float ((p /. 100. *. float_of_int (n - 1)) +. 0.5) in
    sorted.(max 0 (min (n - 1) idx))

let robustness ctx =
  Harness.section
    "Robustness: governed vs ungoverned overhead, and kill latency";
  let store, stats = Lazy.force ctx.lubm in
  (* Best-of-3 floor: the overhead ratio divides two small numbers, so it
     needs more noise suppression than the timing tables do. *)
  let reps = max 3 ctx.config.Harness.repetitions in
  let time_of report =
    report.Sparql_uo.Executor.transform_ms +. report.Sparql_uo.Executor.exec_ms
  in
  (* Overhead: interleaved best-of-N per query over the LUBM workload.
     The governed run arms a finite budget and a deadline generous enough
     never to fire, so the difference is pure accounting cost (the
     ungoverned run still charges its unlimited ticket; what's measured
     is the armed deadline/stride machinery). *)
  Harness.subsection "governed vs ungoverned (full/WCO, best-of-N)";
  let rows_json = ref [] in
  let ratios = ref [] in
  let rows =
    List.map
      (fun (entry : Workload.Queries.entry) ->
        let text = entry.Workload.Queries.text in
        let best_gov = ref infinity and best_ungov = ref infinity in
        let gov_count = ref None and ungov_count = ref None in
        let ok = ref true in
        for _ = 1 to reps do
          let governed =
            Sparql_uo.Executor.run ~row_budget:ctx.config.Harness.row_budget
              ~timeout_ms:ctx.config.Harness.timeout_ms ~stats store text
          in
          let ungoverned = Sparql_uo.Executor.run ~stats store text in
          (match governed.Sparql_uo.Executor.failure with
          | Some _ -> ok := false
          | None ->
              gov_count := governed.Sparql_uo.Executor.result_count;
              best_gov := min !best_gov (time_of governed));
          match ungoverned.Sparql_uo.Executor.failure with
          | Some _ -> ok := false
          | None ->
              ungov_count := ungoverned.Sparql_uo.Executor.result_count;
              best_ungov := min !best_ungov (time_of ungoverned)
        done;
        let agrees = !ok && !gov_count = !ungov_count in
        let ratio =
          if !ok && !best_ungov > 0. then Some (!best_gov /. !best_ungov)
          else None
        in
        Option.iter (fun r -> ratios := r :: !ratios) ratio;
        (* A killed side has no finite best time: null in the json. *)
        let js_ms v =
          if Float.is_finite v then Printf.sprintf "%.3f" v else "null"
        in
        rows_json :=
          Printf.sprintf
            "    {\"id\": %S, \"ungoverned_ms\": %s, \"governed_ms\": %s, \
             \"ratio\": %s, \"agrees\": %b}"
            entry.Workload.Queries.id (js_ms !best_ungov) (js_ms !best_gov)
            (match ratio with
            | Some r -> Printf.sprintf "%.4f" r
            | None -> "null")
            agrees
          :: !rows_json;
        let pr_ms v =
          if Float.is_finite v then Printf.sprintf "%.2f" v else "killed"
        in
        [
          entry.Workload.Queries.id;
          pr_ms !best_ungov;
          pr_ms !best_gov;
          (match ratio with
          | Some r -> Printf.sprintf "%.3fx" r
          | None -> "killed");
          (if agrees then "yes" else "NO");
        ])
      (Workload.Queries.all Workload.Queries.Lubm)
  in
  Harness.print_table
    ~header:[ "Query"; "ungoverned (ms)"; "governed (ms)"; "ratio"; "agrees" ]
    ~rows;
  let median_overhead =
    let sorted = Array.of_list !ratios in
    Array.sort compare sorted;
    percentile sorted 50.
  in
  Printf.printf "median overhead: %.4fx (target < 1.03x)\n%!" median_overhead;
  (* Kill latency. budget: time-to-fail with a budget far below the
     query's need; timeout: overshoot past the armed deadline; cancel:
     cancel-call-to-return across domains. The victim is a cross product
     whose completion is impossible at any bench scale. *)
  Harness.subsection "kill latency";
  let heavy = "SELECT * WHERE { ?a ?p ?b . ?x ?q ?y . }" in
  let session = Sparql_uo.Session.create store in
  let taxonomy_ok = ref true in
  let expect kind report want =
    if report.Sparql_uo.Executor.failure <> Some want then begin
      taxonomy_ok := false;
      Printf.printf "  !! %s kill reported %s\n%!" kind
        (match report.Sparql_uo.Executor.failure with
        | Some f -> Sparql_uo.Executor.failure_name f
        | None -> "no failure")
    end
  in
  let iters = if ctx.config.Harness.quick then 5 else 9 in
  let budget_lat =
    Array.init iters (fun _ ->
        let t0 = Unix.gettimeofday () in
        let r = Sparql_uo.Session.run ~row_budget:100_000 session heavy in
        expect "budget" r Sparql_uo.Executor.Out_of_budget;
        (Unix.gettimeofday () -. t0) *. 1000.)
  in
  let deadline_ms = 25. in
  let timeout_lat =
    Array.init iters (fun _ ->
        let t0 = Unix.gettimeofday () in
        let r = Sparql_uo.Session.run ~timeout_ms:deadline_ms session heavy in
        expect "timeout" r Sparql_uo.Executor.Timeout;
        Float.max 0. (((Unix.gettimeofday () -. t0) *. 1000.) -. deadline_ms))
  in
  let cancel_lat =
    Array.init iters (fun _ ->
        let worker =
          Domain.spawn (fun () ->
              Sparql_uo.Session.run ~row_budget:500_000_000 session heavy)
        in
        while Sparql_uo.Session.active_runs session = 0 do
          Unix.sleepf 0.0005
        done;
        Unix.sleepf 0.005;
        let t0 = Unix.gettimeofday () in
        ignore (Sparql_uo.Session.cancel session);
        let r = Domain.join worker in
        expect "cancel" r Sparql_uo.Executor.Cancelled;
        (Unix.gettimeofday () -. t0) *. 1000.)
  in
  let stats_of lat =
    let sorted = Array.copy lat in
    Array.sort compare sorted;
    (percentile sorted 50., percentile sorted 95., percentile sorted 100.)
  in
  let kill_rows, kill_json =
    List.split
      (List.map
         (fun (kind, lat) ->
           let p50, p95, mx = stats_of lat in
           ( [
               kind;
               Printf.sprintf "%.2f" p50;
               Printf.sprintf "%.2f" p95;
               Printf.sprintf "%.2f" mx;
             ],
             Printf.sprintf
               "    \"%s\": {\"p50\": %.3f, \"p95\": %.3f, \"max\": %.3f}"
               kind p50 p95 mx ))
         [ ("budget", budget_lat); ("timeout", timeout_lat);
           ("cancel", cancel_lat) ])
  in
  Harness.print_table
    ~header:[ "kill"; "p50 (ms)"; "p95 (ms)"; "max (ms)" ]
    ~rows:kill_rows;
  Printf.printf "failure taxonomy: %s\n%!"
    (if !taxonomy_ok then "all kills reported their own cause"
     else "MISMATCH (see above)");
  let oc = open_out robustness_bench_file in
  Printf.fprintf oc
    "{\n\
    \  \"section\": \"robustness\",\n\
    \  \"dataset\": \"LUBM\",\n\
    \  \"mode\": \"full\",\n\
    \  \"engine\": \"wco\",\n\
    \  \"repetitions\": %d,\n\
    \  \"median_overhead\": %.4f,\n\
    \  \"taxonomy_ok\": %b,\n\
    \  \"queries\": [\n\
     %s\n\
    \  ],\n\
    \  \"kill_latency_ms\": {\n\
     %s\n\
    \  }\n\
     }\n"
    reps median_overhead !taxonomy_ok
    (String.concat ",\n" (List.rev !rows_json))
    (String.concat ",\n" kill_json);
  close_out oc;
  Printf.printf "[bench] wrote %s\n%!" robustness_bench_file

(* ------------------------------------------------------------------ *)
(* Serving: concurrent readers + a writer over one MVCC session.       *)
(* ------------------------------------------------------------------ *)

let serving_bench_file = "bench_serving.json"

let serving ctx ~domains =
  let readers = max 2 (domains - 1) in
  Harness.section
    (Printf.sprintf
       "Serving: %d reader domains + 1 writer, skewed 95/5 mix (LUBM group 1, \
        full/WCO)"
       readers);
  let store, _stats = Lazy.force ctx.lubm in
  (* A small compaction threshold so the run also exercises delta folds
     (and the plan-cache invalidation they imply) under live readers. *)
  let session = Sparql_uo.Session.create ~compact_threshold:8 store in
  let entries =
    Array.of_list (Workload.Queries.group1 Workload.Queries.Lubm)
  in
  let nq = Array.length entries in
  let run_one qi =
    Sparql_uo.Session.run ~mode:Sparql_uo.Executor.Full
      ~engine:Engine.Bgp_eval.Wco ~row_budget:ctx.config.Harness.row_budget
      ~timeout_ms:ctx.config.Harness.timeout_ms session
      entries.(qi).Workload.Queries.text
  in
  (* Baseline counts from a quiescent pre-pass (this also primes the
     cache, as a server warm-up would). The writer's triples use a
     private predicate, so every concurrent read must keep returning
     exactly these counts — the isolation check of the bench. *)
  let expected =
    Array.init nq (fun qi -> (run_one qi).Sparql_uo.Executor.result_count)
  in
  (* Zipf-ish skew over the query mix: query i drawn with weight
     1/(i+1)^2, so a handful of plans take almost all the traffic. *)
  let weights = Array.init nq (fun i -> 1. /. float_of_int ((i + 1) * (i + 1))) in
  let total_weight = Array.fold_left ( +. ) 0. weights in
  let pick rnd =
    let x = Random.State.float rnd total_weight in
    let rec go i acc =
      if i >= nq - 1 then i
      else
        let acc = acc +. weights.(i) in
        if x < acc then i else go (i + 1) acc
    in
    go 0 0.
  in
  let reader_ops = if ctx.config.Harness.quick then 120 else 500 in
  let finished = Atomic.make 0 in
  let reads_done = Atomic.make 0 in
  let reader idx =
    let rnd = Random.State.make [| 0x5e71; idx |] in
    let lats = Array.make reader_ops 0. in
    let ok = ref true in
    for k = 0 to reader_ops - 1 do
      let qi = pick rnd in
      let t0 = Unix.gettimeofday () in
      let report = run_one qi in
      lats.(k) <- (Unix.gettimeofday () -. t0) *. 1000.;
      if report.Sparql_uo.Executor.result_count <> expected.(qi) then ok := false;
      Atomic.incr reads_done
    done;
    Atomic.incr finished;
    (lats, !ok)
  in
  let serving_term i kind =
    Rdf.Term.iri (Printf.sprintf "http://serving/%s%d" kind i)
  in
  let writer_triple i =
    Rdf.Triple.make (serving_term i "s")
      (Rdf.Term.iri "http://serving/p")
      (serving_term i "o")
  in
  (* The writer paces small transactions (insert, occasionally delete an
     earlier row) off reader progress: it only commits while commits
     stay below 5% of completed reads, which holds the 95/5 op mix
     regardless of how slow or fast the read leg happens to be. *)
  let writer () =
    let i = ref 0 in
    let commits = ref 0 in
    while Atomic.get finished < readers do
      if !commits * 19 < Atomic.get reads_done then begin
        incr i;
        let txn = Sparql_uo.Session.begin_txn session in
        Rdf_store.Mvcc.insert txn (writer_triple !i);
        if !i mod 3 = 0 then Rdf_store.Mvcc.delete txn (writer_triple (!i - 1));
        Sparql_uo.Session.commit session txn;
        incr commits
      end
      else Unix.sleepf 0.001
    done;
    !commits
  in
  let base_epoch0 = Rdf_store.Triple_store.epoch (Sparql_uo.Session.store session) in
  let t0 = Unix.gettimeofday () in
  let writer_domain = Domain.spawn writer in
  let reader_domains = List.init readers (fun i -> Domain.spawn (fun () -> reader i)) in
  let results = List.map Domain.join reader_domains in
  let commits = Domain.join writer_domain in
  let wall_s = Unix.gettimeofday () -. t0 in
  let counts_ok = List.for_all snd results in
  let all_lats = Array.concat (List.map fst results) in
  Array.sort compare all_lats;
  let total_reads = Array.length all_lats in
  let qps = float_of_int total_reads /. wall_s in
  let p50 = percentile all_lats 50.
  and p95 = percentile all_lats 95.
  and p99 = percentile all_lats 99. in
  let hits = Sparql_uo.Session.hits session
  and misses = Sparql_uo.Session.misses session in
  let hit_rate = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  let write_fraction =
    float_of_int commits /. float_of_int (max 1 (commits + total_reads))
  in
  let compacted =
    Rdf_store.Triple_store.epoch (Sparql_uo.Session.store session)
    <> base_epoch0
  in
  Harness.print_table
    ~header:
      [ "readers"; "reads"; "commits"; "qps"; "p50 (ms)"; "p95 (ms)";
        "p99 (ms)" ]
    ~rows:
      [
        [
          string_of_int readers;
          string_of_int total_reads;
          string_of_int commits;
          Printf.sprintf "%.0f" qps;
          Printf.sprintf "%.2f" p50;
          Printf.sprintf "%.2f" p95;
          Printf.sprintf "%.2f" p99;
        ];
      ];
  Printf.printf
    "cache: hits=%d misses=%d (hit rate %.3f, target > 0.9); write fraction \
     %.3f; counts %s; compaction %s\n%!"
    hits misses hit_rate write_fraction
    (if counts_ok then "stable under writes" else "DIVERGED")
    (if compacted then "occurred" else "not reached");
  let oc = open_out serving_bench_file in
  Printf.fprintf oc
    "{\n\
    \  \"section\": \"serving\",\n\
    \  \"dataset\": \"LUBM\",\n\
    \  \"mode\": \"full\",\n\
    \  \"engine\": \"wco\",\n\
    \  \"readers\": %d,\n\
    \  \"reader_ops\": %d,\n\
    \  \"total_reads\": %d,\n\
    \  \"writer_commits\": %d,\n\
    \  \"write_fraction\": %.4f,\n\
    \  \"wall_s\": %.3f,\n\
    \  \"qps\": %.1f,\n\
    \  \"p50_ms\": %.3f,\n\
    \  \"p95_ms\": %.3f,\n\
    \  \"p99_ms\": %.3f,\n\
    \  \"hits\": %d,\n\
    \  \"misses\": %d,\n\
    \  \"hit_rate\": %.4f,\n\
    \  \"counts_ok\": %b,\n\
    \  \"compacted\": %b,\n\
    \  \"peak_rss_mb\": %.1f,\n\
    \  \"major_collections\": %d\n\
     }\n"
    readers reader_ops total_reads commits write_fraction wall_s qps p50 p95
    p99 hits misses hit_rate counts_ok compacted
    (float_of_int (Harness.peak_rss_kb ()) /. 1024.)
    (Harness.major_collections ());
  close_out oc;
  Printf.printf "[bench] wrote %s\n%!" serving_bench_file

(* ------------------------------------------------------------------ *)
(* Durability: WAL commit latency per sync policy, group commit,       *)
(* recovery time.                                                      *)
(* ------------------------------------------------------------------ *)

(* Not a paper figure: measures what write-ahead logging costs the
   commit path and what recovery costs a restart. Per sync policy
   (in-memory baseline, never, interval:5ms, every-commit): p50/p95/p99
   single-triple commit latency and fsync accounting. Then group commit
   under 4 concurrent committer domains (batch sizes, syncs vs
   commits), and recovery: reopening the every-commit directory replays
   its full log (CI gates on replayed counts and on the recovered
   store matching the committed one), and a checkpointed directory
   recovers with zero replay. *)
let durability_bench_file = "bench_durability.json"

let durability ctx =
  Harness.section
    "Durability: commit latency per sync policy, group commit, recovery";
  let n = if ctx.config.Harness.quick then 200 else 1000 in
  let dur_term i kind =
    Rdf.Term.iri (Printf.sprintf "http://dur/%s%d" kind i)
  in
  let dur_triple i =
    Rdf.Triple.make (dur_term i "s") (Rdf.Term.iri "http://dur/p")
      (dur_term i "o")
  in
  let commit_one t i =
    let txn = Rdf_store.Mvcc.begin_txn t in
    Rdf_store.Mvcc.insert txn (dur_triple i);
    ignore (Rdf_store.Mvcc.commit txn)
  in
  let fresh_dir tag =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "spuo_bench_dur_%d_%s" (Unix.getpid ()) tag)
    in
    let rec rm_rf path =
      match Sys.is_directory path with
      | true ->
          Array.iter
            (fun f -> rm_rf (Filename.concat path f))
            (Sys.readdir path);
          Unix.rmdir path
      | false -> Sys.remove path
      | exception Sys_error _ -> ()
    in
    rm_rf d;
    d
  in
  (* One policy leg: n sequential single-triple commits, per-commit
     latency distribution plus the WAL's fsync accounting. *)
  let run_policy (name, mk) =
    let t = mk () in
    let lats = Array.make n 0. in
    for i = 0 to n - 1 do
      let t0 = Unix.gettimeofday () in
      commit_one t i;
      lats.(i) <- (Unix.gettimeofday () -. t0) *. 1000.
    done;
    Option.iter Rdf_store.Wal.sync (Rdf_store.Mvcc.wal t);
    Array.sort compare lats;
    let stats =
      match Rdf_store.Mvcc.wal t with
      | Some w -> Rdf_store.Wal.stats w
      | None ->
          {
            Rdf_store.Wal.commits = n; syncs = 0; batched_commits = 0;
            max_batch = 0; checkpoints = 0; appended_bytes = 0; segment = 0;
          }
    in
    (name, t, lats, stats)
  in
  let every_commit_dir = fresh_dir "every_commit" in
  let legs =
    List.map run_policy
      [
        ( "memory",
          fun () -> Rdf_store.Mvcc.create (Rdf_store.Triple_store.of_triples []) );
        ( "never",
          fun () ->
            fst (Rdf_store.Mvcc.open_dir ~policy:Rdf_store.Wal.Never
                   (fresh_dir "never")) );
        ( "interval_5ms",
          fun () ->
            fst
              (Rdf_store.Mvcc.open_dir
                 ~policy:(Rdf_store.Wal.Interval 0.005)
                 (fresh_dir "interval")) );
        ( "every_commit",
          fun () ->
            fst
              (Rdf_store.Mvcc.open_dir ~policy:Rdf_store.Wal.Every_commit
                 every_commit_dir) );
      ]
  in
  Harness.print_table
    ~header:
      [ "policy"; "commits"; "p50 (ms)"; "p95 (ms)"; "p99 (ms)"; "fsyncs";
        "max batch" ]
    ~rows:
      (List.map
         (fun (name, _t, lats, s) ->
           [
             name;
             string_of_int s.Rdf_store.Wal.commits;
             Printf.sprintf "%.4f" (percentile lats 50.);
             Printf.sprintf "%.4f" (percentile lats 95.);
             Printf.sprintf "%.4f" (percentile lats 99.);
             string_of_int s.Rdf_store.Wal.syncs;
             string_of_int s.Rdf_store.Wal.max_batch;
           ])
         legs);
  let p50_of name =
    let _, _, lats, _ = List.find (fun (n', _, _, _) -> n' = name) legs in
    percentile lats 50.
  in
  let overhead =
    p50_of "every_commit" /. Float.max 1e-6 (p50_of "memory")
  in
  Printf.printf
    "every-commit p50 overhead vs in-memory: %.1fx (the fsync; never-policy \
     %.1fx is the append)\n%!"
    overhead
    (p50_of "never" /. Float.max 1e-6 (p50_of "memory"));
  (* Group commit: 4 committer domains race under every-commit; one
     leader's fsync covers whole batches. *)
  let gc_dir = fresh_dir "group" in
  let gc, _ =
    Rdf_store.Mvcc.open_dir ~policy:Rdf_store.Wal.Every_commit gc_dir
  in
  let per_domain = n / 4 in
  let t0 = Unix.gettimeofday () in
  let workers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              commit_one gc ((d * n) + i)
            done))
  in
  List.iter Domain.join workers;
  let gc_wall_s = Unix.gettimeofday () -. t0 in
  let gs =
    match Rdf_store.Mvcc.wal gc with
    | Some w -> Rdf_store.Wal.stats w
    | None -> assert false
  in
  Printf.printf
    "group commit (4 domains, %d commits): %.0f commits/s, %d fsyncs for %d \
     commits (max batch %d)\n%!"
    gs.Rdf_store.Wal.commits
    (float_of_int gs.Rdf_store.Wal.commits /. gc_wall_s)
    gs.Rdf_store.Wal.syncs gs.Rdf_store.Wal.batched_commits
    gs.Rdf_store.Wal.max_batch;
  (* Recovery: reopen the every-commit directory — its whole log
     replays — then checkpoint and reopen again for the zero-replay
     floor. The recovered store must hold exactly the committed
     triples. *)
  let committed_size =
    let _, t, _, _ =
      List.find (fun (n', _, _, _) -> n' = "every_commit") legs
    in
    Rdf_store.Snapshot.size (Rdf_store.Mvcc.snapshot t)
  in
  let recovered, recovery = Rdf_store.Mvcc.open_dir every_commit_dir in
  let recovered_size =
    Rdf_store.Snapshot.size (Rdf_store.Mvcc.snapshot recovered)
  in
  let counts_ok = recovered_size = committed_size && recovered_size = n in
  ignore (Rdf_store.Mvcc.checkpoint recovered);
  let _, recovery_ckpt = Rdf_store.Mvcc.open_dir every_commit_dir in
  Harness.print_table
    ~header:
      [ "recovery"; "replayed txns"; "replayed ops"; "time (ms)";
        "us/txn" ]
    ~rows:
      [
        [
          "full log";
          string_of_int recovery.Rdf_store.Wal.replayed_txns;
          string_of_int recovery.Rdf_store.Wal.replayed_ops;
          Printf.sprintf "%.2f" recovery.Rdf_store.Wal.recovery_ms;
          Printf.sprintf "%.2f"
            (1000. *. recovery.Rdf_store.Wal.recovery_ms
            /. float_of_int (max 1 recovery.Rdf_store.Wal.replayed_txns));
        ];
        [
          "after checkpoint";
          string_of_int recovery_ckpt.Rdf_store.Wal.replayed_txns;
          string_of_int recovery_ckpt.Rdf_store.Wal.replayed_ops;
          Printf.sprintf "%.2f" recovery_ckpt.Rdf_store.Wal.recovery_ms;
          "-";
        ];
      ];
  Printf.printf "recovered store: %d triples (committed %d) — %s\n%!"
    recovered_size committed_size
    (if counts_ok then "exact" else "DIVERGED");
  let oc = open_out durability_bench_file in
  let policy_json (name, _t, lats, s) =
    Printf.sprintf
      "    { \"policy\": %S, \"commits\": %d, \"p50_ms\": %.5f, \"p95_ms\": \
       %.5f, \"p99_ms\": %.5f, \"fsyncs\": %d, \"batched_commits\": %d, \
       \"max_batch\": %d }"
      name s.Rdf_store.Wal.commits (percentile lats 50.)
      (percentile lats 95.) (percentile lats 99.) s.Rdf_store.Wal.syncs
      s.Rdf_store.Wal.batched_commits s.Rdf_store.Wal.max_batch
  in
  Printf.fprintf oc
    "{\n\
    \  \"section\": \"durability\",\n\
    \  \"txns\": %d,\n\
    \  \"policies\": [\n%s\n  ],\n\
    \  \"every_commit_overhead_x\": %.2f,\n\
    \  \"group_commit\": { \"domains\": 4, \"commits\": %d, \"wall_s\": \
     %.3f, \"commits_per_s\": %.1f, \"fsyncs\": %d, \"batched_commits\": \
     %d, \"max_batch\": %d },\n\
    \  \"recovery\": { \"replayed_txns\": %d, \"replayed_ops\": %d, \
     \"recovery_ms\": %.3f, \"truncated_bytes\": %d },\n\
    \  \"recovery_after_checkpoint\": { \"replayed_txns\": %d, \
     \"recovery_ms\": %.3f },\n\
    \  \"counts_ok\": %b,\n\
    \  \"peak_rss_mb\": %.1f\n\
     }\n"
    n
    (String.concat ",\n" (List.map policy_json legs))
    overhead gs.Rdf_store.Wal.commits gc_wall_s
    (float_of_int gs.Rdf_store.Wal.commits /. gc_wall_s)
    gs.Rdf_store.Wal.syncs gs.Rdf_store.Wal.batched_commits
    gs.Rdf_store.Wal.max_batch recovery.Rdf_store.Wal.replayed_txns
    recovery.Rdf_store.Wal.replayed_ops recovery.Rdf_store.Wal.recovery_ms
    recovery.Rdf_store.Wal.truncated_bytes
    recovery_ckpt.Rdf_store.Wal.replayed_txns
    recovery_ckpt.Rdf_store.Wal.recovery_ms counts_ok
    (float_of_int (Harness.peak_rss_kb ()) /. 1024.);
  close_out oc;
  Printf.printf "[bench] wrote %s\n%!" durability_bench_file

(* ------------------------------------------------------------------ *)
(* Scale: off-heap compressed columns — bulk load, memory, latency.    *)
(* ------------------------------------------------------------------ *)

(* Not a paper figure: measures the off-heap columnar storage layer at
   the old and the new default LUBM scale. Per scale: parallel bulk-load
   throughput, off-heap bytes/triple for the compressed (delta) and
   uncompressed (raw) representations against the previous OCaml-heap
   baseline, peak RSS, star/path query latencies per engine on the
   compressed build, and count equality compressed-vs-raw across both
   engines (the correctness gate CI asserts on). *)
let scale_bench_file = "bench_scale.json"

(* The pre-columnar representation held each index as OCaml int arrays:
   3 key words per triple per 3 effective payload arrays — 9 words,
   72 bytes/triple across the six permutations. *)
let heap_baseline_bytes_per_triple = 72.

let scale ctx ~domains =
  Harness.section
    (Printf.sprintf
       "Scale: off-heap compressed columns (bulk load over %d domain(s))"
       domains);
  if domains > 1 then
    Option.iter Engine.Pool.install_bulk_runner
      (Engine.Pool.ensure ~num_domains:domains);
  let scales =
    if ctx.config.Harness.quick then [ (1, 0.5); (4, 0.5) ]
    else [ (13, 1.0); (130, 1.0) ]
  in
  let prefixes =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n\
     PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
  in
  (* One multiway star and one cyclic path query; their constants exist
     at every scale (University0 floors). *)
  let queries =
    [
      ( "star-alumni",
        "SELECT * WHERE { ?x ub:undergraduateDegreeFrom \
         <http://www.University0.edu>. ?x ub:mastersDegreeFrom \
         <http://www.University0.edu>. ?x rdf:type ub:FullProfessor. }" );
      ( "path-advisor",
        "SELECT * WHERE { ?x ub:advisor ?y. ?y ub:teacherOf ?z. ?x \
         ub:takesCourse ?z. }" );
    ]
  in
  let gc0 = Harness.major_collections () in
  let scale_jsons =
    List.map
      (fun (universities, density) ->
        let config = { Workload.Lubm.default with universities; density } in
        let produce f = Workload.Lubm.iter_triples config ~f in
        let delta_store =
          Rdf_store.Triple_store.of_iter ~mode:Rdf_store.Column.Delta produce
        in
        let ls = Rdf_store.Triple_store.load_stats delta_store in
        let n = Rdf_store.Triple_store.size delta_store in
        let delta_bytes = Rdf_store.Triple_store.mem_bytes delta_store in
        let per_triple bytes =
          if n > 0 then float_of_int bytes /. float_of_int n else 0.
        in
        (* The uncompressed build exists only long enough to compare
           memory and result counts; it is dropped before the latency
           runs so peak RSS reflects one store per scale plus the
           comparison window. *)
        let raw_bytes, counts_equal =
          let raw_store =
            Rdf_store.Triple_store.of_iter ~mode:Rdf_store.Column.Raw produce
          in
          let equal =
            List.for_all
              (fun engine ->
                List.for_all
                  (fun (_, text) ->
                    let count store =
                      (Sparql_uo.Executor.run ~mode:Sparql_uo.Executor.Base
                         ~engine store (prefixes ^ text))
                        .Sparql_uo.Executor.result_count
                    in
                    let cd = count delta_store and cr = count raw_store in
                    cd <> None && cd = cr)
                  queries)
              [ Engine.Bgp_eval.Wco; Engine.Bgp_eval.Hash_join ]
          in
          (Rdf_store.Triple_store.mem_bytes raw_store, equal)
        in
        let stats = Rdf_store.Stats.cached delta_store in
        let query_jsons =
          List.concat_map
            (fun engine ->
              List.map
                (fun (id, text) ->
                  let best = ref infinity and results = ref 0 in
                  for _ = 1 to max 2 ctx.config.Harness.repetitions do
                    let report =
                      Sparql_uo.Executor.run ~mode:Sparql_uo.Executor.Base
                        ~engine ~stats delta_store (prefixes ^ text)
                    in
                    let ms =
                      report.Sparql_uo.Executor.transform_ms
                      +. report.Sparql_uo.Executor.exec_ms
                    in
                    if ms < !best then best := ms;
                    results :=
                      Option.value ~default:0
                        report.Sparql_uo.Executor.result_count
                  done;
                  Printf.sprintf
                    "      {\"id\": %S, \"engine\": %S, \"ms\": %.3f, \
                     \"results\": %d}"
                    id
                    (Engine.Bgp_eval.engine_name engine)
                    !best !results)
                queries)
            [ Engine.Bgp_eval.Wco; Engine.Bgp_eval.Hash_join ]
        in
        let ratio = per_triple delta_bytes /. heap_baseline_bytes_per_triple in
        Harness.print_table
          ~header:
            [ "universities"; "triples"; "load (s)"; "triples/s"; "tasks";
              "B/triple delta"; "B/triple raw"; "vs heap"; "counts equal" ]
          ~rows:
            [
              [
                string_of_int universities;
                Harness.human_int n;
                Printf.sprintf "%.1f" ls.Rdf_store.Triple_store.elapsed_s;
                Harness.human_int
                  (int_of_float ls.Rdf_store.Triple_store.triples_per_sec);
                string_of_int ls.Rdf_store.Triple_store.parallel_tasks;
                Printf.sprintf "%.1f" (per_triple delta_bytes);
                Printf.sprintf "%.1f" (per_triple raw_bytes);
                Printf.sprintf "%.0f%%" (100. *. ratio);
                (if counts_equal then "yes" else "NO");
              ];
            ];
        Printf.sprintf
          "    {\"universities\": %d, \"density\": %.2f, \"triples\": %d,\n\
          \     \"load_s\": %.3f, \"triples_per_sec\": %.1f, \
           \"parallel_tasks\": %d,\n\
          \     \"mem_bytes_delta\": %d, \"mem_bytes_raw\": %d,\n\
          \     \"bytes_per_triple_delta\": %.2f, \"bytes_per_triple_raw\": \
           %.2f,\n\
          \     \"ratio_vs_heap\": %.4f, \"counts_equal\": %b,\n\
          \     \"peak_rss_mb\": %.1f,\n\
          \     \"queries\": [\n%s\n     ]}"
          universities density n ls.Rdf_store.Triple_store.elapsed_s
          ls.Rdf_store.Triple_store.triples_per_sec
          ls.Rdf_store.Triple_store.parallel_tasks delta_bytes raw_bytes
          (per_triple delta_bytes) (per_triple raw_bytes) ratio counts_equal
          (float_of_int (Harness.peak_rss_kb ()) /. 1024.)
          (String.concat ",\n" query_jsons))
      scales
  in
  let oc = open_out scale_bench_file in
  Printf.fprintf oc
    "{\n\
    \  \"section\": \"scale\",\n\
    \  \"dataset\": \"LUBM\",\n\
    \  \"domains\": %d,\n\
    \  \"heap_baseline_bytes_per_triple\": %.1f,\n\
    \  \"peak_rss_mb\": %.1f,\n\
    \  \"major_collections\": %d,\n\
    \  \"scales\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    domains heap_baseline_bytes_per_triple
    (float_of_int (Harness.peak_rss_kb ()) /. 1024.)
    (Harness.major_collections () - gc0)
    (String.concat ",\n" scale_jsons);
  close_out oc;
  Printf.printf "[bench] wrote %s\n%!" scale_bench_file

(* ------------------------------------------------------------------ *)
(* Adaptive execution: static full vs the adaptive layer.              *)
(* ------------------------------------------------------------------ *)

(* Not a paper figure: measures the adaptive execution layer against
   the paper's static Full configuration on every OPTIONAL-bearing
   benchmark query (full/WCO, serial). Both variants get one untimed
   warm-up and are then timed best-of-N; the adaptive warm-up also
   primes a per-query [Feedback.t] — the cross-execution learning a
   session's plan cache provides. Result counts must match per query.
   The count-pushdown subsection times the ungrouped-aggregate sink and
   checks each COUNT against the row count of the plain SELECT. *)
let adaptive_bench_file = "bench_adaptive.json"

let adaptive ctx =
  Harness.section
    "Adaptive execution: sideways prefilters + feedback vs static (full/WCO, \
     serial)";
  let contains_optional text =
    let n = String.length text and pat = "OPTIONAL" in
    let rec go i =
      i + String.length pat <= n
      && (String.sub text i (String.length pat) = pat || go (i + 1))
    in
    go 0
  in
  let run_once ?feedback ~adaptive ~stats store text =
    Sparql_uo.Executor.run ~mode:Sparql_uo.Executor.Full
      ~engine:Engine.Bgp_eval.Wco ~adaptive ?feedback
      ~row_budget:ctx.config.Harness.row_budget
      ~timeout_ms:ctx.config.Harness.timeout_ms ~stats store text
  in
  (* One untimed warm-up per side (the adaptive one primes feedback),
     then best-of-N on plan + execution time with the static and
     adaptive repetitions interleaved: back-to-back pairs cancel the
     slow drift of a shared host, which a
     time-all-of-one-then-all-of-the-other loop folds straight into the
     comparison. *)
  let time_pair ~feedback ~stats store text =
    let note (best, last) (report : Sparql_uo.Executor.report) =
      last := Some report;
      match report.Sparql_uo.Executor.failure with
      | Some _ -> ()
      | None ->
          let ms =
            report.Sparql_uo.Executor.transform_ms
            +. report.Sparql_uo.Executor.exec_ms
          in
          if !best = None || ms < Option.get !best then best := Some ms
    in
    let s_cell = (ref None, ref None) and a_cell = (ref None, ref None) in
    ignore (run_once ~adaptive:false ~stats store text);
    ignore (run_once ~feedback ~adaptive:true ~stats store text);
    for _ = 1 to max 2 ctx.config.Harness.repetitions do
      Gc.major ();
      note s_cell (run_once ~adaptive:false ~stats store text);
      Gc.major ();
      note a_cell (run_once ~feedback ~adaptive:true ~stats store text)
    done;
    let finish (best, last) = (!best, Option.get !last) in
    (finish s_cell, finish a_cell)
  in
  let query_jsons = ref [] in
  let static_total = ref 0. and adaptive_total = ref 0. in
  let counts_ok = ref true in
  List.iter
    (fun ds ->
      Harness.subsection (Workload.Queries.dataset_name ds);
      let store, stats = dataset_of ctx ds in
      let rows =
        List.filter_map
          (fun (entry : Workload.Queries.entry) ->
            if not (contains_optional entry.Workload.Queries.text) then None
            else begin
              let feedback = Sparql_uo.Feedback.create () in
              let (static_ms, static_report), (adaptive_ms, adaptive_report) =
                time_pair ~feedback ~stats store entry.Workload.Queries.text
              in
              (* Counts are comparable only when both runs finished; a
                 run killed by the quick-mode budget/timeout has nothing
                 to compare (and is not a divergence). *)
              let comparable, counts_equal =
                match
                  ( static_report.Sparql_uo.Executor.result_count,
                    adaptive_report.Sparql_uo.Executor.result_count )
                with
                | Some n1, Some n2 -> (true, n1 = n2)
                | _ -> (false, true)
              in
              if not counts_equal then counts_ok := false;
              let replans, checks, rejects, pruned =
                match adaptive_report.Sparql_uo.Executor.eval_stats with
                | Some s ->
                    let pf = s.Sparql_uo.Evaluator.prefilter in
                    ( s.Sparql_uo.Evaluator.replans,
                      pf.Engine.Candidates.checks,
                      pf.Engine.Candidates.rejects,
                      s.Sparql_uo.Evaluator.pruned_bgps )
                | None -> (0, 0, 0, 0)
              in
              let speedup =
                match (static_ms, adaptive_ms) with
                | Some s, Some a when a > 0. ->
                    static_total := !static_total +. s;
                    adaptive_total := !adaptive_total +. a;
                    Some (s /. a)
                | _ -> None
              in
              query_jsons :=
                Printf.sprintf
                  "    {\"dataset\": %S, \"id\": %S, \"static_ms\": %s, \
                   \"adaptive_ms\": %s, \"speedup\": %s, \"counts_equal\": \
                   %b, \"replans\": %d, \"prefilter_checks\": %d, \
                   \"prefilter_rejects\": %d, \"pruned_bgps\": %d, \
                   \"feedback_entries\": %d}"
                  (Workload.Queries.dataset_name ds)
                  entry.Workload.Queries.id
                  (match static_ms with
                  | Some ms -> Printf.sprintf "%.3f" ms
                  | None -> "null")
                  (match adaptive_ms with
                  | Some ms -> Printf.sprintf "%.3f" ms
                  | None -> "null")
                  (match speedup with
                  | Some x -> Printf.sprintf "%.3f" x
                  | None -> "null")
                  counts_equal replans checks rejects pruned
                  (Sparql_uo.Feedback.length feedback)
                :: !query_jsons;
              Some
                [
                  entry.Workload.Queries.id;
                  (match static_ms with
                  | Some ms -> Printf.sprintf "%.1f" ms
                  | None -> "limit");
                  (match adaptive_ms with
                  | Some ms -> Printf.sprintf "%.1f" ms
                  | None -> "limit");
                  (match speedup with
                  | Some x -> Printf.sprintf "%.2fx" x
                  | None -> "-");
                  Printf.sprintf "%d/%d" rejects checks;
                  string_of_int replans;
                  (if not comparable then "n/a"
                   else if counts_equal then "yes"
                   else "NO");
                ]
            end)
          (Workload.Queries.all ds)
      in
      Harness.print_table
        ~header:
          [ "Query"; "static (ms)"; "adaptive (ms)"; "speedup";
            "prefilter rej/chk"; "re-plans"; "counts equal" ]
        ~rows)
    [ Workload.Queries.Lubm; Workload.Queries.Dbpedia ];
  let overall =
    if !adaptive_total > 0. then !static_total /. !adaptive_total else 1.
  in
  (* Ungrouped-aggregate pushdown: COUNT without GROUP BY folds rows in
     the terminal aggregate sink. The gate checks each streamed COUNT
     against the row count of the same pattern run as a plain SELECT. *)
  Harness.subsection "ungrouped-aggregate pushdown (LUBM)";
  let store, stats = Lazy.force ctx.lubm in
  let prefixes =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
  in
  let takes = "{ ?x ub:takesCourse ?c }" in
  let count_queries =
    [
      ("count-takes", "(COUNT(*) AS ?n)", "*", takes);
      ("count-distinct", "(COUNT(DISTINCT ?c) AS ?n)", "DISTINCT ?c", takes);
      ( "count-optional",
        "(COUNT(*) AS ?n) (COUNT(?e) AS ?ne)",
        "*",
        "{ ?x ub:takesCourse ?c OPTIONAL { ?x ub:emailAddress ?e } }" );
    ]
  in
  let run text =
    Sparql_uo.Executor.run ~mode:Sparql_uo.Executor.Full ~stats store
      (prefixes ^ text)
  in
  let pushdown_jsons = ref [] in
  let pushdown_rows =
    List.map
      (fun (id, aggregates, selection, pattern) ->
        let count_text = Printf.sprintf "SELECT %s WHERE %s" aggregates pattern in
        let best = ref infinity and last = ref None in
        for _ = 1 to max 2 ctx.config.Harness.repetitions do
          Gc.major ();
          let report = run count_text in
          last := Some report;
          best :=
            Float.min !best
              (report.Sparql_uo.Executor.transform_ms
              +. report.Sparql_uo.Executor.exec_ms)
        done;
        let count =
          match Sparql_uo.Executor.solutions store (Option.get !last) with
          | [ solution ] -> (
              match List.assoc_opt "n" solution with
              | Some (Rdf.Term.Literal { value; _ }) -> int_of_string_opt value
              | _ -> None)
          | _ -> None
        in
        let rows =
          (run (Printf.sprintf "SELECT %s WHERE %s" selection pattern))
            .Sparql_uo.Executor.result_count
        in
        let equal = count <> None && count = rows in
        if not equal then counts_ok := false;
        let show = function Some n -> string_of_int n | None -> "null" in
        pushdown_jsons :=
          Printf.sprintf
            "    {\"id\": %S, \"streaming_ms\": %.3f, \"count\": %s, \
             \"select_rows\": %s, \"equal\": %b}"
            id !best (show count) (show rows) equal
          :: !pushdown_jsons;
        [
          id;
          Printf.sprintf "%.1f" !best;
          show count;
          show rows;
          (if equal then "yes" else "NO");
        ])
      count_queries
  in
  Harness.print_table
    ~header:[ "Query"; "streaming (ms)"; "COUNT"; "SELECT rows"; "equal" ]
    ~rows:pushdown_rows;
  Printf.printf "\noverall adaptive speedup: %.2fx; counts %s\n" overall
    (if !counts_ok then "equal" else "DIVERGED");
  let oc = open_out adaptive_bench_file in
  Printf.fprintf oc
    "{\n\
    \  \"section\": \"adaptive\",\n\
    \  \"mode\": \"full\",\n\
    \  \"engine\": \"wco\",\n\
    \  \"domains\": 1,\n\
    \  \"overall_speedup\": %.4f,\n\
    \  \"counts_ok\": %b,\n\
    \  \"queries\": [\n\
     %s\n\
    \  ],\n\
    \  \"count_pushdown\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    overall !counts_ok
    (String.concat ",\n" (List.rev !query_jsons))
    (String.concat ",\n" (List.rev !pushdown_jsons));
  close_out oc;
  Printf.printf "[bench] wrote %s\n%!" adaptive_bench_file

(* ------------------------------------------------------------------ *)

let run_sections quick only domains =
  let config = if quick then Harness.quick_config else Harness.default_config in
  let ctx =
    {
      config;
      lubm =
        lazy
          (build_store "LUBM" (fun f ->
               Workload.Lubm.iter_triples config.Harness.lubm ~f));
      dbpedia =
        lazy
          (build_store "DBpedia-like" (fun f ->
               List.iter f
                 (Workload.Dbpedia_gen.generate config.Harness.dbpedia)));
    }
  in
  let selected = if only = [] then all_sections else only in
  let dispatch = function
    | "table2" -> table2 ctx
    | "table3" -> table3 ctx
    | "table4" -> table4 ctx
    | "fig3" -> fig3 ctx
    | "fig10" -> fig10 ctx
    | "fig11" -> fig11 ctx
    | "fig12" -> fig12 ctx
    | "fig13" -> fig13 ctx
    | "ablation" -> ablation ctx
    | "micro" -> micro ctx
    | "parallel" -> parallel ctx ~domains
    | "plan_cache" -> plan_cache ctx
    | "robustness" -> robustness ctx
    | "serving" -> serving ctx ~domains
    | "durability" -> durability ctx
    | "scale" -> scale ctx ~domains
    | "adaptive" -> adaptive ctx
    | other -> Printf.eprintf "unknown section %S (skipped)\n" other
  in
  Printf.printf "SPARQL-UO reproduction bench (%s mode): %s\n%!"
    (if quick then "quick" else "full")
    (String.concat ", " selected);
  List.iter dispatch selected

let () =
  let quick = ref false in
  let only = ref [] in
  let domains = ref 4 in
  let spec =
    [
      ("--quick", Arg.Set quick, " reduced-scale smoke run");
      ( "--only",
        Arg.String (fun s -> only := !only @ [ s ]),
        "SECTION run one section (repeatable): "
        ^ String.concat "|" all_sections );
      ( "--domains",
        Arg.Set_int domains,
        "N domain count for the parallel section (default 4)" );
    ]
  in
  Arg.parse spec
    (fun anon -> raise (Arg.Bad ("unexpected argument " ^ anon)))
    "SPARQL-UO benchmark harness";
  run_sections !quick !only !domains
