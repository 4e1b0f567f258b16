(* sparql_uo_cli — command-line front end for the SPARQL-UO engine.

   Subcommands:
     generate   synthesize a LUBM or DBpedia-like dataset as N-Triples
     query      load data, execute a query, print solutions
     explain    show the BE-tree before/after cost-driven transformation
     modes      run a query under base/TT/CP/full and compare
*)

open Cmdliner

(* ---------------- shared options ---------------- *)

let data_arg =
  let doc = "N-Triples file to load." in
  Arg.(value & opt (some string) None & info [ "data" ] ~docv:"FILE.nt" ~doc)

let synth_arg =
  let doc =
    "Generate a synthetic dataset instead of loading one: lubm:tiny, \
     lubm:default, lubm:N (N universities), dbpedia:tiny, dbpedia:default."
  in
  Arg.(value & opt (some string) None & info [ "synth" ] ~docv:"SPEC" ~doc)

let query_file_arg =
  let doc = "File containing the SPARQL query." in
  Arg.(value & opt (some string) None & info [ "query" ] ~docv:"FILE.rq" ~doc)

let query_text_arg =
  let doc = "Inline SPARQL query text." in
  Arg.(value & opt (some string) None & info [ "text" ] ~docv:"SPARQL" ~doc)

let mode_arg =
  let modes =
    [ ("base", Sparql_uo.Executor.Base); ("tt", Sparql_uo.Executor.TT);
      ("cp", Sparql_uo.Executor.CP); ("full", Sparql_uo.Executor.Full) ]
  in
  let doc = "Execution mode: base, tt, cp or full." in
  Arg.(value & opt (enum modes) Sparql_uo.Executor.Full & info [ "mode" ] ~doc)

let engine_arg =
  let engines =
    [ ("wco", Engine.Bgp_eval.Wco); ("hash", Engine.Bgp_eval.Hash_join) ]
  in
  let doc = "BGP engine: wco (gStore-style) or hash (Jena-style)." in
  Arg.(value & opt (enum engines) Engine.Bgp_eval.Wco & info [ "engine" ] ~doc)

let max_print_arg =
  let doc = "Print at most this many solutions." in
  Arg.(value & opt int 20 & info [ "max-print" ] ~doc)

let timeout_arg =
  let doc = "Per-query timeout in milliseconds." in
  Arg.(value & opt (some float) None & info [ "timeout-ms" ] ~doc)

let budget_arg =
  let doc = "Intermediate-row budget (memory-limit analogue)." in
  Arg.(value & opt (some int) None & info [ "row-budget" ] ~doc)

let domains_arg =
  let doc =
    "Number of domains (OS-level cores) query evaluation may use; 1 \
     (default) is fully serial. With more, WCO extension steps, hash-join \
     probes and independent UNION branches run on a shared domain pool; \
     results are equal as bags, row order may differ."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let static_arg =
  let doc =
    "Disable the adaptive execution layer (sideways bitset prefilters into \
     OPTIONAL/MINUS subtrees, observed-cardinality feedback, per-node \
     engine selection): run the paper's static full configuration. Only \
     meaningful with --mode full; the other modes are always static."
  in
  Arg.(value & flag & info [ "static" ] ~doc)

let partial_arg =
  let doc =
    "When the query is killed by a limit, print the rows materialized \
     before the limit fired (marked as partial) instead of discarding \
     them. The exit code still reflects the failure."
  in
  Arg.(value & flag & info [ "partial" ] ~doc)

let repeat_arg =
  let doc =
    "Execute the query N times through one session. The first run \
     prepares the plan (parse, BE-tree, cost-driven transformation, \
     pattern compilation) and caches it; later runs hit the session plan \
     cache, so the summary separates first-run from amortized latency."
  in
  Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N" ~doc)

let data_dir_arg =
  let doc =
    "Durable store directory (write-ahead log + checkpoints). A fresh or \
     empty directory is initialized — seeded from --data/--synth when \
     given, empty otherwise. An existing directory is recovered by \
     replaying the committed prefix of its log over the last checkpoint \
     (--data/--synth must then be omitted). Commits are logged before \
     they publish and honor --sync. Exit code 24 means the directory \
     needs operator intervention (corrupt checkpoint, orphaned log)."
  in
  Arg.(value & opt (some string) None & info [ "data-dir" ] ~docv:"DIR" ~doc)

let sync_arg =
  let parse s =
    match s with
    | "never" -> Ok Rdf_store.Wal.Never
    | "every-commit" -> Ok Rdf_store.Wal.Every_commit
    | "interval" -> Ok (Rdf_store.Wal.Interval 0.05)
    | _ -> (
        match String.index_opt s ':' with
        | Some i when String.sub s 0 i = "interval" -> (
            let ms = String.sub s (i + 1) (String.length s - i - 1) in
            match float_of_string_opt ms with
            | Some ms when ms >= 0. -> Ok (Rdf_store.Wal.Interval (ms /. 1000.))
            | _ -> Error (`Msg (Printf.sprintf "bad sync interval %S" ms)))
        | _ -> Error (`Msg (Printf.sprintf "unknown sync policy %S" s)))
  in
  let print ppf = function
    | Rdf_store.Wal.Never -> Format.pp_print_string ppf "never"
    | Rdf_store.Wal.Every_commit -> Format.pp_print_string ppf "every-commit"
    | Rdf_store.Wal.Interval s -> Format.fprintf ppf "interval:%g" (s *. 1000.)
  in
  let doc =
    "Log sync policy for --data-dir: every-commit (default; fsync — group \
     commit — before each commit returns), interval[:MS] (fsync when MS \
     milliseconds passed since the last, default 50), or never (flush to \
     the OS only)."
  in
  Arg.(
    value
    & opt (conv (parse, print)) Rdf_store.Wal.Every_commit
    & info [ "sync" ] ~docv:"POLICY" ~doc)

(* ---------------- helpers ---------------- *)

(* Synthetic datasets are streamed ([of_iter]) rather than materialized:
   at the default LUBM scale the triple list would rival the store. *)
let parse_synth spec =
  let lubm config = Ok (fun f -> Workload.Lubm.iter_triples config ~f) in
  match String.split_on_char ':' spec with
  | [ "lubm"; "tiny" ] -> lubm Workload.Lubm.tiny
  | [ "lubm"; "default" ] -> lubm Workload.Lubm.default
  | [ "lubm"; n ] -> (
      match int_of_string_opt n with
      | Some n when n > 0 -> lubm (Workload.Lubm.scaled n)
      | _ -> Error (Printf.sprintf "bad university count %S" n))
  | [ "dbpedia"; "tiny" ] ->
      Ok
        (fun f ->
          List.iter f (Workload.Dbpedia_gen.generate Workload.Dbpedia_gen.tiny))
  | [ "dbpedia"; "default" ] ->
      Ok
        (fun f ->
          List.iter f
            (Workload.Dbpedia_gen.generate Workload.Dbpedia_gen.default))
  | _ -> Error (Printf.sprintf "unknown synth spec %S" spec)

(* Snapshot files are recognized by their magic bytes. *)
let is_snapshot path =
  match In_channel.with_open_bin path (fun ic -> really_input_string ic 4) with
  | "SPUO" -> true
  | _ -> false
  | exception End_of_file -> false

let load_store data synth =
  match (data, synth) with
  | Some path, None ->
      if not (Sys.file_exists path) then
        Error (Printf.sprintf "no such file: %s" path)
      else if is_snapshot path then Ok (Rdf_store.Snapshot.load path)
      else Ok (Rdf_store.Triple_store.load_ntriples path)
  | None, Some spec ->
      Result.map
        (fun produce -> Rdf_store.Triple_store.of_iter produce)
        (parse_synth spec)
  | Some _, Some _ -> Error "--data and --synth are mutually exclusive"
  | None, None -> Error "one of --data or --synth is required"

let load_query file text =
  match (file, text) with
  | Some path, None ->
      if Sys.file_exists path then Ok (In_channel.with_open_text path In_channel.input_all)
      else Error (Printf.sprintf "no such file: %s" path)
  | None, Some text -> Ok text
  | Some _, Some _ -> Error "--query and --text are mutually exclusive"
  | None, None -> Error "one of --query or --text is required"

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      exit 1

let print_triples triples =
  List.iter (fun t -> print_endline (Rdf.Triple.to_ntriples t)) triples

(* One exit code per failure-taxonomy case, so scripts (and the CI
   governance smoke test) can tell them apart without parsing output. *)
let exit_code_of_failure = function
  | Sparql_uo.Executor.Out_of_budget -> 20
  | Sparql_uo.Executor.Timeout -> 21
  | Sparql_uo.Executor.Cancelled -> 22
  | Sparql_uo.Executor.Injected_fault _ -> 23

(* Exit 24: the durable directory cannot be recovered without operator
   intervention — distinct from the query-failure codes above and from
   ordinary torn-tail truncation (which recovery handles silently). *)
let or_die_unrecoverable f =
  try f ()
  with Rdf_store.Wal.Unrecoverable msg ->
    prerr_endline ("unrecoverable: " ^ msg);
    exit 24

(* Open (or seed) a durable session. --data/--synth describe the initial
   contents, so they are only meaningful when the directory is being
   initialized; on a recovered directory they are rejected rather than
   silently ignored. *)
let open_durable ~policy ~data ~synth dir =
  let initialized =
    Sys.file_exists dir && Sys.is_directory dir
    && Array.exists
         (fun f ->
           String.starts_with ~prefix:"checkpoint." f
           || String.starts_with ~prefix:"wal." f)
         (Sys.readdir dir)
  in
  if initialized && (data <> None || synth <> None) then
    or_die
      (Error
         "--data/--synth seed a fresh --data-dir; this one is already \
          initialized (query it, or point at a new directory)");
  let init =
    if initialized || (data = None && synth = None) then None
    else Some (fun () -> or_die (load_store data synth))
  in
  let session, recovery =
    or_die_unrecoverable (fun () ->
        Sparql_uo.Session.open_dir ~policy ?init dir)
  in
  if recovery.Rdf_store.Wal.initialized then
    Printf.printf "initialized %s (%d triples)\n" dir
      (Rdf_store.Snapshot.size (Sparql_uo.Session.snapshot session))
  else
    Printf.printf
      "recovered %s: checkpoint %d + %d txn(s) (%d op(s)) replayed in %.2f \
       ms%s\n"
      dir recovery.Rdf_store.Wal.checkpoint_seq
      recovery.Rdf_store.Wal.replayed_txns recovery.Rdf_store.Wal.replayed_ops
      recovery.Rdf_store.Wal.recovery_ms
      (if recovery.Rdf_store.Wal.truncated_bytes > 0 then
         Printf.sprintf " (%d torn byte(s) truncated)"
           recovery.Rdf_store.Wal.truncated_bytes
       else "");
  session

let die_killed report =
  match report.Sparql_uo.Executor.failure with
  | Some f ->
      Printf.printf "-- killed: %s --\n" (Sparql_uo.Executor.failure_name f);
      Stdlib.exit (exit_code_of_failure f)
  | None -> ()

(* A partial run still exits with its failure's code, after the rows. *)
let exit_partial report =
  match report.Sparql_uo.Executor.partial with
  | Some f ->
      Printf.printf "-- partial result: killed by %s --\n"
        (Sparql_uo.Executor.failure_name f);
      Stdlib.exit (exit_code_of_failure f)
  | None -> ()

let print_solutions store report max_print =
  match report.Sparql_uo.Executor.result_count with
  | None -> die_killed report
  | Some n ->
      (match report.Sparql_uo.Executor.partial with
      | Some f ->
          Printf.printf "partial: %d row(s) before %s\n" n
            (Sparql_uo.Executor.failure_name f)
      | None ->
          Printf.printf "%d solution(s) in %.2f ms (+ %.2f ms planning)\n" n
            report.Sparql_uo.Executor.exec_ms
            report.Sparql_uo.Executor.transform_ms);
      let printed = ref 0 in
      List.iter
        (fun solution ->
          if !printed < max_print then begin
            incr printed;
            let env = Rdf.Namespace.with_defaults () in
            let cell (v, term) =
              Printf.sprintf "?%s = %s" v
                (match term with
                | Rdf.Term.Iri iri -> Rdf.Namespace.shrink env iri
                | t -> Rdf.Term.to_ntriples t)
            in
            print_endline (String.concat "  " (List.map cell solution))
          end)
        (Sparql_uo.Executor.solutions store report);
      if n > max_print then Printf.printf "... (%d more)\n" (n - max_print);
      (match report.Sparql_uo.Executor.partial with
      | Some f -> Stdlib.exit (exit_code_of_failure f)
      | None -> ())

(* ---------------- generate ---------------- *)

let generate_cmd =
  let out_arg =
    let doc = "Output N-Triples file." in
    Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let synth_req =
    let doc = "Dataset spec (see --synth of the query command)." in
    Arg.(required & opt (some string) None & info [ "synth" ] ~docv:"SPEC" ~doc)
  in
  let run spec out =
    let produce = or_die (parse_synth spec) in
    let n = ref 0 in
    Out_channel.with_open_text out (fun oc ->
        produce (fun t ->
            Out_channel.output_string oc (Rdf.Triple.to_ntriples t);
            Out_channel.output_char oc '\n';
            incr n));
    Printf.printf "wrote %d triples to %s\n" !n out
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesize a benchmark dataset as N-Triples")
    Term.(const run $ synth_req $ out_arg)

(* ---------------- query ---------------- *)

(* Run [text] [repeat] times through one session; returns the last report
   and prints a first-vs-amortized summary when repeating. *)
let session_runs session ~mode ~engine ~domains ~adaptive ?timeout_ms
    ?row_budget ?partial ~repeat text =
  if repeat < 1 then or_die (Error "--repeat must be at least 1");
  let run_once () =
    let t0 = Unix.gettimeofday () in
    let report =
      Sparql_uo.Session.run ~mode ~engine ~domains ~adaptive ?timeout_ms
        ?row_budget ?partial session text
    in
    ((Unix.gettimeofday () -. t0) *. 1000., report)
  in
  let first_ms, first_report = run_once () in
  let rest = List.init (repeat - 1) (fun _ -> run_once ()) in
  let report =
    match List.rev rest with (_, last) :: _ -> last | [] -> first_report
  in
  if repeat > 1 then begin
    let amortized =
      List.fold_left (fun acc (ms, _) -> acc +. ms) 0. rest
      /. float_of_int (List.length rest)
    in
    Printf.printf
      "repeat=%d: first run %.2f ms, amortized %.2f ms/run (plan cache \
       hits=%d misses=%d, store epoch=%d)\n"
      repeat first_ms amortized
      (Sparql_uo.Session.hits session)
      (Sparql_uo.Session.misses session)
      (Sparql_uo.Session.epoch session)
  end;
  report

(* With domains > 1, install the shared pool as the bulk loader's parallel
   runner so index builds fan out too. *)
let setup_build ~domains =
  if domains > 1 then
    Option.iter Engine.Pool.install_bulk_runner
      (Engine.Pool.ensure ~num_domains:domains)

let query_cmd =
  let run data synth data_dir sync qfile qtext mode engine max_print timeout_ms
      row_budget domains static partial repeat =
    setup_build ~domains;
    let text = or_die (load_query qfile qtext) in
    let session =
      match data_dir with
      | Some dir -> open_durable ~policy:sync ~data ~synth dir
      | None -> Sparql_uo.Session.create (or_die (load_store data synth))
    in
    let store = Sparql_uo.Session.store session in
    let report =
      session_runs session ~mode ~engine ~domains ~adaptive:(not static)
        ?timeout_ms ?row_budget ~partial ~repeat text
    in
    match report.Sparql_uo.Executor.query.Sparql.Ast.form with
    | Sparql.Ast.Select _ -> print_solutions store report max_print
    | Sparql.Ast.Ask -> (
        match Sparql_uo.Executor.ask report with
        | Some answer -> print_endline (string_of_bool answer)
        | None -> die_killed report)
    | Sparql.Ast.Construct _ ->
        die_killed report;
        print_triples (Sparql_uo.Executor.construct store report);
        exit_partial report
    | Sparql.Ast.Describe _ ->
        die_killed report;
        print_triples (Sparql_uo.Executor.describe store report);
        exit_partial report
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Execute a SPARQL query (SELECT, ASK, CONSTRUCT or DESCRIBE)")
    Term.(
      const run $ data_arg $ synth_arg $ data_dir_arg $ sync_arg
      $ query_file_arg $ query_text_arg $ mode_arg $ engine_arg $ max_print_arg
      $ timeout_arg $ budget_arg $ domains_arg $ static_arg $ partial_arg
      $ repeat_arg)

(* ---------------- explain ---------------- *)

let explain_cmd =
  let run data synth qfile qtext mode engine static repeat =
    let store = or_die (load_store data synth) in
    let text = or_die (load_query qfile qtext) in
    let session = Sparql_uo.Session.create store in
    let report =
      session_runs session ~mode ~engine ~domains:1 ~adaptive:(not static)
        ~repeat text
    in
    print_string (Sparql_uo.Executor.explain report)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show the BE-tree before and after cost-driven transformation \
             (with --repeat N, the Nth run's plan-cache hit/miss provenance; \
             in adaptive full mode, per-node estimated vs actual rows and \
             chosen engine)")
    Term.(
      const run $ data_arg $ synth_arg $ query_file_arg $ query_text_arg
      $ mode_arg $ engine_arg $ static_arg $ repeat_arg)

(* ---------------- modes ---------------- *)

let modes_cmd =
  let run data synth qfile qtext engine timeout_ms row_budget domains static =
    setup_build ~domains;
    let store = or_die (load_store data synth) in
    let text = or_die (load_query qfile qtext) in
    (* One session across the four modes: statistics are computed once and
       each mode gets its own plan-cache entry. *)
    let session = Sparql_uo.Session.create store in
    Printf.printf "%-6s %-10s %-12s %-12s\n" "mode" "results" "plan (ms)"
      "exec (ms)";
    List.iter
      (fun mode ->
        let report =
          Sparql_uo.Session.run ~mode ~engine ~domains ~adaptive:(not static)
            ?timeout_ms ?row_budget session text
        in
        Printf.printf "%-6s %-10s %-12.2f %-12.2f\n"
          (Sparql_uo.Executor.mode_name mode)
          (match
             (report.Sparql_uo.Executor.result_count,
              report.Sparql_uo.Executor.failure)
           with
          | Some n, _ -> string_of_int n
          | None, Some f -> Sparql_uo.Executor.failure_name f
          | None, None -> "none")
          report.Sparql_uo.Executor.transform_ms
          report.Sparql_uo.Executor.exec_ms)
      Sparql_uo.Executor.all_modes
  in
  Cmd.v
    (Cmd.info "modes" ~doc:"Compare base/TT/CP/full on one query")
    Term.(
      const run $ data_arg $ synth_arg $ query_file_arg $ query_text_arg
      $ engine_arg $ timeout_arg $ budget_arg $ domains_arg $ static_arg)

(* ---------------- update ---------------- *)

let update_cmd =
  let update_text_arg =
    let doc = "Inline SPARQL Update text." in
    Arg.(value & opt (some string) None & info [ "text" ] ~docv:"UPDATE" ~doc)
  in
  let update_file_arg =
    let doc = "File containing the SPARQL Update request." in
    Arg.(value & opt (some string) None & info [ "update" ] ~docv:"FILE.ru" ~doc)
  in
  let out_arg =
    let doc =
      "Where to write the updated store: a .nt file (N-Triples) or \
       anything else (binary snapshot). Required without --data-dir; \
       optional with it (the directory itself is the durable result)."
    in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let write_out store out =
    if Filename.check_suffix out ".nt" then begin
      let acc = ref [] in
      Rdf_store.Triple_store.iter_all store ~f:(fun ~s ~p ~o ->
          acc :=
            Rdf.Triple.make
              (Rdf_store.Triple_store.decode_term store s)
              (Rdf_store.Triple_store.decode_term store p)
              (Rdf_store.Triple_store.decode_term store o)
            :: !acc);
      Rdf.Ntriples.write_file out (List.rev !acc)
    end
    else Rdf_store.Snapshot.save store out
  in
  let run data synth data_dir sync ufile utext out =
    let text = or_die (load_query ufile utext) in
    match data_dir with
    | Some dir ->
        (* Transactional path: one WAL-logged transaction per operation,
           committed against the directory's lineage. *)
        let session = open_durable ~policy:sync ~data ~synth dir in
        Sparql_uo.Update_exec.run_session session text;
        Sparql_uo.Session.sync session;
        (match out with
        | Some out ->
            (* Fold the delta down so the snapshot file describes a full
               base (this doubles as a checkpoint of the directory). *)
            Sparql_uo.Session.checkpoint session;
            write_out (Sparql_uo.Session.store session) out
        | None -> ());
        Printf.printf "updated store: %d triples (durable in %s)\n"
          (Rdf_store.Snapshot.size (Sparql_uo.Session.snapshot session))
          dir
    | None ->
        let out =
          match out with
          | Some out -> out
          | None -> or_die (Error "--out is required without --data-dir")
        in
        let session = Sparql_uo.Session.create (or_die (load_store data synth)) in
        Sparql_uo.Update_exec.run_session session text;
        Sparql_uo.Session.checkpoint session;
        let store = Sparql_uo.Session.store session in
        write_out store out;
        Printf.printf "updated store: %d triples -> %s\n"
          (Rdf_store.Triple_store.size store)
          out
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:"Apply SPARQL 1.1 Update operations (transactionally and \
             durably with --data-dir) and write the result")
    Term.(
      const run $ data_arg $ synth_arg $ data_dir_arg $ sync_arg
      $ update_file_arg $ update_text_arg $ out_arg)

(* ---------------- churn ---------------- *)

(* Commit a stream of tiny transactions against a durable directory,
   acknowledging each one on stdout only after its commit returned (so
   under --sync every-commit each acknowledged transaction is durable).
   The crash-recovery smoke test SIGKILLs this mid-stream, reopens the
   directory and checks that every acknowledged transaction survived. *)
let churn_cmd =
  let dir_req =
    let doc = "Durable store directory (created/initialized if missing)." in
    Arg.(
      required
      & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR" ~doc)
  in
  let txns_arg =
    let doc = "Number of transactions to commit." in
    Arg.(value & opt int 1000 & info [ "txns" ] ~docv:"N" ~doc)
  in
  let batch_arg =
    let doc = "Triples inserted per transaction." in
    Arg.(value & opt int 1 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let run dir sync txns batch =
    let session = open_durable ~policy:sync ~data:None ~synth:None dir in
    (* Distinct subjects across invocations of the same directory. *)
    let tag = Unix.getpid () in
    for i = 1 to txns do
      let txn = Sparql_uo.Session.begin_txn session in
      for j = 1 to batch do
        let s =
          Rdf.Term.iri (Printf.sprintf "http://churn/s%d_%d_%d" tag i j)
        in
        let p = Rdf.Term.iri "http://churn/p" in
        let o = Rdf.Term.literal (Printf.sprintf "%d,%d" i j) in
        Rdf_store.Mvcc.insert txn (Rdf.Triple.make s p o)
      done;
      Sparql_uo.Session.commit session txn;
      Printf.printf "committed %d\n" i;
      flush stdout
    done;
    Sparql_uo.Session.sync session;
    Printf.printf "done: %d txn(s) of %d triple(s)\n" txns batch
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:"Stream small durable transactions into --data-dir, \
             acknowledging each committed transaction on stdout (crash \
             smoke-test driver)")
    Term.(const run $ dir_req $ sync_arg $ txns_arg $ batch_arg)

(* ---------------- snapshot ---------------- *)

let snapshot_cmd =
  let out_arg =
    let doc = "Output snapshot file." in
    Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let run data synth domains out =
    setup_build ~domains;
    let store = or_die (load_store data synth) in
    Rdf_store.Snapshot.save store out;
    Printf.printf "wrote snapshot of %d triples to %s\n"
      (Rdf_store.Triple_store.size store)
      out
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:"Write a binary store snapshot (fast reload via --data)")
    Term.(
      const run $ data_arg $ synth_arg $ domains_arg $ out_arg)

(* ---------------- dot ---------------- *)

let dot_cmd =
  let out_arg =
    let doc = "Output .dot file (stdout when omitted)." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let run data synth qfile qtext mode engine out =
    let store = or_die (load_store data synth) in
    let text = or_die (load_query qfile qtext) in
    let report = Sparql_uo.Executor.run ~mode ~engine store text in
    let dot =
      Sparql_uo.Be_tree_dot.pair_to_dot
        ~before:report.Sparql_uo.Executor.tree_before
        ~after:report.Sparql_uo.Executor.tree_after
    in
    match out with
    | None -> print_string dot
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc dot);
        Printf.printf "wrote %s (render with: dot -Tsvg %s > plan.svg)\n" path
          path
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Render the BE-tree plan (before/after) as Graphviz")
    Term.(
      const run $ data_arg $ synth_arg $ query_file_arg $ query_text_arg
      $ mode_arg $ engine_arg $ out_arg)

let () =
  let info =
    Cmd.info "sparql_uo_cli" ~version:"1.0.0"
      ~doc:"SPARQL-UO: efficient execution of SPARQL queries with OPTIONAL \
            and UNION"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ generate_cmd; query_cmd; explain_cmd; modes_cmd; snapshot_cmd;
            dot_cmd; update_cmd; churn_cmd ]))
