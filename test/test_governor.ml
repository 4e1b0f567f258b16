(* Tests for the per-query resource governor: ticket mechanics (budget,
   deadline, cancellation), deterministic fault injection at every
   compiled-in failpoint with cleanup invariants (no ticket left armed,
   epoch and plan cache consistent, pool still functional, subsequent
   ungoverned run oracle-equal), graceful degradation (partial results,
   bounded retry), cross-domain cancellation, and the two-session
   isolation property that motivated the subsystem. *)

module Gov = Sparql.Governor

let count report =
  match report.Sparql_uo.Executor.result_count with
  | Some n -> n
  | None -> Alcotest.fail "run was killed unexpectedly"

let failure_opt = Alcotest.testable
    (Fmt.option (Fmt.of_to_string Gov.failure_name))
    (Option.equal (fun a b -> a = b))

(* A query that reaches every execution-side failpoint under the plain
   BE-tree evaluator: multi-pattern BGP (scan + extend), OPTIONAL
   (hash-probe), UNION, and a streaming sink. *)
let chaos_text =
  "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n\
   SELECT * WHERE { ?x ub:advisor ?y .\n\
  \  { ?y ub:teacherOf ?z } UNION { ?x ub:takesCourse ?z }\n\
  \  OPTIONAL { ?x ub:emailAddress ?e } }"

(* The WCO extension step only runs for BGPs with at least two patterns;
   in Base mode [chaos_text]'s groups are all single-pattern, so the
   "extend" site gets its own multi-pattern BGP query. *)
let extend_text =
  "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n\
   SELECT * WHERE { ?x ub:advisor ?y . ?x ub:takesCourse ?z . }"

let query_for_site = function "extend" -> extend_text | _ -> chaos_text

let tiny_store = lazy (Workload.Lubm.store Workload.Lubm.tiny)

(* --- Ticket mechanics ----------------------------------------------------- *)

let test_ticket_deadline () =
  let now = ref 0.0 in
  let gov = Gov.create ~deadline:(10.0, fun () -> !now) () in
  Gov.tick gov;
  now := 11.0;
  (try
     Gov.tick gov;
     Alcotest.fail "expected Kill Timeout"
   with Gov.Kill Gov.Timeout -> ())

let test_ticket_cancel () =
  let gov = Gov.create () in
  Gov.tick gov;
  Alcotest.(check bool) "not yet cancelled" false (Gov.is_cancelled gov);
  Gov.cancel gov;
  Alcotest.(check bool) "flag observed" true (Gov.is_cancelled gov);
  (try
     Gov.tick gov;
     Alcotest.fail "expected Kill Cancelled"
   with Gov.Kill Gov.Cancelled -> ())

let test_ticket_isolation () =
  (* Two tickets account independently: exhausting one leaves the other
     untouched — the property the process-global budget lacked. *)
  let g1 = Gov.create ~row_budget:3 () in
  let g2 = Gov.create ~row_budget:1000 () in
  (try
     for _ = 1 to 10 do
       Gov.charge g1
     done;
     Alcotest.fail "expected Kill Out_of_budget"
   with Gov.Kill Gov.Out_of_budget -> ());
  for _ = 1 to 10 do
    Gov.charge g2
  done;
  Alcotest.(check int) "g1 counted its rows" 3 (Gov.pushed g1);
  Alcotest.(check int) "g2 unaffected" 10 (Gov.pushed g2);
  Alcotest.(check int) "g2 budget its own" 990 (Gov.remaining_budget g2)

let test_transient_classification () =
  Alcotest.(check bool) "budget is transient" true (Gov.transient Gov.Out_of_budget);
  Alcotest.(check bool) "timeout is transient" true (Gov.transient Gov.Timeout);
  Alcotest.(check bool) "fault is transient" true
    (Gov.transient (Gov.Injected_fault "scan"));
  Alcotest.(check bool) "cancellation is final" false (Gov.transient Gov.Cancelled)

let test_seeded_schedule_deterministic () =
  let shape faults = List.map (fun f -> Gov.fault_fired f) faults in
  let s1 = Gov.seeded_faults ~seed:42 ~after_max:5 Gov.all_failpoints in
  let s2 = Gov.seeded_faults ~seed:42 ~after_max:5 Gov.all_failpoints in
  Alcotest.(check int) "one fault per site"
    (List.length Gov.all_failpoints) (List.length s1);
  Alcotest.(check (list bool)) "none pre-fired" (shape s1) (shape s2);
  (* Same seed, same query: the kill site is reproducible. *)
  let store = Lazy.force tiny_store in
  let kill_of seed =
    let session = Sparql_uo.Session.create store in
    let faults = Gov.seeded_faults ~seed ~after_max:3 Gov.all_failpoints in
    match
      Sparql_uo.Session.run ~mode:Sparql_uo.Executor.Base ~faults session
        chaos_text
    with
    | report -> report.Sparql_uo.Executor.failure
    | exception Gov.Kill f -> Some f
  in
  Alcotest.(check failure_opt) "same seed, same kill" (kill_of 7) (kill_of 7)

(* --- Chaos suite: every failpoint, with cleanup invariants ----------------- *)

(* Run [chaos_text] with a one-shot fault at [site] armed to fire on its
   [after]-th hit, in Base mode (OPTIONAL/UNION map directly onto the
   hash-probed bag operators, so every site is reachable). A kill during
   the prepare phase escapes as an exception; both shapes are the same
   taxonomy case. *)
let chaos_run session ~domains ~site ~after =
  let faults = [ Gov.fault ~site ~after ] in
  match
    Sparql_uo.Session.run ~mode:Sparql_uo.Executor.Base ~domains ~faults
      session (query_for_site site)
  with
  | report -> report.Sparql_uo.Executor.failure
  | exception Gov.Kill f -> Some f

let check_chaos_site ~domains site =
  let store = Lazy.force tiny_store in
  let text = query_for_site site in
  let oracle = Sparql_uo.Executor.run ~mode:Sparql_uo.Executor.Base store text in
  let session = Sparql_uo.Session.create store in
  let epoch0 = Sparql_uo.Session.epoch session in
  let failure = chaos_run session ~domains ~site ~after:1 in
  Alcotest.(check failure_opt)
    (Printf.sprintf "site %s kills as injected-fault" site)
    (Some (Gov.Injected_fault site))
    failure;
  (* Cleanup invariants: the kill must leave the session quiescent and
     uncorrupted. *)
  Alcotest.(check int) "no ticket left armed" 0
    (Sparql_uo.Session.active_runs session);
  Alcotest.(check int) "epoch unchanged" epoch0 (Sparql_uo.Session.epoch session);
  (if site = "cache.insert" then
     Alcotest.(check int) "killed insert left no cache entry" 0
       (Sparql_uo.Session.cache_length session));
  (* The next, ungoverned run on the same session must be oracle-equal. *)
  let clean =
    Sparql_uo.Session.run ~mode:Sparql_uo.Executor.Base ~domains session text
  in
  Alcotest.(check failure_opt) "clean run has no failure" None
    clean.Sparql_uo.Executor.failure;
  (match (clean.Sparql_uo.Executor.bag, oracle.Sparql_uo.Executor.bag) with
  | Some got, Some want ->
      Alcotest.(check bool) "clean run oracle-equal" true
        (Sparql.Bag.equal_as_bags got want)
  | _ -> Alcotest.fail "missing bag");
  Alcotest.(check int) "session quiescent after clean run" 0
    (Sparql_uo.Session.active_runs session)

let test_chaos_all_failpoints () =
  List.iter (check_chaos_site ~domains:1) Gov.all_failpoints

(* Same invariants with the domain pool engaged: a fault firing inside a
   worker must still kill the whole run, quiesce the pool, and leave it
   usable for the oracle-equality check. *)
let test_chaos_parallel () =
  List.iter (check_chaos_site ~domains:4) [ "scan"; "extend"; "sink.push" ]

(* --- Graceful degradation -------------------------------------------------- *)

let test_partial_results () =
  let store = Lazy.force tiny_store in
  let session = Sparql_uo.Session.create store in
  let text = "SELECT * WHERE { ?s ?p ?o . }" in
  let report = Sparql_uo.Session.run ~row_budget:50 ~partial:true session text in
  Alcotest.(check failure_opt) "marked partial: out-of-budget"
    (Some Gov.Out_of_budget) report.Sparql_uo.Executor.partial;
  (* The run was still killed — [failure] says why, [partial] says rows
     are nevertheless available. *)
  Alcotest.(check failure_opt) "failure records the kill"
    (Some Gov.Out_of_budget) report.Sparql_uo.Executor.failure;
  let n = count report in
  Alcotest.(check bool) "rows bounded by the budget" true (n > 0 && n <= 50);
  (* The partial rows are a genuine prefix of the data, not garbage:
     every solution also occurs in the full result. *)
  let full = Sparql_uo.Session.run session text in
  (match (report.Sparql_uo.Executor.bag, full.Sparql_uo.Executor.bag) with
  | Some part, Some whole ->
      Alcotest.(check bool) "partial ⊆ full" true
        (Sparql.Bag.length (Sparql.Bag.semijoin part whole)
        = Sparql.Bag.length part)
  | _ -> Alcotest.fail "missing bag")

let test_retry_recovers_from_one_shot_fault () =
  let store = Lazy.force tiny_store in
  let session = Sparql_uo.Session.create store in
  let oracle = count (Sparql_uo.Executor.run store chaos_text) in
  let f = Gov.fault ~site:"scan" ~after:1 in
  let report =
    Sparql_uo.Session.run ~retries:1 ~faults:[ f ] session chaos_text
  in
  Alcotest.(check bool) "the fault was spent on attempt one" true
    (Gov.fault_fired f);
  Alcotest.(check failure_opt) "retry ran clean" None
    report.Sparql_uo.Executor.failure;
  Alcotest.(check int) "retry result oracle-equal" oracle (count report)

let test_retry_exhaustion_keeps_failure () =
  (* A deterministic failure (the budget is too small on every attempt)
     survives the retry loop: the caller gets the final attempt's
     report, not an exception. *)
  let store = Lazy.force tiny_store in
  let session = Sparql_uo.Session.create store in
  let report =
    Sparql_uo.Session.run ~retries:2 ~row_budget:5 session
      "SELECT * WHERE { ?s ?p ?o . }"
  in
  Alcotest.(check failure_opt) "still out of budget after retries"
    (Some Gov.Out_of_budget) report.Sparql_uo.Executor.failure;
  Alcotest.(check int) "session quiescent" 0
    (Sparql_uo.Session.active_runs session)

(* --- Cross-domain cancellation --------------------------------------------- *)

let test_cancellation () =
  let store = Lazy.force tiny_store in
  let session = Sparql_uo.Session.create store in
  (* A cross product far beyond the backstop budget: completion is
     impossible, so only cancellation (or the backstop, on regression)
     can end the run. *)
  let text = "SELECT * WHERE { ?a ?p ?b . ?x ?q ?y . }" in
  let worker =
    Domain.spawn (fun () ->
        Sparql_uo.Session.run ~row_budget:50_000_000 session text)
  in
  while Sparql_uo.Session.active_runs session = 0 do
    Unix.sleepf 0.001
  done;
  let cancelled = Sparql_uo.Session.cancel session in
  let report = Domain.join worker in
  Alcotest.(check int) "one in-flight run cancelled" 1 cancelled;
  Alcotest.(check failure_opt) "killed as cancelled" (Some Gov.Cancelled)
    report.Sparql_uo.Executor.failure;
  Alcotest.(check int) "no ticket left armed" 0
    (Sparql_uo.Session.active_runs session);
  (* Cancellation must not poison the session for later runs. *)
  let clean = Sparql_uo.Session.run session "SELECT * WHERE { ?s ?p ?o . }" in
  Alcotest.(check bool) "session usable after cancel" true (count clean > 0)

(* --- Governor x morsel scheduler ------------------------------------------- *)

(* A cross product far beyond any reasonable budget: the probe side is
   morselized and stolen across the 4 domains, so every kill below must
   reach workers that are executing stolen morsels, not just the
   submitting domain. *)
let parallel_kill_text = "SELECT * WHERE { ?a ?p ?b . ?x ?q ?y . }"

let test_parallel_budget_kill_latency () =
  let store = Lazy.force tiny_store in
  let report =
    Sparql_uo.Executor.run ~domains:4 ~row_budget:1_000 store
      parallel_kill_text
  in
  Alcotest.(check failure_opt) "killed out of budget"
    (Some Gov.Out_of_budget) report.Sparql_uo.Executor.failure;
  (* Kill latency: the budget check runs inside [charge] on the charging
     domain, so the overshoot is bounded by the few in-flight charges of
     the other domains, not by their remaining morsels. *)
  Alcotest.(check bool)
    (Printf.sprintf "bounded overshoot (%d rows)"
       report.Sparql_uo.Executor.pushed_rows)
    true
    (report.Sparql_uo.Executor.pushed_rows <= 1_000 + (4 * Gov.stride))

let test_parallel_deadline_kill () =
  let store = Lazy.force tiny_store in
  let report =
    Sparql_uo.Executor.run ~domains:4 ~timeout_ms:20.0
      ~row_budget:200_000_000 store parallel_kill_text
  in
  Alcotest.(check failure_opt) "killed on deadline" (Some Gov.Timeout)
    report.Sparql_uo.Executor.failure

(* A ticket cancelled from outside must stop every domain: the workers
   observe the flag at morsel boundaries (and on charge strides), the job
   quiesces, and the pool stays usable for the next parallel run. *)
let test_parallel_cancel_stops_all_domains () =
  let store = Lazy.force tiny_store in
  let session = Sparql_uo.Session.create store in
  let worker =
    Domain.spawn (fun () ->
        Sparql_uo.Session.run ~domains:4 ~row_budget:200_000_000 session
          parallel_kill_text)
  in
  while Sparql_uo.Session.active_runs session = 0 do
    Unix.sleepf 0.001
  done;
  let t0 = Unix.gettimeofday () in
  let cancelled = Sparql_uo.Session.cancel session in
  let report = Domain.join worker in
  let latency = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "one run cancelled" 1 cancelled;
  Alcotest.(check failure_opt) "killed as cancelled" (Some Gov.Cancelled)
    report.Sparql_uo.Executor.failure;
  Alcotest.(check bool)
    (Printf.sprintf "all domains parked promptly (%.0f ms)" (latency *. 1e3))
    true (latency < 5.0);
  let clean =
    Sparql_uo.Session.run ~domains:4 session "SELECT * WHERE { ?s ?p ?o . }"
  in
  Alcotest.(check bool) "pool usable after the cancel" true (count clean > 0)

(* --- Two-session isolation (the concurrency regression) -------------------- *)

let test_two_session_isolation () =
  let store = Lazy.force tiny_store in
  let oracle = count (Sparql_uo.Executor.run store chaos_text) in
  let tight_session = Sparql_uo.Session.create store in
  let free_session = Sparql_uo.Session.create store in
  (* Two sessions on separate domains, simultaneously: one with a budget
     its query cannot fit in, one unlimited. Under the historical global
     budget the tight session's limit could kill (or spare) the free one
     depending on interleaving; per-ticket accounting makes both
     deterministic. Several rounds to vary the interleaving. *)
  for _ = 1 to 3 do
    let tight =
      Domain.spawn (fun () ->
          Sparql_uo.Session.run ~domains:4 ~row_budget:5 tight_session
            chaos_text)
    in
    let free =
      Domain.spawn (fun () ->
          Sparql_uo.Session.run ~domains:4 free_session chaos_text)
    in
    let tight = Domain.join tight and free = Domain.join free in
    Alcotest.(check failure_opt) "tight run killed by its own budget"
      (Some Gov.Out_of_budget) tight.Sparql_uo.Executor.failure;
    Alcotest.(check failure_opt) "free run unaffected" None
      free.Sparql_uo.Executor.failure;
    Alcotest.(check int) "free run matches the serial oracle" oracle
      (count free)
  done;
  Alcotest.(check int) "tight session quiescent" 0
    (Sparql_uo.Session.active_runs tight_session);
  Alcotest.(check int) "free session quiescent" 0
    (Sparql_uo.Session.active_runs free_session)

(* --- Per-query counters under concurrency ------------------------------- *)

let lubm2 = lazy (Workload.Lubm.store (Workload.Lubm.scaled 2))

(* What a report says about its own query's engine work, rendered so a
   mismatch prints both sides. *)
let counters_of report =
  match report.Sparql_uo.Executor.eval_stats with
  | None -> Alcotest.fail "run was killed unexpectedly"
  | Some es ->
      let i = es.Sparql_uo.Evaluator.isect
      and p = es.Sparql_uo.Evaluator.prefilter
      and m = es.Sparql_uo.Evaluator.sched in
      Printf.sprintf
        "isect=%d/%d/%d/%d/%d prefilter=%d/%d sched=%d/%d/%d pushed=%d"
        i.Engine.Intersect.intersections i.gallop_passes i.merge_passes
        i.domain_values i.operands p.Engine.Candidates.checks p.rejects
        m.Engine.Pool.morsels m.steals m.stops
        report.Sparql_uo.Executor.pushed_rows

(* Start [bodies] on their own domains at the same moment and return
   their results in order. *)
let run_together bodies =
  let waiting = Atomic.make (List.length bodies) in
  let start body =
    Domain.spawn (fun () ->
        Atomic.decr waiting;
        while Atomic.get waiting > 0 do
          Domain.cpu_relax ()
        done;
        body ())
  in
  List.map Domain.join (List.map start bodies)

(* Two domains run the paper's LUBM queries at the same time, each run
   under its own ticket: one repeats q1.1, the other cycles through the
   remaining queries until the first is done (q2.2, which pushes 16M rows
   here, is left out to keep the test quick). Every report must carry
   exactly its query's serial counters: counters kept in process-global
   cells were reset and bumped by the other domain's runs. *)
let test_concurrent_counters () =
  let store = Lazy.force lubm2 in
  let stats = Rdf_store.Stats.cached store in
  let run (entry : Workload.Queries.entry) =
    (entry.id, counters_of (Sparql_uo.Executor.run ~stats store entry.text))
  in
  let queries =
    List.filter
      (fun e -> e.Workload.Queries.id <> "q2.2")
      (Workload.Queries.all Workload.Queries.Lubm)
  in
  let serial = List.map run queries in
  let q11, others =
    List.partition (fun e -> e.Workload.Queries.id = "q1.1") queries
  in
  let q11_done = Atomic.make false in
  let repeat_q11 () =
    let reports = List.concat (List.init 3 (fun _ -> List.map run q11)) in
    Atomic.set q11_done true;
    reports
  in
  let cycle_others () =
    let rec go acc =
      let acc = List.rev_append (List.map run others) acc in
      if Atomic.get q11_done then acc else go acc
    in
    go []
  in
  List.iter
    (fun (id, counters) ->
      Alcotest.(check string)
        (id ^ " reports its serial counters")
        (List.assoc id serial) counters)
    (List.concat (run_together [ repeat_q11; cycle_others ]))

(* A serial run beside a domains-4 run of the same query: the morsels the
   pool ran are charged to the parallel run alone. *)
let test_serial_beside_parallel () =
  let store = Lazy.force lubm2 in
  let stats = Rdf_store.Stats.cached store in
  let text = (Workload.Queries.get Workload.Queries.Lubm "q1.6").text in
  let morsels domains () =
    List.init 3 (fun _ ->
        let report = Sparql_uo.Executor.run ~stats ~domains store text in
        match report.Sparql_uo.Executor.eval_stats with
        | Some es -> es.Sparql_uo.Evaluator.sched.Engine.Pool.morsels
        | None -> Alcotest.fail "run was killed unexpectedly")
  in
  match run_together [ morsels 1; morsels 4 ] with
  | [ serial; parallel ] ->
      List.iter
        (fun n -> Alcotest.(check int) "serial run ran no morsels" 0 n)
        serial;
      List.iter
        (fun n ->
          Alcotest.(check bool) "parallel run ran morsels" true (n > 0))
        parallel
  | _ -> assert false

let () =
  Alcotest.run "governor"
    [
      ( "ticket",
        [
          Alcotest.test_case "deadline" `Quick test_ticket_deadline;
          Alcotest.test_case "cancel flag" `Quick test_ticket_cancel;
          Alcotest.test_case "per-ticket isolation" `Quick test_ticket_isolation;
          Alcotest.test_case "transient classification" `Quick
            test_transient_classification;
          Alcotest.test_case "seeded schedule deterministic" `Quick
            test_seeded_schedule_deterministic;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "every failpoint kills cleanly" `Quick
            test_chaos_all_failpoints;
          Alcotest.test_case "faults under the domain pool" `Quick
            test_chaos_parallel;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "partial results" `Quick test_partial_results;
          Alcotest.test_case "retry recovers from one-shot fault" `Quick
            test_retry_recovers_from_one_shot_fault;
          Alcotest.test_case "retry exhaustion keeps failure" `Quick
            test_retry_exhaustion_keeps_failure;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "cross-domain cancellation" `Quick
            test_cancellation;
          Alcotest.test_case "concurrent runs report their serial counters"
            `Quick test_concurrent_counters;
          Alcotest.test_case "a serial run beside a domains-4 run" `Quick
            test_serial_beside_parallel;
          Alcotest.test_case "two-session isolation" `Quick
            test_two_session_isolation;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "budget kill latency with stolen morsels" `Quick
            test_parallel_budget_kill_latency;
          Alcotest.test_case "deadline fires across domains" `Quick
            test_parallel_deadline_kill;
          Alcotest.test_case "cancel stops all domains" `Quick
            test_parallel_cancel_stops_all_domains;
        ] );
    ]
