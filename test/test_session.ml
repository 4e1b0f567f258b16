(* Tests for the compile-once / execute-many layer: Prepared re-execution
   stability, the Session plan cache (LRU bounds, hit/miss accounting,
   explain provenance), epoch-based invalidation after SPARQL Updates and
   after eval-time dictionary growth (VALUES), and a multi-domain
   concurrency smoke over one shared session. *)

module Store = Rdf_store.Triple_store

let store_of = Store.of_triples

let count report =
  match report.Sparql_uo.Executor.result_count with
  | Some n -> n
  | None -> Alcotest.fail "run hit a limit unexpectedly"

let cache_of report =
  match report.Sparql_uo.Executor.cache with
  | Some c -> c
  | None -> Alcotest.fail "session run carries no cache info"

let triple i j = Rdf.Triple.make (Qgen.iri i) (Qgen.pred 0) (Qgen.iri j)

(* --- Prepared: execute-many determinism ---------------------------------- *)

(* The central prepare/execute property: a plan prepared once and executed
   repeatedly yields the same bag as a fresh one-shot run, across every
   mode x engine x domains configuration. *)
let prop_prepared_reexecution_stable =
  QCheck2.Test.make ~name:"Prepared.execute twice = fresh Executor.run"
    ~count:40
    ~print:(fun (triples, query) ->
      Qgen.pp_dataset triples ^ "\n" ^ Qgen.pp_query query)
    QCheck2.Gen.(pair Qgen.gen_dataset Qgen.gen_modified_query)
    (fun (triples, query) ->
      let store = store_of triples in
      List.for_all
        (fun (mode, engine, domains) ->
          let prepared = Sparql_uo.Prepared.prepare ~mode ~engine store query in
          let first = Sparql_uo.Prepared.execute ~domains prepared in
          let second = Sparql_uo.Prepared.execute ~domains prepared in
          let oneshot =
            Sparql_uo.Executor.run_query ~mode ~engine ~domains store query
          in
          match
            ( first.Sparql_uo.Executor.bag,
              second.Sparql_uo.Executor.bag,
              oneshot.Sparql_uo.Executor.bag )
          with
          | Some b1, Some b2, Some b3 ->
              Sparql.Bag.equal_as_bags b1 b2 && Sparql.Bag.equal_as_bags b1 b3
          | _ -> false)
        Qgen.exec_configs)

(* --- Updates: MVCC deltas keep the plan cache warm ------------------------ *)

(* Transactional updates publish a new snapshot version but do NOT
   invalidate cached plans — the plan retargets to the delta at execute
   time and must see the committed writes immediately. *)
let test_update_keeps_cache_warm () =
  let session = Sparql_uo.Session.create (store_of [ triple 0 1; triple 1 2 ]) in
  let text = "SELECT * WHERE { ?x <http://t/p0> ?y . }" in
  let epoch0 = Sparql_uo.Session.epoch session in
  let r1 = Sparql_uo.Session.run session text in
  Alcotest.(check bool) "first run misses" false (cache_of r1).hit;
  Alcotest.(check int) "two solutions" 2 (count r1);
  let r2 = Sparql_uo.Session.run session text in
  Alcotest.(check bool) "second run hits" true (cache_of r2).hit;
  Sparql_uo.Update_exec.run_session session
    "INSERT DATA { <http://t/e5> <http://t/p0> <http://t/e0> . }";
  Alcotest.(check bool) "commit bumps the snapshot version" true
    (Sparql_uo.Session.epoch session > epoch0);
  let r3 = Sparql_uo.Session.run session text in
  Alcotest.(check bool) "post-update run still hits" true (cache_of r3).hit;
  Alcotest.(check int) "result reflects the inserted triple" 3 (count r3);
  Sparql_uo.Update_exec.run_session session
    "DELETE DATA { <http://t/e5> <http://t/p0> <http://t/e0> . }";
  let r4 = Sparql_uo.Session.run session text in
  Alcotest.(check bool) "post-delete run still hits" true (cache_of r4).hit;
  Alcotest.(check int) "deletion visible" 2 (count r4);
  (* A bulk rebuild (set_store) swaps the whole lineage: that DOES
     invalidate. *)
  Sparql_uo.Session.set_store session (store_of [ triple 0 1 ]);
  let r5 = Sparql_uo.Session.run session text in
  Alcotest.(check bool) "post-rebuild run misses" false (cache_of r5).hit;
  Alcotest.(check int) "rebuilt store visible" 1 (count r5)

(* Compaction folds the delta into a fresh base epoch: cached plans are
   stale (their base is gone) and must transparently re-prepare with
   identical results. *)
let test_compaction_invalidates_plans () =
  let session = Sparql_uo.Session.create (store_of [ triple 0 1; triple 1 2 ]) in
  let text = "SELECT * WHERE { ?x <http://t/p0> ?y . }" in
  ignore (Sparql_uo.Session.run session text);
  Sparql_uo.Update_exec.run_session session
    "INSERT DATA { <http://t/e5> <http://t/p0> <http://t/e6> . }";
  let r_delta = Sparql_uo.Session.run session text in
  Alcotest.(check bool) "delta run hits" true (cache_of r_delta).hit;
  Alcotest.(check int) "delta visible" 3 (count r_delta);
  Sparql_uo.Session.compact session;
  Alcotest.(check int) "delta folded into base" 0
    (Rdf_store.Mvcc.delta_rows (Sparql_uo.Session.mvcc session));
  let r_compact = Sparql_uo.Session.run session text in
  Alcotest.(check bool) "post-compaction run misses" false
    (cache_of r_compact).hit;
  Alcotest.(check int) "same result after compaction" 3 (count r_compact)

(* The session's statistics memo is invalidated alongside the plans: a
   cardinality recomputed after the update must see the new store. *)
let test_update_refreshes_stats () =
  let session = Sparql_uo.Session.create (store_of [ triple 0 1 ]) in
  let before = Rdf_store.Stats.num_triples (Sparql_uo.Session.stats session) in
  Alcotest.(check int) "one triple before" 1 before;
  Sparql_uo.Update_exec.run_session session
    "INSERT DATA { <http://t/e2> <http://t/p0> <http://t/e3> . }";
  let after = Rdf_store.Stats.num_triples (Sparql_uo.Session.stats session) in
  Alcotest.(check int) "two triples after" 2 after

(* --- VALUES interning: thread-safe, non-invalidating ---------------------- *)

let test_values_interning_keeps_cache () =
  let session = Sparql_uo.Session.create (store_of [ triple 0 1 ]) in
  (* The VALUES constant is absent from the store's dictionary; the
     first execution interns it in place. Interning is append-only and
     publishes no new snapshot, so it neither bumps the version nor
     invalidates the plan (which compiled no Missing constant — VALUES
     terms are interned at eval time, not compiled into the BGP). *)
  let text =
    "SELECT * WHERE { ?x <http://t/p0> ?y . VALUES ?z { <http://t/fresh> } }"
  in
  let epoch0 = Sparql_uo.Session.epoch session in
  let dict0 =
    Rdf_store.Snapshot.dict_size (Sparql_uo.Session.snapshot session)
  in
  let r1 = Sparql_uo.Session.run session text in
  Alcotest.(check bool) "first run misses" false (cache_of r1).hit;
  Alcotest.(check int) "one solution" 1 (count r1);
  Alcotest.(check bool) "interning grew the dictionary" true
    (Rdf_store.Snapshot.dict_size (Sparql_uo.Session.snapshot session) > dict0);
  Alcotest.(check int) "interning left the snapshot version alone" epoch0
    (Sparql_uo.Session.epoch session);
  let r2 = Sparql_uo.Session.run session text in
  Alcotest.(check bool) "second run hits" true (cache_of r2).hit;
  Alcotest.(check int) "same solution" 1 (count r2)

(* Eval-time interning from several domains at once: every run must
   succeed, every domain must decode the shared constant identically,
   and the dictionary must contain each fresh term exactly once. *)
let test_concurrent_interning () =
  let session = Sparql_uo.Session.create (store_of [ triple 0 1 ]) in
  let text =
    "SELECT * WHERE { ?x <http://t/p0> ?y . VALUES ?z { <http://t/fresh> \
     <http://t/fresh2> } }"
  in
  let worker () =
    let ok = ref true in
    for _ = 1 to 8 do
      let r = Sparql_uo.Session.run session text in
      if count r <> 2 then ok := false
    done;
    !ok
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  let all_ok = List.for_all Domain.join domains in
  Alcotest.(check bool) "every concurrent interning run succeeded" true all_ok;
  let dict =
    Rdf_store.Triple_store.dictionary (Sparql_uo.Session.store session)
  in
  List.iter
    (fun iri ->
      let term = Rdf.Term.iri iri in
      match Rdf_store.Dictionary.find dict term with
      | None -> Alcotest.fail (iri ^ " not interned")
      | Some id ->
          Alcotest.(check bool)
            (iri ^ " decodes back")
            true
            (Rdf.Term.equal (Rdf_store.Dictionary.decode dict id) term))
    [ "http://t/fresh"; "http://t/fresh2" ]

(* --- LRU bounds and accounting ------------------------------------------- *)

let test_lru_eviction_order () =
  let store = store_of [ triple 0 1; triple 1 2 ] in
  let session = Sparql_uo.Session.create ~cache_capacity:2 store in
  let qa = "SELECT * WHERE { ?x <http://t/p0> ?y . }" in
  let qb = "SELECT * WHERE { ?x <http://t/p0> ?y . } LIMIT 1" in
  let qc = "SELECT * WHERE { ?y <http://t/p0> ?x . }" in
  let run q = (cache_of (Sparql_uo.Session.run session q)).hit in
  Alcotest.(check bool) "A cold" false (run qa);
  Alcotest.(check bool) "B cold" false (run qb);
  (* Touch A so B is the least recently used entry. *)
  Alcotest.(check bool) "A cached" true (run qa);
  (* C fills the third slot of a 2-slot cache: B must be evicted. *)
  Alcotest.(check bool) "C cold" false (run qc);
  Alcotest.(check int) "one eviction" 1 (Sparql_uo.Session.evictions session);
  Alcotest.(check int) "cache at capacity" 2
    (Sparql_uo.Session.cache_length session);
  Alcotest.(check bool) "A survived" true (run qa);
  Alcotest.(check bool) "B was evicted" false (run qb);
  Alcotest.(check int) "counters" 2 (Sparql_uo.Session.hits session);
  Alcotest.(check int) "counters" 4 (Sparql_uo.Session.misses session)

let test_capacity_validation () =
  let store = store_of [ triple 0 1 ] in
  (match Sparql_uo.Session.create ~cache_capacity:0 store with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must be rejected");
  Alcotest.(check int) "capacity accessor" 7
    (Sparql_uo.Session.capacity (Sparql_uo.Session.create ~cache_capacity:7 store))

(* Per-(mode, engine) cache keys: the same text under different modes
   occupies distinct slots and each hits independently. *)
let test_cache_key_includes_mode_engine () =
  let store = store_of [ triple 0 1; triple 1 2 ] in
  let session = Sparql_uo.Session.create store in
  let text = "SELECT * WHERE { ?x <http://t/p0> ?y . }" in
  List.iter
    (fun mode ->
      List.iter
        (fun engine ->
          let r1 = Sparql_uo.Session.run ~mode ~engine session text in
          Alcotest.(check bool) "cold per (mode, engine)" false (cache_of r1).hit;
          let r2 = Sparql_uo.Session.run ~mode ~engine session text in
          Alcotest.(check bool) "warm per (mode, engine)" true (cache_of r2).hit;
          Alcotest.(check int) "same count" (count r1) (count r2))
        [ Engine.Bgp_eval.Wco; Engine.Bgp_eval.Hash_join ])
    Sparql_uo.Executor.all_modes;
  Alcotest.(check int) "eight distinct entries" 8
    (Sparql_uo.Session.cache_length session)

(* --- Explain provenance --------------------------------------------------- *)

let test_explain_reports_cache_and_epoch () =
  let session = Sparql_uo.Session.create (store_of [ triple 0 1 ]) in
  let text = "SELECT * WHERE { ?x <http://t/p0> ?y . }" in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec at i = i + ln <= lh && (String.sub hay i ln = needle || at (i + 1)) in
    at 0
  in
  let e1 = Sparql_uo.Executor.explain (Sparql_uo.Session.run session text) in
  Alcotest.(check bool) "first explain shows a miss" true
    (contains e1 "plan cache: miss");
  Alcotest.(check bool) "explain shows the epoch" true
    (contains e1 "store epoch:");
  let e2 = Sparql_uo.Executor.explain (Sparql_uo.Session.run session text) in
  Alcotest.(check bool) "second explain shows a hit" true
    (contains e2 "plan cache: hit");
  let one_shot =
    Sparql_uo.Executor.explain
      (Sparql_uo.Executor.run (Sparql_uo.Session.store session) text)
  in
  Alcotest.(check bool) "one-shot explain shows the bypass" true
    (contains one_shot "plan cache: bypassed")

(* --- Concurrency smoke ---------------------------------------------------- *)

(* Four domains hammer one session with a shared query set (serial
   evaluation, no VALUES, no budget/deadline — those knobs are
   process-global). Every run must return the right count, and the
   session's counters must account for every run exactly once. *)
let test_concurrent_session_runs () =
  let triples =
    List.concat_map (fun i -> [ triple i (i + 1); triple (i + 1) i ])
      [ 0; 1; 2; 3 ]
  in
  let session = Sparql_uo.Session.create (store_of triples) in
  let queries =
    [
      ("SELECT * WHERE { ?x <http://t/p0> ?y . }", List.length triples);
      ("SELECT * WHERE { ?x <http://t/p0> ?y . ?y <http://t/p0> ?x . }",
       List.length triples);
      ("SELECT DISTINCT ?x WHERE { ?x <http://t/p0> ?y . }", 5);
    ]
  in
  let rounds = 8 in
  let worker () =
    let ok = ref true in
    for _ = 1 to rounds do
      List.iter
        (fun (text, expected) ->
          let report = Sparql_uo.Session.run session text in
          if count report <> expected then ok := false)
        queries
    done;
    !ok
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  let all_ok = List.for_all Domain.join domains in
  Alcotest.(check bool) "every concurrent run returned the right count" true
    all_ok;
  let total = 4 * rounds * List.length queries in
  Alcotest.(check int) "every run is accounted as a hit or a miss" total
    (Sparql_uo.Session.hits session + Sparql_uo.Session.misses session);
  Alcotest.(check int) "one plan per query" (List.length queries)
    (Sparql_uo.Session.misses session)

(* --- Transactions ---------------------------------------------------------- *)

let test_txn_commit_abort () =
  let session = Sparql_uo.Session.create (store_of [ triple 0 1 ]) in
  let text = "SELECT * WHERE { ?x <http://t/p0> ?y . }" in
  let fresh = Rdf.Triple.make (Qgen.iri 7) (Qgen.pred 0) (Qgen.iri 8) in
  (* Buffered writes are invisible until commit. *)
  let txn = Sparql_uo.Session.begin_txn session in
  Rdf_store.Mvcc.insert txn fresh;
  Alcotest.(check int) "uncommitted write invisible" 1
    (count (Sparql_uo.Session.run session text));
  Sparql_uo.Session.commit session txn;
  Alcotest.(check int) "committed write visible" 2
    (count (Sparql_uo.Session.run session text));
  (* An aborted transaction leaves no trace. *)
  let txn = Sparql_uo.Session.begin_txn session in
  Rdf_store.Mvcc.delete txn fresh;
  Sparql_uo.Session.abort session txn;
  Alcotest.(check int) "aborted delete invisible" 2
    (count (Sparql_uo.Session.run session text));
  (match Rdf_store.Mvcc.insert txn fresh with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "write on a closed transaction must be rejected");
  (* A reader pinned before a commit keeps its exact view. *)
  let pinned = Sparql_uo.Session.snapshot session in
  let size_before = Rdf_store.Snapshot.size pinned in
  Sparql_uo.Update_exec.run_session session
    "DELETE DATA { <http://t/e7> <http://t/p0> <http://t/e8> . }";
  Alcotest.(check int) "pinned snapshot unchanged" size_before
    (Rdf_store.Snapshot.size pinned);
  Alcotest.(check int) "new snapshot sees the delete" (size_before - 1)
    (Rdf_store.Snapshot.size (Sparql_uo.Session.snapshot session))

(* An update's WHERE clause runs through the session plan cache: the
   same update shape twice must re-plan only once. *)
let test_update_where_uses_cache () =
  let session = Sparql_uo.Session.create (store_of [ triple 0 1; triple 1 2 ]) in
  let update =
    "INSERT { ?y <http://t/rev> ?x . } WHERE { ?x <http://t/p0> ?y . }"
  in
  Sparql_uo.Update_exec.run_session session update;
  Alcotest.(check int) "first WHERE misses" 1 (Sparql_uo.Session.misses session);
  Alcotest.(check int) "no hit yet" 0 (Sparql_uo.Session.hits session);
  Sparql_uo.Update_exec.run_session session update;
  Alcotest.(check int) "second WHERE hits the cached plan" 1
    (Sparql_uo.Session.hits session);
  Alcotest.(check int) "still one miss" 1 (Sparql_uo.Session.misses session);
  (* And the update actually applied twice over current state: 2 rev
     triples from the first pass; the second pass re-inserts the same 2
     (set semantics: still 2). *)
  let r =
    Sparql_uo.Session.run session
      "SELECT * WHERE { ?a <http://t/rev> ?b . }"
  in
  Alcotest.(check int) "update applied" 2 (count r)

(* --- Snapshot isolation (property) ----------------------------------------- *)

(* The tentpole invariant: a reader holding a pre-commit snapshot sees
   exactly the pre-commit bag, a post-commit reader exactly the
   post-commit bag, never a blend — across mode x engine x domains
   {1,4}, and even after the delta is compacted away underneath the
   pinned readers. Oracles evaluate over plain stores sharing the
   session's dictionary, so bags are comparable id-for-id. *)
let prop_snapshot_isolation =
  QCheck2.Test.make
    ~name:"snapshot isolation: pre/post-commit bags, never a blend" ~count:15
    ~print:(fun ((base, changes), query) ->
      Qgen.pp_dataset base ^ "---\n" ^ Qgen.pp_dataset changes ^ "\n"
      ^ Qgen.pp_query query)
    QCheck2.Gen.(pair (pair Qgen.gen_dataset Qgen.gen_dataset) Qgen.gen_query)
    (fun ((base, changes), query) ->
      let store = store_of base in
      let session = Sparql_uo.Session.create store in
      let snap_before = Sparql_uo.Session.snapshot session in
      let pre_expected, _ = Qgen.oracle store query in
      (* Inserts from the change set (overlapping the small term universe,
         so duplicates of base triples occur); deletes mix real base rows
         with no-op deletes of absent triples. *)
      let inserts = List.filteri (fun i _ -> i mod 2 = 0) changes in
      let deletes =
        List.filteri (fun i _ -> i mod 2 = 0) base
        @ List.filteri (fun i _ -> i mod 2 = 1) changes
      in
      let txn = Sparql_uo.Session.begin_txn session in
      List.iter (Rdf_store.Mvcc.insert txn) inserts;
      List.iter (Rdf_store.Mvcc.delete txn) deletes;
      Sparql_uo.Session.commit session txn;
      let snap_after = Sparql_uo.Session.snapshot session in
      (* Fold the delta away: both pinned snapshots must be unaffected. *)
      Sparql_uo.Session.compact session;
      (* The compacted base shares the dictionary, so it doubles as the
         post-commit oracle store. *)
      let post_expected, _ = Qgen.oracle (Sparql_uo.Session.store session) query in
      let eval snap mode engine domains =
        let p = Sparql_uo.Prepared.prepare_snapshot ~mode ~engine snap query in
        (Sparql_uo.Prepared.execute ~domains p).Sparql_uo.Prepared.bag
      in
      List.for_all
        (fun mode ->
          List.for_all
            (fun engine ->
              List.for_all
                (fun domains ->
                  (match eval snap_before mode engine domains with
                  | Some bag -> Sparql.Bag.equal_as_bags bag pre_expected
                  | None -> false)
                  &&
                  match eval snap_after mode engine domains with
                  | Some bag -> Sparql.Bag.equal_as_bags bag post_expected
                  | None -> false)
                [ 1; 4 ])
            [ Engine.Bgp_eval.Wco; Engine.Bgp_eval.Hash_join ])
        Sparql_uo.Executor.all_modes)

(* --- Retry backoff -------------------------------------------------------- *)

(* The delay schedule is pure state: same seed, same sequence. *)
let test_backoff_deterministic () =
  let draw seed n =
    let b = Sparql_uo.Session.backoff ~seed ~sleep:(fun _ -> ()) () in
    List.init n (fun _ -> Sparql_uo.Session.backoff_delay b)
  in
  Alcotest.(check (list (float 0.0)))
    "same seed, same delays" (draw 7 20) (draw 7 20);
  Alcotest.(check bool) "different seeds diverge" true
    (draw 7 20 <> draw 8 20)

(* Decorrelated jitter stays within [base, cap] and ramps up from the
   base: the first delay is at most 3x base. *)
let test_backoff_bounds () =
  let base_ms = 2.0 and cap_ms = 40.0 in
  List.iter
    (fun seed ->
      let b =
        Sparql_uo.Session.backoff ~base_ms ~cap_ms ~seed
          ~sleep:(fun _ -> ())
          ()
      in
      let first = Sparql_uo.Session.backoff_delay b in
      Alcotest.(check bool) "first delay within [base, 3*base]" true
        (first >= base_ms && first <= 3.0 *. base_ms);
      for _ = 1 to 50 do
        let d = Sparql_uo.Session.backoff_delay b in
        Alcotest.(check bool) "delay within [base, cap]" true
          (d >= base_ms && d <= cap_ms)
      done)
    [ 1; 2; 3; 42; 1337 ]

(* A transient-failure retry actually draws from the schedule: one
   one-shot injected fault forces exactly one retry, so the captured
   sleep fires exactly once, with an in-range delay. *)
let test_retry_sleeps_with_backoff () =
  let session = Sparql_uo.Session.create (store_of [ triple 0 1 ]) in
  let slept = ref [] in
  let backoff =
    Sparql_uo.Session.backoff ~base_ms:1.0 ~cap_ms:50.0 ~seed:5
      ~sleep:(fun ms -> slept := ms :: !slept)
      ()
  in
  let faults = [ Sparql_uo.Governor.fault ~site:"scan" ~after:1 ] in
  let report =
    Sparql_uo.Session.run ~retries:2 ~faults ~backoff session
      "SELECT * WHERE { ?x <http://t/p0> ?y . }"
  in
  Alcotest.(check int) "retry succeeded after the one-shot fault" 1
    (count report);
  Alcotest.(check int) "exactly one backoff sleep" 1 (List.length !slept);
  List.iter
    (fun ms ->
      Alcotest.(check bool) "slept an in-range delay" true
        (ms >= 1.0 && ms <= 50.0))
    !slept

let () =
  Alcotest.run "session"
    [
      ( "prepared",
        [ QCheck_alcotest.to_alcotest prop_prepared_reexecution_stable ] );
      ( "invalidation",
        [
          Alcotest.test_case "updates keep the cache warm" `Quick
            test_update_keeps_cache_warm;
          Alcotest.test_case "compaction invalidates plans" `Quick
            test_compaction_invalidates_plans;
          Alcotest.test_case "update refreshes stats" `Quick
            test_update_refreshes_stats;
          Alcotest.test_case "VALUES interning keeps the cache" `Quick
            test_values_interning_keeps_cache;
          Alcotest.test_case "concurrent interning" `Quick
            test_concurrent_interning;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "commit/abort visibility" `Quick
            test_txn_commit_abort;
          Alcotest.test_case "update WHERE uses the plan cache" `Quick
            test_update_where_uses_cache;
          QCheck_alcotest.to_alcotest prop_snapshot_isolation;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "capacity validation" `Quick
            test_capacity_validation;
          Alcotest.test_case "key includes mode and engine" `Quick
            test_cache_key_includes_mode_engine;
        ] );
      ( "explain",
        [
          Alcotest.test_case "cache and epoch provenance" `Quick
            test_explain_reports_cache_and_epoch;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "4-domain shared session" `Quick
            test_concurrent_session_runs;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "deterministic under a seed" `Quick
            test_backoff_deterministic;
          Alcotest.test_case "delays within [base, cap]" `Quick
            test_backoff_bounds;
          Alcotest.test_case "retries sleep through the schedule" `Quick
            test_retry_sleeps_with_backoff;
        ] );
    ]
