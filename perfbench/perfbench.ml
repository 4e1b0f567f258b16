(* The repository benchmark: a closed-loop client (one caller, each
   request sent after the previous one returns) driving a durable
   session — query text in, decoded rows out; commit call in, durable
   ack out — for a fixed number of seconds, then one JSON result line.

   Every workload runs the traffic mix the repository's serving bench
   documents (README "serving", DESIGN.md): 95% reads, 5% commits — one
   commit after every 19 reads — on a write-ahead-logged store under the
   every-commit sync policy.
   - lubm: reads draw one of the paper's twelve LUBM OPTIONAL/UNION
     queries with the serving bench's skew (query i with
     weight 1/(i+1)^2, in the paper's order); commits insert or delete
     one triple on a predicate the queries never read. Query texts
     repeat, so after set-up every read is a plan-cache hit. Each result
     is checked against the paper's Base configuration on the hash
     engine, evaluated once after set-up.
   - durable: ad hoc reads and commits on LUBM. Each read is an
     OPTIONAL/UNION query about one student, with the student's IRI in
     the text, so nearly every read misses the plan cache and parses and
     plans afresh. Each commit adds or drops takesCourse facts that half
     of the reads return. Reads are checked against a model of the store
     kept here; at the end the store is reopened from its log and the
     recovered facts are checked against the same model.

   Set-up (loading the generated triples, opening the durable store,
   which writes its first checkpoint, and preparing the query set) runs
   several times per run; [setup_s] is the median.

   One closed-loop client on one domain: the write-ahead log's group
   commit (concurrent committers sharing an fsync) and the parallel
   evaluator's domain pool are not exercised.

   Usage: perfbench --workload lubm|durable --seed N --seconds S
                    --trace 0|1 [--spans FILE]
   With --trace 0 the result line carries the end-to-end metrics, with
   --trace 1 the per-layer ones, taken from spans recorded around each
   call into a layer. *)

open Sparql_uo

let setups = 11

(* The serving mix: a commit after every [reads_per_commit] reads, and
   read i of a query list drawn with weight 1/(i+1)^2. *)
let reads_per_commit = 19
let mix_weights n = Array.init n (fun i -> 1. /. float_of_int ((i + 1) * (i + 1)))

let draw rng weights =
  let x = Random.State.float rng (Array.fold_left ( +. ) 0. weights) in
  let rec go i acc =
    let acc = acc +. weights.(i) in
    if i = Array.length weights - 1 || x < acc then i else go (i + 1) acc
  in
  go 0 0.

(* Writes toggle facts within a fixed pool (tick slots, enrolment
   pairs), so the store's delta stays bounded and every run measures
   the same steady state: commit cost grows with the delta, and an
   unbounded one would make the figures depend on how many commits the
   run managed. *)
let tick_slots = 32
let write_pairs = 256
let run_dir = ".perfbench_run"

(* ---------------------------------------------------------------- *)
(* Helpers                                                           *)
(* ---------------------------------------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir tag =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
  let d = Filename.concat run_dir (Printf.sprintf "%d-%s" (Unix.getpid ()) tag) in
  rm_rf d;
  d

(* Growable sample buffer. *)
type samples = { mutable xs : float array; mutable n : int }

let samples () = { xs = Array.make 64 0.; n = 0 }

let push s x =
  if s.n = Array.length s.xs then begin
    let bigger = Array.make (2 * s.n) 0. in
    Array.blit s.xs 0 bigger 0 s.n;
    s.xs <- bigger
  end;
  s.xs.(s.n) <- x;
  s.n <- s.n + 1

(* Linear-interpolated quantile, [q] in [0, 1]. *)
let quantile s q =
  if s.n = 0 then nan
  else begin
    let a = Array.sub s.xs 0 s.n in
    Array.sort compare a;
    let pos = q *. float_of_int (s.n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= s.n then a.(i) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
  end

let median_of l =
  let s = samples () in
  List.iter (push s) l;
  quantile s 0.5

(* An order-independent fingerprint of a bag of decoded solutions: the
   row count and the sum of the rows' hashes. *)
type fingerprint = { rows : int; sum : int }

let row_hash solution =
  List.fold_left
    (fun h (v, term) -> (h * 31) + Hashtbl.hash v + (7 * Rdf.Term.hash term))
    17 solution

let fingerprint solutions =
  List.fold_left
    (fun fp sol -> { rows = fp.rows + 1; sum = fp.sum + row_hash sol })
    { rows = 0; sum = 0 } solutions

(* ---------------------------------------------------------------- *)
(* Datasets                                                          *)
(* ---------------------------------------------------------------- *)

(* The dataset is fixed: the generator's size swings by tens of percent
   between generator seeds at this scale, which would bury any change
   in the program under input variance. The benchmark seed drives the
   operation stream instead (query order, reads' constants, writes). *)
let lubm_triples () =
  Array.of_list
    (Workload.Lubm.generate
       { Workload.Lubm.default with universities = 13; density = 0.15 })

(* ---------------------------------------------------------------- *)
(* Set-up                                                            *)
(* ---------------------------------------------------------------- *)

type state = {
  trace : Trace.t;
  mutable req : int;  (* next request id *)
  mutable prepared : int;  (* plans built (set-up and plan misses) *)
}

let next_req st =
  let r = st.req in
  st.req <- r + 1;
  r

(* Every session here is durable, so it has a log. *)
let wal_stats session =
  Rdf_store.Wal.stats (Option.get (Rdf_store.Mvcc.wal (Session.mvcc session)))

let close session =
  Option.iter Rdf_store.Wal.close (Rdf_store.Mvcc.wal (Session.mvcc session))

(* Load [triples] into a fresh durable store under [dir] and prepare
   [texts]; returns the session and the elapsed seconds. *)
let setup st ~triples ~dir ~texts =
  let req = next_req st in
  let t0 = Trace.now () in
  let session =
    Trace.span st.trace ~req ~parent:(-1) "setup" (fun root ->
        let store =
          Trace.span st.trace ~req ~parent:root "store.load" (fun _ ->
              Rdf_store.Triple_store.of_iter (fun emit -> Array.iter emit triples))
        in
        let session =
          Trace.span st.trace ~req ~parent:root "store.open" (fun _ ->
              fst
                (Session.open_dir ~policy:Rdf_store.Wal.Every_commit
                   ~init:(fun () -> store)
                   dir))
        in
        List.iter
          (fun text ->
            Trace.span st.trace ~req ~parent:root "session.prepare" (fun sid ->
                let p = Session.prepare session text in
                st.prepared <- st.prepared + 1;
                Trace.reported st.trace ~req ~parent:sid ~until:(Trace.now ())
                  "plan.transform" (Prepared.transform_ms p)))
          texts;
        session)
  in
  (session, Trace.now () -. t0)

(* Runs set-up [setups] times, keeping the last session; returns it with
   the median set-up time. *)
let setup_repeated st ~triples ~texts =
  let times = ref [] in
  let rec go i =
    let dir = fresh_dir (Printf.sprintf "store%d" i) in
    let session, dt = setup st ~triples ~dir ~texts in
    times := dt :: !times;
    if i + 1 < setups then begin
      close session;
      rm_rf dir;
      Gc.full_major ();
      go (i + 1)
    end
    else (session, dir)
  in
  let session, dir = go 0 in
  (session, dir, median_of !times)

(* ---------------------------------------------------------------- *)
(* Operations                                                        *)
(* ---------------------------------------------------------------- *)

(* Per-run accumulators. *)
type run = {
  kinds : string array;  (* query kinds; commits are kept apart *)
  lat : samples array;  (* per query kind, ms *)
  cpu : samples array;  (* per query kind, process CPU ms *)
  commit_lat : samples;
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : int;
  mutable log_join_space : float;  (* sum of log10 (1 + JS) *)
  mutable pushed_rows : int;
  mutable bgp_evals : int;
  mutable prefilter_checks : int;
  mutable prefilter_rejects : int;
  mutable isect_values : int;
  mutable hits : int;
  mutable misses : int;
  mutable alloc_words : float;
}

let new_run kinds =
  {
    kinds;
    lat = Array.map (fun _ -> samples ()) kinds;
    cpu = Array.map (fun _ -> samples ()) kinds;
    commit_lat = samples ();
    attempted = 0;
    failed = 0;
    mismatches = 0;
    log_join_space = 0.;
    pushed_rows = 0;
    bgp_evals = 0;
    prefilter_checks = 0;
    prefilter_rejects = 0;
    isect_values = 0;
    hits = 0;
    misses = 0;
    alloc_words = 0.;
  }

let queries r = Array.fold_left (fun acc s -> acc + s.n) 0 r.lat

(* Seconds of CPU the process has used, user and system. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* One read: Session.run then decoding, timed as one request, on the
   wall clock and in process CPU time. Returns the decoded solutions, or
   [None] if the run was killed. *)
let read st r session ~kind text =
  let req = next_req st in
  r.attempted <- r.attempted + 1;
  let words0 = Gc.minor_words () in
  let cpu0 = cpu_now () in
  let t0 = Trace.now () in
  let result =
    match
      Trace.span st.trace ~req ~parent:(-1) "query" (fun root ->
          let report =
            Trace.span st.trace ~req ~parent:root "session.run" (fun sid ->
                let report = Session.run session text in
                let until = Trace.now () in
                Trace.reported st.trace ~req ~parent:sid ~until "engine.exec"
                  report.Executor.exec_ms;
                (match report.Executor.cache with
                | Some { Executor.hit = false; _ } ->
                    st.prepared <- st.prepared + 1;
                    Trace.reported st.trace ~req ~parent:sid
                      ~until:(until -. (report.Executor.exec_ms /. 1000.))
                      "plan.transform" report.Executor.transform_ms
                | _ -> ());
                report)
          in
          let solutions =
            Trace.span st.trace ~req ~parent:root "decode" (fun _ ->
                Executor.solutions (Session.store session) report)
          in
          (report, solutions))
    with
    | report, solutions when report.Executor.failure = None -> Some (report, solutions)
    | _ -> None
    | exception _ -> None
  in
  let ms = (Trace.now () -. t0) *. 1000. in
  let cpu_ms = (cpu_now () -. cpu0) *. 1000. in
  r.alloc_words <- r.alloc_words +. (Gc.minor_words () -. words0);
  match result with
  | None ->
      r.failed <- r.failed + 1;
      None
  | Some (report, solutions) ->
      push r.lat.(kind) ms;
      push r.cpu.(kind) cpu_ms;
      r.pushed_rows <- r.pushed_rows + report.Executor.pushed_rows;
      (match report.Executor.cache with
      | Some { Executor.hit = true; _ } -> r.hits <- r.hits + 1
      | Some _ -> r.misses <- r.misses + 1
      | None -> ());
      (match report.Executor.eval_stats with
      | Some es ->
          r.log_join_space <-
            r.log_join_space +. Float.log10 (1. +. es.Evaluator.join_space);
          r.bgp_evals <- r.bgp_evals + es.Evaluator.bgp_evals;
          r.prefilter_checks <-
            r.prefilter_checks + es.Evaluator.prefilter.Engine.Candidates.checks;
          r.prefilter_rejects <-
            r.prefilter_rejects + es.Evaluator.prefilter.Engine.Candidates.rejects;
          r.isect_values <-
            r.isect_values + es.Evaluator.isect.Engine.Intersect.domain_values
      | None -> ());
      Some solutions

(* One commit of [inserts]/[deletes] through the session; false if it
   raised. Inside Session.commit, the store's failpoint sites (see
   [main]) split the call into: folding the ops into the delta and
   encoding the log body (up to wal.record), writing the body frame
   (wal.record to wal.marker), writing the marker frame and publishing
   the new delta generation (wal.marker to wal.sync.pre), and the fsync
   (wal.sync.pre to wal.sync.post). *)
let commit st r session ~inserts ~deletes =
  let req = next_req st in
  r.attempted <- r.attempted + 1;
  let words0 = Gc.minor_words () in
  let t0 = Trace.now () in
  let ok =
    match
      Trace.span st.trace ~req ~parent:(-1) "commit" (fun root ->
          let txn =
            Trace.span st.trace ~req ~parent:root "txn.buffer" (fun _ ->
                let txn = Session.begin_txn session in
                List.iter (Rdf_store.Mvcc.insert txn) inserts;
                List.iter (Rdf_store.Mvcc.delete txn) deletes;
                txn)
          in
          Trace.span st.trace ~req ~parent:root "session.commit" (fun sid ->
              Trace.clear_marks st.trace;
              Trace.mark st.trace "commit";
              Session.commit session txn;
              let between = Trace.between st.trace ~req ~parent:sid in
              between "commit.fold" "commit" "wal.record";
              between "wal.body" "wal.record" "wal.marker";
              between "commit.publish" "wal.marker" "wal.sync.pre";
              between "wal.fsync" "wal.sync.pre" "wal.sync.post"))
    with
    | () -> true
    | exception _ -> false
  in
  let ms = (Trace.now () -. t0) *. 1000. in
  r.alloc_words <- r.alloc_words +. (Gc.minor_words () -. words0);
  if ok then push r.commit_lat ms else r.failed <- r.failed + 1;
  ok

(* ---------------------------------------------------------------- *)
(* Workloads                                                         *)
(* ---------------------------------------------------------------- *)

let tick_p = Rdf.Term.iri "http://perfbench.example/tick"

let tick i =
  Rdf.Triple.make
    (Rdf.Term.iri (Printf.sprintf "http://perfbench.example/s%d" i))
    tick_p
    (Rdf.Term.iri (Printf.sprintf "http://perfbench.example/o%d" i))

(* Runs [op] back to back for [seconds], after compacting the heap so
   set-up garbage is not collected inside the measured window. *)
let measure ~seconds op =
  Gc.compact ();
  let deadline = Trace.now () +. seconds in
  while Trace.now () < deadline do
    op ()
  done

(* Triples of [p] in the current snapshot. *)
let count_p session p =
  let snap = Session.snapshot session in
  match Rdf_store.Snapshot.encode_term snap p with
  | None -> 0
  | Some p -> Rdf_store.Snapshot.count snap ~p ()

(* The paper's LUBM query set. *)
let paper st ~triples ~seed ~seconds =
  let entries = Array.of_list (Workload.Queries.all Workload.Queries.Lubm) in
  let texts = Array.map (fun e -> e.Workload.Queries.text) entries in
  let session, dir, setup_s = setup_repeated st ~triples ~texts:(Array.to_list texts) in
  (* The reference: Base mode (no transformation, no pruning) on the
     hash engine, static — none of the machinery the measured runs use
     beyond parsing and the store. *)
  let expected =
    Array.map
      (fun text ->
        let report =
          Executor.run ~mode:Executor.Base ~engine:Engine.Bgp_eval.Hash_join
            ~adaptive:false (Session.store session) text
        in
        fingerprint (Executor.solutions (Session.store session) report))
      texts
  in
  let r = new_run (Array.map (fun e -> e.Workload.Queries.id) entries) in
  let rng = Random.State.make [| seed; 0x9e11 |] in
  let weights = mix_weights (Array.length entries) in
  (* Each commit inserts or deletes the next tick slot. *)
  let live = Array.make tick_slots false and next = ref 0 in
  let commit_tick () =
    let slot = !next mod tick_slots in
    incr next;
    let change = [ tick slot ] in
    let inserts, deletes = if live.(slot) then ([], change) else (change, []) in
    if commit st r session ~inserts ~deletes then live.(slot) <- not live.(slot)
  in
  measure ~seconds (fun () ->
      for _ = 1 to reads_per_commit do
        let kind = draw rng weights in
        match read st r session ~kind texts.(kind) with
        | Some solutions ->
            if fingerprint solutions <> expected.(kind) then
              r.mismatches <- r.mismatches + 1
        | None -> ()
      done;
      commit_tick ());
  let final_ok =
    count_p session tick_p = Array.fold_left (fun n l -> if l then n + 1 else n) 0 live
  in
  if not final_ok then r.mismatches <- r.mismatches + 1;
  let wal = wal_stats session in
  close session;
  rm_rf dir;
  (r, setup_s, wal, weights)

(* The durable read/write stream over LUBM. *)
let ub s = Rdf.Term.iri (Rdf.Namespace.ub s)

let durable st ~triples ~seed ~seconds =
  let takes_p = ub "takesCourse" and ta_p = ub "teachingAssistantOf"
  and teacher_p = ub "teacherOf" and email_p = ub "emailAddress" in
  (* The model: student -> courses taken (mutable), plus the static
     relations the read query joins with. *)
  let takes : (Rdf.Term.t, (Rdf.Term.t, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 4096 in
  let ta = Hashtbl.create 1024 and teachers = Hashtbl.create 1024
  and emails = Hashtbl.create 4096 in
  let courses = Hashtbl.create 1024 and enrolled = ref [] in
  let courses_of s =
    match Hashtbl.find_opt takes s with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 8 in
        Hashtbl.replace takes s h;
        h
  in
  (* The store keeps a set of triples; so does the model. *)
  let distinct = Hashtbl.create 65536 in
  Array.iter (fun t -> Hashtbl.replace distinct t ()) triples;
  Hashtbl.iter
    (fun { Rdf.Triple.s; p; o } () ->
      if Rdf.Term.equal p takes_p then begin
        enrolled := (s, o) :: !enrolled;
        Hashtbl.replace (courses_of s) o ();
        Hashtbl.replace courses o ()
      end
      else if Rdf.Term.equal p ta_p then Hashtbl.add ta s o
      else if Rdf.Term.equal p teacher_p then begin
        Hashtbl.add teachers o s;
        Hashtbl.replace courses o ()
      end
      else if Rdf.Term.equal p email_p then Hashtbl.add emails s o)
    distinct;
  let students = Array.of_seq (Hashtbl.to_seq_keys takes) in
  Array.sort Rdf.Term.compare students;
  let courses = Array.of_seq (Hashtbl.to_seq_keys courses) in
  Array.sort Rdf.Term.compare courses;
  let enrolled = Array.of_list (List.sort compare !enrolled) in
  let query_text student =
    Printf.sprintf
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n\
       SELECT ?c ?t ?e WHERE {\n\
      \  { %s ub:takesCourse ?c } UNION { %s ub:teachingAssistantOf ?c }\n\
      \  OPTIONAL { ?t ub:teacherOf ?c . OPTIONAL { ?t ub:emailAddress ?e } } }"
      (Rdf.Term.to_ntriples student) (Rdf.Term.to_ntriples student)
  in
  let expected student =
    let cs =
      Hashtbl.fold (fun c () acc -> c :: acc) (courses_of student) []
      @ Hashtbl.find_all ta student
    in
    let rows =
      List.concat_map
        (fun c ->
          match Hashtbl.find_all teachers c with
          | [] -> [ [ ("c", c) ] ]
          | ts ->
              List.concat_map
                (fun t ->
                  match Hashtbl.find_all emails t with
                  | [] -> [ [ ("c", c); ("t", t) ] ]
                  | es -> List.map (fun e -> [ ("c", c); ("t", t); ("e", e) ]) es)
                ts)
        cs
    in
    fingerprint rows
  in
  let session, dir, setup_s = setup_repeated st ~triples ~texts:[] in
  let r = new_run [| "read" |] in
  let rng = Random.State.make [| seed; 0xd0ab |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  (* Enrolment changes: drop the course if the student takes it, add it
     otherwise. *)
  let toggles changes =
    let changes = List.map (fun (s, c) -> (s, c, Hashtbl.mem (courses_of s) c)) changes in
    let triples keep =
      List.filter_map
        (fun (s, c, has) -> if has = keep then Some (Rdf.Triple.make s takes_p c) else None)
        changes
    in
    let applied () =
      List.iter
        (fun (s, c, has) ->
          if has then Hashtbl.remove (courses_of s) c else Hashtbl.replace (courses_of s) c ())
        changes
    in
    (triples false, triples true, applied)
  in
  (* The write pool: [write_pairs / 2] enrolments the dataset has (a
     change deletes a base fact) and as many it lacks (a change inserts
     one). Half of each kind stands changed at any time: the warm-up
     commit changes them, and each measured commit reverts one changed
     pair and changes one kept pair of one kind, the kinds taking turns.
     So the delta holds the same deletions and insertions count all run
     long — commits and reads cost more as it grows, and reads more
     again while it holds deletions. *)
  let kind gen =
    let seen = Hashtbl.create write_pairs in
    while Hashtbl.length seen < write_pairs / 2 do
      Hashtbl.replace seen (gen ()) ()
    done;
    let a = Array.of_seq (Hashtbl.to_seq_keys seen) in
    Array.sort compare a;
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    let h = Array.length a / 2 in
    (Array.sub a 0 h, Array.sub a h (Array.length a - h))
  in
  let rec unenrolled () =
    let s = pick students and c = pick courses in
    if Hashtbl.mem (courses_of s) c then unenrolled () else (s, c)
  in
  let kinds = [| kind (fun () -> pick enrolled); kind unenrolled |] in
  let pool = Array.concat (List.concat_map (fun (a, b) -> [ a; b ]) (Array.to_list kinds)) in
  let inserts, deletes, applied =
    toggles (List.concat_map (fun (changed, _) -> Array.to_list changed) (Array.to_list kinds))
  in
  let txn = Session.begin_txn session in
  List.iter (Rdf_store.Mvcc.insert txn) inserts;
  List.iter (Rdf_store.Mvcc.delete txn) deletes;
  Session.commit session txn;
  applied ();
  measure ~seconds (fun () ->
      for _ = 1 to reads_per_commit do
        (* Half the reads ask about a student the writes touch. *)
        let student = if Random.State.bool rng then fst (pick pool) else pick students in
        match read st r session ~kind:0 (query_text student) with
        | Some solutions ->
            if fingerprint solutions <> expected student then
              r.mismatches <- r.mismatches + 1
        | None -> ()
      done;
      let changed, kept = kinds.(r.commit_lat.n land 1) in
      let i = Random.State.int rng (Array.length changed)
      and j = Random.State.int rng (Array.length kept) in
      let inserts, deletes, applied = toggles [ changed.(i); kept.(j) ] in
      if commit st r session ~inserts ~deletes then begin
        applied ();
        let p = changed.(i) in
        changed.(i) <- kept.(j);
        kept.(j) <- p
      end);
  let wal = wal_stats session in
  close session;
  (* Recovery: reopen from the checkpoint plus the log; every
     acknowledged commit, the warm-up one too, must be back. *)
  let reopened, recovery = Session.open_dir ~policy:Rdf_store.Wal.Every_commit dir in
  let snap = Session.snapshot reopened in
  let model_total = Hashtbl.fold (fun _ h acc -> acc + Hashtbl.length h) takes 0 in
  let recovered_ok =
    count_p reopened takes_p = model_total
    && recovery.Rdf_store.Wal.replayed_txns = r.commit_lat.n + 1
    && Array.for_all
         (fun s ->
           match
             ( Rdf_store.Snapshot.encode_term snap s,
               Rdf_store.Snapshot.encode_term snap takes_p )
           with
           | Some s', Some p' ->
               Rdf_store.Snapshot.count snap ~s:s' ~p:p' ()
               = Hashtbl.length (courses_of s)
               && Hashtbl.fold
                    (fun c () ok ->
                      ok
                      &&
                      match Rdf_store.Snapshot.encode_term snap c with
                      | Some o' -> Rdf_store.Snapshot.contains snap ~s:s' ~p:p' ~o:o'
                      | None -> false)
                    (courses_of s) true
           | _ -> false)
         students
  in
  if not recovered_ok then r.mismatches <- r.mismatches + 1;
  close reopened;
  rm_rf dir;
  (r, setup_s, wal, [| 1. |])

(* ---------------------------------------------------------------- *)
(* Metrics and output                                                *)
(* ---------------------------------------------------------------- *)

let metric name value unit_ =
  if not (Float.is_finite value) then begin
    Printf.eprintf "perfbench: metric %s is not a number\n" name;
    exit 1
  end;
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit_

(* A read's figure under the mix: per-query quantiles of [lat] weighted
   by the mix's draw weights, which keeps the random draw counts out of
   it (and, over all reads, the tail from landing on the border between
   two queries' latencies). *)
let weighted ~weights lat q =
  let wsum = ref 0. and acc = ref 0. in
  Array.iteri
    (fun i s ->
      if s.n > 0 then begin
        wsum := !wsum +. weights.(i);
        acc := !acc +. (weights.(i) *. quantile s q)
      end)
    lat;
  !acc /. !wsum

(* The tails are p95, the highest percentile a 30-second run leaves at
   least ten samples beyond for the commits (about 300 on lubm, 500 on
   durable) and for the queries that carry nearly all of the mix's
   weight. The read tail is taken in CPU time: reads never wait for I/O
   or locks, so their wall-clock tail is CPU time plus the time other
   processes on a shared host held the processor, and that share swings
   from run to run (three busy loops beside the benchmark double the
   wall-clock p95 and leave the CPU-time p95 within 5%). The wall-clock
   read tail still goes to stderr. CPU time is the whole process's: a
   read spread over several domains counts each domain's share. *)
let end_to_end r ~weights ~setup_s =
  [
    metric "query_ms" (weighted ~weights r.lat 0.5) "ms";
    metric "query_cpu_p95_ms" (weighted ~weights r.cpu 0.95) "ms";
    metric "commit_ms" (quantile r.commit_lat 0.5) "ms";
    metric "commit_p95_ms" (quantile r.commit_lat 0.95) "ms";
    metric "setup_s" setup_s "s";
  ]

let per_layer st r ~wal =
  let q = float_of_int (max 1 (queries r)) in
  let c = float_of_int (max 1 r.commit_lat.n) in
  let ops = float_of_int (max 1 (queries r + r.commit_lat.n)) in
  let self name = Trace.self_seconds st.trace name *. 1000. in
  [
    metric "load_ms" (self "store.load" /. float_of_int setups) "ms";
    metric "open_ms" (self "store.open" /. float_of_int setups) "ms";
    metric "transform_ms" (self "plan.transform" /. float_of_int (max 1 st.prepared)) "ms";
    metric "session_ms" (self "session.run" /. q) "ms";
    metric "exec_ms" (self "engine.exec" /. q) "ms";
    metric "decode_ms" (self "decode" /. q) "ms";
    metric "txn_buffer_ms" (self "txn.buffer" /. c) "ms";
    metric "commit_fold_ms" (self "commit.fold" /. c) "ms";
    metric "wal_body_ms" (self "wal.body" /. c) "ms";
    metric "commit_publish_ms" (self "commit.publish" /. c) "ms";
    metric "wal_fsync_ms" (self "wal.fsync" /. c) "ms";
    metric "join_space_log10" (r.log_join_space /. q) "log10";
    metric "pushed_rows" (float_of_int r.pushed_rows /. q) "count";
    metric "bgp_evals" (float_of_int r.bgp_evals /. q) "count";
    metric "prefilter_checks" (float_of_int r.prefilter_checks /. q) "count";
    metric "prefilter_reject_rate"
      (float_of_int r.prefilter_rejects /. float_of_int (max 1 r.prefilter_checks))
      "ratio";
    metric "isect_values" (float_of_int r.isect_values /. q) "count";
    metric "plan_cache_hit_rate"
      (float_of_int r.hits /. float_of_int (max 1 (r.hits + r.misses)))
      "ratio";
    metric "fsyncs_per_commit" (float_of_int wal.Rdf_store.Wal.syncs /. c) "count";
    metric "wal_bytes_per_commit"
      (float_of_int wal.Rdf_store.Wal.appended_bytes /. c)
      "bytes";
    metric "alloc_kwords_per_op" (r.alloc_words /. ops /. 1000.) "kword";
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0
  and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "lubm|durable");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--spans", Arg.Set_string spans, "FILE write the recorded spans as JSON lines");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  let st = { trace = Trace.create ~on:(!trace = 1); req = 0; prepared = 0 } in
  (* Stamp the store's failpoint sites on their way to the usual
     handler, which stays a no-op unless a fault schedule is armed. *)
  Rdf_store.Failpoint.set_handler (fun site ->
      Trace.mark st.trace site;
      Sparql.Governor.failpoint site);
  let r, setup_s, wal, weights =
    match !workload with
    | "lubm" -> paper st ~triples:(lubm_triples ()) ~seed:!seed ~seconds:!seconds
    | "durable" -> durable st ~triples:(lubm_triples ()) ~seed:!seed ~seconds:!seconds
    | w ->
        prerr_endline ("perfbench: unknown workload " ^ w);
        exit 2
  in
  (try Unix.rmdir run_dir with Unix.Unix_error _ -> ());
  if !spans <> "" then Trace.write st.trace !spans;
  let e2e = end_to_end r ~weights ~setup_s in
  let metrics = if !trace = 1 then per_layer st r ~wal else e2e in
  (* The end-to-end figures go to stderr in traced runs too: their
     difference from an untraced run is the tracing overhead. *)
  Printf.eprintf
    "perfbench: %s seed %d: %d queries, %d commits, %d mismatches\n  %s\n  wall-clock read p95: %.3f ms\n"
    !workload !seed (queries r) r.commit_lat.n r.mismatches (String.concat "\n  " e2e)
    (weighted ~weights r.lat 0.95);
  let show name s cpu =
    Printf.eprintf "  %-8s n=%-6d p50=%.3f ms  p95=%.3f ms  p99=%.3f ms%s\n" name s.n
      (quantile s 0.5) (quantile s 0.95) (quantile s 0.99)
      (match cpu with
      | Some c -> Printf.sprintf "  cpu p50=%.3f ms  p95=%.3f ms" (quantile c 0.5) (quantile c 0.95)
      | None -> "")
  in
  Array.iteri (fun i name -> show name r.lat.(i) (Some r.cpu.(i))) r.kinds;
  show "commit" r.commit_lat None;
  flush stderr;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.mismatches = 0 && r.failed = 0)
    r.attempted r.failed
    (String.concat ", " metrics)
