(* A morsel-driven work-stealing scheduler on stdlib [Domain] (no
   domainslib). A parallel operation is a *job*: its index range is cut
   into small fixed-size morsels, distributed as contiguous blocks over
   per-slot deques (one deque per domain, seeded front-to-back so the
   owner walks its block in range order). Each agent — worker domains and
   the submitting domain alike — pops from the front of its own deque and
   steals from the backs of the others when it runs dry, so load imbalance
   self-corrects at morsel granularity.

   Cross-domain control rides on the job: an atomic [stop] flag is checked
   at every morsel boundary, so a [Sink.Stop] (satisfied LIMIT) or a
   [Governor.Kill] raised inside one morsel parks every other domain
   within one morsel of work — streaming early termination and
   cancellation genuinely cross domains. The submitting domain's governor
   ticket travels with the job and is re-installed around every morsel,
   stolen or not, so all production charges the same per-query budget.

   Nested parallel calls (a Bag.join inside a parallel UNION branch) do
   not degrade to serial: the nested submitter seeds its own job into the
   shared scheduler, helps execute that job's morsels itself, and waits
   only for morsels in flight on other agents — no agent ever blocks
   holding work its own job needs, so there is no deadlock. Idle pool
   workers pick up morsels of any active job, giving nested jobs real
   parallelism. *)

(* {1 Morsel size} *)

let morsel_size = 64

(* {1 Scheduler counters}

   Charged to the ticket each job carries, so a query's report counts
   the morsels executed for it, the morsels stolen from another slot's
   deque, and its jobs stopped early by a cross-domain [Stop]. *)

type counters = { morsels : int; steals : int; stops : int }

let of_counts c =
  {
    morsels = Sparql.Governor.get c Morsels;
    steals = Sparql.Governor.get c Steals;
    stops = Sparql.Governor.get c Stops;
  }

(* {1 Agent identities}

   Every domain that participates (pool workers, the main domain, any
   nested submitter) is known by its process-unique domain id; jobs key
   per-agent state (accumulators, shard sinks, scratch) on it, and
   [id mod num_slots] picks the agent's own deque. *)

let agent_id () = (Domain.self () :> int)

(* {1 Morsel deques}

   Seeded once before the job is published, then popped concurrently:
   front by the owner, back by thieves. A plain mutex suffices — the
   critical section is an index comparison and one array read. *)

module Deque = struct
  type t = {
    items : (int * int) array;  (* (lo, hi) index ranges *)
    mutable head : int;
    mutable tail : int;  (* exclusive *)
    lock : Mutex.t;
  }

  let of_ranges ranges =
    let items = Array.of_list ranges in
    { items; head = 0; tail = Array.length items; lock = Mutex.create () }

  let pop_front d =
    Mutex.lock d.lock;
    let m =
      if d.head < d.tail then begin
        let m = d.items.(d.head) in
        d.head <- d.head + 1;
        Some m
      end
      else None
    in
    Mutex.unlock d.lock;
    m

  let pop_back d =
    Mutex.lock d.lock;
    let m =
      if d.head < d.tail then begin
        d.tail <- d.tail - 1;
        Some d.items.(d.tail)
      end
      else None
    in
    Mutex.unlock d.lock;
    m
end

(* {1 Jobs} *)

type job = {
  exec : agent:int -> lo:int -> hi:int -> unit;
      (* Runs indices [lo, hi) under [agent]'s private state; the
         accumulator/shard plumbing is closed over by the submitter. *)
  gov : Sparql.Governor.t;
  deques : Deque.t array;
  pending : int Atomic.t;  (* morsels not yet finished (queued or running) *)
  stop : bool Atomic.t;
  stopped_early : bool Atomic.t;  (* [stop] was a Sink.Stop, not a failure *)
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
}

type t = {
  num_domains : int;
  mutex : Mutex.t;  (* guards [active], [version], [stopped]; pairs with [wake] *)
  wake : Condition.t;
  mutable active : job list;
  mutable version : int;  (* bumped on submission: workers' lost-wakeup guard *)
  mutable workers : unit Domain.t list;
  mutable stopped : bool;
}

let num_domains pool = pool.num_domains

(* About four steal targets per slot over a range of [n] indices, clamped
   so tiny ranges still spread and huge ranges amortize deque traffic. *)
let adaptive_morsel pool ~n =
  max 16 (min morsel_size (n / max 1 (4 * pool.num_domains)))

(* Claim a morsel of [job] for [agent]: own deque front first, then sweep
   the other deques back-to-front. Returns the range and whether it was
   stolen. *)
let claim job ~agent =
  let slots = Array.length job.deques in
  let own = agent mod slots in
  match Deque.pop_front job.deques.(own) with
  | Some m -> Some (m, false)
  | None ->
      let rec sweep k =
        if k >= slots then None
        else
          match Deque.pop_back job.deques.((own + k) mod slots) with
          | Some m -> Some (m, true)
          | None -> sweep (k + 1)
      in
      sweep 1

(* Execute one claimed morsel. The job's ticket is installed for the
   duration (stolen morsels charge the submitter's budget) and
   budget-independent kill conditions (cancellation, deadline) are
   checked at the boundary, so kill latency is bounded by one morsel of
   work even on domains that produce no rows. A stopped job's remaining
   morsels fall through to the completion accounting untouched. The
   scheduler counters are charged to the job's ticket. *)
let run_morsel pool job ~agent ~stolen (lo, hi) =
  if stolen then Sparql.Governor.count job.gov Steals 1;
  Sparql.Governor.count job.gov Morsels 1;
  (if not (Atomic.get job.stop) then
     try
       Sparql.Governor.with_ticket job.gov (fun () ->
           Sparql.Governor.tick job.gov;
           job.exec ~agent ~lo ~hi)
     with
     | Sparql.Sink.Stop ->
         Atomic.set job.stopped_early true;
         Atomic.set job.stop true;
         Sparql.Governor.count job.gov Stops 1
     | exn ->
         let bt = Printexc.get_raw_backtrace () in
         ignore (Atomic.compare_and_set job.failure None (Some (exn, bt)));
         Atomic.set job.stop true);
  if Atomic.fetch_and_add job.pending (-1) = 1 then begin
    (* Last morsel: retire the job and wake its submitter. *)
    Mutex.lock pool.mutex;
    pool.active <- List.filter (fun j -> j != job) pool.active;
    Condition.broadcast pool.wake;
    Mutex.unlock pool.mutex
  end

(* The pool workers' loop: claim a morsel of any active job; when none is
   claimable, sleep until a submission bumps [version] (completion
   broadcasts also wake us, harmlessly). *)
let worker_loop pool =
  let agent = agent_id () in
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    if pool.stopped then begin
      running := false;
      Mutex.unlock pool.mutex
    end
    else begin
      let v = pool.version in
      let jobs = pool.active in
      Mutex.unlock pool.mutex;
      let rec try_jobs = function
        | [] -> None
        | job :: rest -> (
            match claim job ~agent with
            | Some (m, stolen) -> Some (job, m, stolen)
            | None -> try_jobs rest)
      in
      match try_jobs jobs with
      | Some (job, m, stolen) -> run_morsel pool job ~agent ~stolen m
      | None ->
          Mutex.lock pool.mutex;
          if (not pool.stopped) && pool.version = v then
            Condition.wait pool.wake pool.mutex;
          Mutex.unlock pool.mutex
    end
  done

let create ~num_domains =
  let num_domains = max 1 num_domains in
  let pool =
    {
      num_domains;
      mutex = Mutex.create ();
      wake = Condition.create ();
      active = [];
      version = 0;
      workers = [];
      stopped = false;
    }
  in
  pool.workers <-
    List.init (num_domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stopped <- true;
  Condition.broadcast pool.wake;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.workers;
  pool.workers <- []

(* Seed one deque per slot with a contiguous block of the range, each
   block cut into [morsel]-sized ranges. Returns the deques and the total
   morsel count. *)
let seed_deques ~slots ~lo ~hi ~morsel =
  let n = hi - lo in
  let block = (n + slots - 1) / slots in
  let total = ref 0 in
  let deques =
    Array.init slots (fun s ->
        let b_lo = min hi (lo + (s * block)) in
        let b_hi = min hi (b_lo + block) in
        let rec cut acc m_lo =
          if m_lo >= b_hi then List.rev acc
          else
            let m_hi = min b_hi (m_lo + morsel) in
            cut ((m_lo, m_hi) :: acc) m_hi
        in
        let ranges = cut [] b_lo in
        total := !total + List.length ranges;
        Deque.of_ranges ranges)
  in
  (deques, !total)

(* Submit a job and participate until it completes: claim our own job's
   morsels while any are queued, then wait for the in-flight remainder.
   The submitter may itself be a pool worker executing a morsel of an
   outer job (nested parallelism) — it helps rather than blocks, and the
   morsels it cannot claim are by definition running on other agents, so
   the wait is deadlock-free. *)
let submit_and_wait pool ~lo ~hi ~morsel ~exec =
  let gov = Sparql.Governor.current () in
  let deques, total = seed_deques ~slots:pool.num_domains ~lo ~hi ~morsel in
  let job =
    {
      exec;
      gov;
      deques;
      pending = Atomic.make total;
      stop = Atomic.make false;
      stopped_early = Atomic.make false;
      failure = Atomic.make None;
    }
  in
  if total > 0 then begin
    Mutex.lock pool.mutex;
    pool.active <- pool.active @ [ job ];
    pool.version <- pool.version + 1;
    Condition.broadcast pool.wake;
    Mutex.unlock pool.mutex;
    let agent = agent_id () in
    let helping = ref true in
    while !helping do
      match claim job ~agent with
      | Some (m, stolen) -> run_morsel pool job ~agent ~stolen m
      | None ->
          Mutex.lock pool.mutex;
          while Atomic.get job.pending > 0 do
            Condition.wait pool.wake pool.mutex
          done;
          Mutex.unlock pool.mutex;
          helping := false
    done
  end;
  job

(* Re-raise a worker failure (with its backtrace) in the submitter. *)
let check_failure job =
  match Atomic.get job.failure with
  | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> ()

(* Lazily-created per-agent state for one job, built serially under a
   job-local lock (an agent first touches its state at most once per job,
   and morsel bodies hold no other locks, so the critical section cannot
   deadlock). *)
let per_agent create =
  let lock = Mutex.create () in
  let table = ref [] in
  let get agent =
    Mutex.lock lock;
    match List.assoc_opt agent !table with
    | Some v ->
        Mutex.unlock lock;
        v
    | None ->
        let v = create () in
        table := (agent, v) :: !table;
        Mutex.unlock lock;
        v
  in
  let all () = List.rev_map snd !table in
  (get, all)

(* [accumulate pool ~lo ~hi ~create ~body] runs [body acc i] for every
   [lo <= i < hi], where each participating agent folds into its own
   accumulator from [create]; returns every accumulator. Serial when the
   pool is size 1 (nested calls no longer degrade — they seed their own
   job into the shared scheduler). *)
let accumulate pool ?morsel ~lo ~hi ~create ~body () =
  let n = hi - lo in
  if n <= 0 then []
  else if pool.num_domains <= 1 then begin
    let acc = create () in
    for i = lo to hi - 1 do
      body acc i
    done;
    [ acc ]
  end
  else begin
    let morsel = match morsel with Some m -> max 1 m | None -> morsel_size in
    let acc_for, all_accs = per_agent create in
    let exec ~agent ~lo ~hi =
      let acc = acc_for agent in
      for i = lo to hi - 1 do
        body acc i
      done
    in
    let job = submit_and_wait pool ~lo ~hi ~morsel ~exec in
    check_failure job;
    if Atomic.get job.stopped_early then raise Sparql.Sink.Stop;
    all_accs ()
  end

let parallel_iter pool ?morsel ~lo ~hi f =
  ignore
    (accumulate pool ?morsel ~lo ~hi
       ~create:(fun () -> ())
       ~body:(fun () i -> f i)
       ())

let parallel_map pool ?morsel ~lo ~hi f =
  let n = max 0 (hi - lo) in
  let results = Array.make n None in
  parallel_iter pool ?morsel ~lo ~hi (fun i -> results.(i - lo) <- Some (f i));
  (* Every slot was written exactly once (or an exception propagated). *)
  Array.map Option.get results

(* Streaming fan-out: [body local shard i] emits the rows of index [i]
   into [shard], the calling agent's private shard of [sink] (see
   [Sink.fork]); [local] is the agent's scratch state. After the job
   quiesces the shards drain serially into the pipeline; a [Stop] —
   whether raised by a worker's shard mid-job or by the serial pipeline
   during the drain — re-raises here, so callers observe exactly the
   serial early-termination protocol. With an unforkable sink (custom
   terminal) or a size-1 pool the loop runs serially over [sink] itself,
   with the same per-morsel governor tick. *)
let stream pool ?morsel ~lo ~hi ~sink ~local ~body () =
  let n = hi - lo in
  if n <= 0 then ()
  else
    let morsel = match morsel with Some m -> max 1 m | None -> morsel_size in
    let serial () =
      let gov = Sparql.Governor.current () in
      let scratch = local () in
      let i = ref lo in
      while !i < hi do
        let stop = min hi (!i + morsel) in
        Sparql.Governor.tick gov;
        while !i < stop do
          body scratch sink !i;
          incr i
        done
      done
    in
    if pool.num_domains <= 1 then serial ()
    else
      match Sparql.Sink.fork sink with
      | None -> serial ()
      | Some fork ->
          let state_for, _ = per_agent (fun () -> (local (), fork.Sparql.Sink.new_shard ())) in
          let exec ~agent ~lo ~hi =
            let scratch, shard = state_for agent in
            for i = lo to hi - 1 do
              body scratch shard i
            done
          in
          let job = submit_and_wait pool ~lo ~hi ~morsel ~exec in
          check_failure job;
          (* Merge what the shards retained into the serial pipeline;
             [drain] re-raises [Stop] if the pipeline stopped during the
             merge, and a worker-side stop re-raises regardless, so outer
             producers unwind exactly as in a serial early termination. *)
          fork.Sparql.Sink.drain ();
          if Atomic.get job.stopped_early then raise Sparql.Sink.Stop

(* ------------------------------------------------------------------ *)
(* The process-global pool behind the executor's [~domains] knob.      *)
(* ------------------------------------------------------------------ *)

let global_pool : t option ref = ref None
let global_mutex = Mutex.create ()

(* Grow-only: a pool at least as large as requested is reused as is.
   Shrinking used to shut the pool down and recreate it, which could tear
   the workers out from under a concurrent query on another domain; a
   larger-than-requested pool only costs idle domains, so growth (rare,
   and usually a process-start configuration step) is the only rebuild. *)
let ensure ~num_domains =
  let num_domains = max 1 num_domains in
  Mutex.lock global_mutex;
  (match !global_pool with
  | Some pool when pool.num_domains >= num_domains -> ()
  | previous ->
      if num_domains > 1 then begin
        Option.iter shutdown previous;
        global_pool := Some (create ~num_domains)
      end);
  Mutex.unlock global_mutex;
  !global_pool

(* The pool as [Sparql.Bag]'s fan-out for the probe side of the streaming
   joins: each agent emits into its own shard of the sink. *)
let bag_runner pool : Sparql.Bag.runner =
 fun ~n ~sink ~body ->
  stream pool ~lo:0 ~hi:n ~sink
    ~local:(fun () -> ())
    ~body:(fun () shard i -> body shard i)
    ()

(* Hand the pool to the store layer as its bulk-load runner: index
   builds (six per-order sort/encode tasks, one morsel each) fan out
   across the same worker domains queries use. The store cannot depend
   on this library, hence the injection. *)
let install_bulk_runner pool =
  Rdf_store.Bulk.set_runner ~domains:(num_domains pool)
    (fun ~ntasks f -> parallel_iter pool ~morsel:1 ~lo:0 ~hi:ntasks f)
