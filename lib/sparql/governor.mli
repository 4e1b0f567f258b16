(** Per-execution resource governance.

    A {e ticket} ({!t}) carries everything one query execution may
    consume: an atomic row budget (the paper's memory-limit analogue —
    base runs out of memory on 13 of 24 LUBM queries, and the bench
    observes that as a recoverable condition), an optional wall-clock
    deadline, a cancellation flag settable from another domain, and a
    deterministic fault-injection schedule for chaos testing. It also
    carries the execution's engine counters (intersection kernel,
    candidate prefilter, morsel scheduler), so each query's report counts
    its own work even while other queries run.

    Tickets replace the historical process-global budget/deadline
    atomics: concurrent executions each govern themselves, so a tight
    budget on one session can no longer kill an unlimited query on
    another. The ambient ticket is domain-local; executors install it
    with {!with_ticket} and the engine's domain pool re-installs the
    submitting domain's ticket inside each worker, so parallel workers
    charge the same ticket as the serial path. *)

(** Why an execution was killed. *)
type failure =
  | Out_of_budget  (** the row budget was exhausted *)
  | Timeout  (** the wall-clock deadline passed *)
  | Cancelled  (** {!cancel} was called from another domain *)
  | Injected_fault of string  (** a chaos-schedule fault fired at this site *)

(** Raised by {!charge}/{!tick}/{!failpoint} to kill the governed
    execution; executors catch it at the execution boundary and report
    the carried {!failure}. *)
exception Kill of failure

val failure_name : failure -> string

(** [transient f] — whether a retry with a fresh ticket could plausibly
    succeed. True for everything except [Cancelled]. *)
val transient : failure -> bool

(** {1 Fault schedules}

    A fault fires on the [after]-th hit of its failpoint site, exactly
    once — including across domains, and across retry attempts sharing
    the same fault values (the countdown is spent, so the retry runs
    clean). *)

type fault

val fault : site:string -> after:int -> fault

(** [fault_fired f] — whether [f]'s countdown has been consumed. *)
val fault_fired : fault -> bool

(** [seeded_faults ~seed ~after_max sites] — a reproducible schedule: one
    fault per site, hit indices drawn deterministically from [seed] in
    [1, after_max]. *)
val seeded_faults : seed:int -> after_max:int -> string list -> fault list

(** The failpoint sites compiled into the engine, in rough data-flow
    order: ["scan"] (pattern scans, both engines), ["extend"] (WCO
    vertex extension), ["probe"] (hash-partition probe loops),
    ["sink.push"] (every row entering a sink pipeline), and
    ["cache.insert"] (session plan-cache insertion). *)
val all_failpoints : string list

(** {1 Tickets} *)

type t

(** [create ?row_budget ?deadline ?faults ()] — a fresh ticket. [deadline]
    is [(at, now)]: the execution is killed once [now () > at]; the clock
    is injected so this library stays clock-free. Omitted fields mean
    unlimited/never. *)
val create :
  ?row_budget:int ->
  ?deadline:float * (unit -> float) ->
  ?faults:fault list ->
  unit ->
  t

(** [unlimited ()] — no budget, no deadline, no faults (still
    cancellable). *)
val unlimited : unit -> t

(** [cancel t] — ask the execution(s) governed by [t] to stop; safe from
    any domain. Observed at the next deadline-stride check, so kill
    latency is bounded by {!stride} row productions. *)
val cancel : t -> unit

val is_cancelled : t -> bool

(** [pushed t] — rows produced (materialized or streamed) under [t]: the
    total-intermediate-size metric, per execution. *)
val pushed : t -> int

val remaining_budget : t -> int

(** [governed t] — whether [t] carries any finite limit or fault
    schedule. *)
val governed : t -> bool

(** {1 Execution counters}

    Engine activity charged to the ticket of the execution that did it.
    Counters are atomic: morsels running on other domains charge the
    submitting execution's ticket. Engine code fetches the ticket once
    per scan or morsel and passes it down, so no counter update pays a
    domain-local lookup. *)

type counter =
  | Intersections  (** multiway intersections performed *)
  | Gallop_passes  (** two-way intersection passes that galloped *)
  | Merge_passes  (** two-way intersection passes that linear-merged *)
  | Domain_values  (** values across all intersected domains *)
  | Operands  (** intersection operands consumed *)
  | Prefilter_checks  (** candidate-set membership tests *)
  | Prefilter_rejects  (** membership tests that rejected the value *)
  | Morsels  (** morsels executed by the scheduler *)
  | Steals  (** morsels claimed from another domain's deque *)
  | Stops  (** parallel jobs ended early by a cross-domain [Stop] *)
  | Steered_bgps
      (** WCO BGP evaluations whose join order candidate sets moved *)

(** [count t c n] adds [n] to [t]'s counter [c]; safe from any domain. *)
val count : t -> counter -> int -> unit

(** A snapshot of every counter of one ticket. *)
type counts

val counts : t -> counts

(** [diff later earlier] — the counter increments between two snapshots
    (a ticket's counters only grow, and nothing resets them). *)
val diff : counts -> counts -> counts

val get : counts -> counter -> int

(** {1 The ambient ticket} *)

(** [current ()] — the installing execution's ticket, or the calling
    domain's default unlimited ticket. *)
val current : unit -> t

(** [with_ticket t f] — run [f] with [t] as the ambient ticket, restoring
    the previous ticket on every exit path. *)
val with_ticket : t -> (unit -> 'a) -> 'a

(** {1 Accounting}

    Called on producing-operator hot paths. [charge] (budget + row
    counter) runs on every produced row; [tick] (cancellation + deadline)
    is designed to be called every {!stride} productions — callers keep
    the stride counter per bag, so the check still triggers
    deterministically when parallel workers push into worker-local
    bags. *)

val stride : int

val charge : t -> unit

val tick : t -> unit

(** [charge_stream t] — [charge] plus a strided [tick] using the ticket's
    own stride counter; for streaming producers that have no bag to hang
    a stride counter on. The counter is a plain reference: concurrent
    callers (parallel UNION branches collecting their rows) may lose
    increments, which only delays a deadline or cancellation check — the
    budget charge itself is atomic. *)
val charge_stream : t -> unit

(** [charge_parallel t] — [charge] plus a strided [tick] through the
    ticket's shared atomic stride counter: safe to call from any domain,
    used by producers emitting into shard sinks from stolen morsels. *)
val charge_parallel : t -> unit

(** {1 Fault injection} *)

(** [failpoint site] — kill the current execution with
    [Injected_fault site] if the ambient ticket's schedule says so. One
    atomic load when no schedule is armed anywhere in the process. *)
val failpoint : string -> unit
