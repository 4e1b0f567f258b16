(* Per-execution resource governance. A *ticket* carries everything one
   query execution may consume: an atomic row budget, an optional
   wall-clock deadline (with its injected clock — this library stays
   clock-free), a cancellation flag settable from another domain, and a
   deterministic fault-injection schedule, plus the execution's engine
   counters. Tickets replace the historical
   process-global budget/deadline atomics, so concurrent executions with
   different limits no longer clobber each other.

   The ambient ticket is domain-local ([Domain.DLS]): an executor installs
   its ticket around an evaluation with [with_ticket], and the engine's
   domain pool re-installs the submitting domain's ticket inside each
   worker, so rows produced by parallel workers charge the same ticket as
   the serial path. With no ticket installed, the per-domain default is
   unlimited and uncancellable — library users pay only the accounting
   arithmetic. *)

type failure =
  | Out_of_budget
  | Timeout
  | Cancelled
  | Injected_fault of string

exception Kill of failure

let failure_name = function
  | Out_of_budget -> "out-of-budget"
  | Timeout -> "timeout"
  | Cancelled -> "cancelled"
  | Injected_fault site -> "injected-fault(" ^ site ^ ")"

(* Only a cancellation is final: a fresh ticket cannot un-cancel the
   caller's intent, whereas budget, deadline and one-shot injected faults
   may well not recur on a retry with fresh resources. *)
let transient = function Cancelled -> false | _ -> true

(* A scheduled fault: fires on the [after]-th hit of [site], exactly once
   (the atomic countdown makes the once-ness hold across domains). Faults
   are shared by reference between retry attempts, so a fault that already
   fired stays spent on the next attempt's ticket. *)
type fault = { site : string; countdown : int Atomic.t }

let fault ~site ~after =
  if after < 1 then invalid_arg "Governor.fault: after must be >= 1";
  { site; countdown = Atomic.make after }

let fault_fired f = Atomic.get f.countdown <= 0

(* A deterministic schedule derived from a seed: one fault per site, each
   armed to fire on a hit index in [1, after_max]. A plain LCG — the point
   is reproducibility of a chaos run, not statistical quality. *)
let seeded_faults ~seed ~after_max sites =
  if after_max < 1 then invalid_arg "Governor.seeded_faults: after_max must be >= 1";
  let state = ref (seed land 0x3FFFFFFF) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  List.map (fun site -> fault ~site ~after:(1 + (next () mod after_max))) sites

type t = {
  budget : int Atomic.t;
  pushed : int Atomic.t;
  deadline : (float * (unit -> float)) option;  (* (at, now) *)
  cancelled : bool Atomic.t;
  faults : fault array;
  (* Stride counter for the streaming [charge_stream] path, scoped to the
     ticket. Mostly one domain drives it; parallel UNION branches may
     race on it, which can only lose an increment (delaying one tick),
     never a budget charge. *)
  stream_unchecked : int ref;
  (* Stride counter for [charge_parallel]: shared by every domain that
     emits under this ticket (the morsel scheduler re-installs the
     submitting ticket inside stolen morsels), so it must be atomic. *)
  parallel_unchecked : int Atomic.t;
  (* Engine counters, indexed by [counter_index]; atomic because morsels
     on other domains charge the submitting execution's ticket. *)
  counters : int Atomic.t array;
}

type counter =
  | Intersections
  | Gallop_passes
  | Merge_passes
  | Domain_values
  | Operands
  | Prefilter_checks
  | Prefilter_rejects
  | Morsels
  | Steals
  | Stops

let counter_index = function
  | Intersections -> 0
  | Gallop_passes -> 1
  | Merge_passes -> 2
  | Domain_values -> 3
  | Operands -> 4
  | Prefilter_checks -> 5
  | Prefilter_rejects -> 6
  | Morsels -> 7
  | Steals -> 8
  | Stops -> 9

let n_counters = 10

let create ?row_budget ?deadline ?(faults = []) () =
  {
    budget = Atomic.make (Option.value row_budget ~default:max_int);
    pushed = Atomic.make 0;
    deadline;
    cancelled = Atomic.make false;
    faults = Array.of_list faults;
    stream_unchecked = ref 0;
    parallel_unchecked = Atomic.make 0;
    counters = Array.init n_counters (fun _ -> Atomic.make 0);
  }

let unlimited () = create ()

let cancel t = Atomic.set t.cancelled true
let is_cancelled t = Atomic.get t.cancelled
let pushed t = Atomic.get t.pushed
let remaining_budget t = max 0 (Atomic.get t.budget)

let governed t =
  t.deadline <> None
  || Atomic.get t.budget < max_int
  || Array.length t.faults > 0

(* {2 Execution counters} *)

let count t c n =
  ignore (Atomic.fetch_and_add (Array.unsafe_get t.counters (counter_index c)) n)

type counts = int array

let counts t = Array.map Atomic.get t.counters
let diff later earlier = Array.map2 ( - ) later earlier
let get counts c = counts.(counter_index c)

(* {2 The ambient ticket} *)

let key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> unlimited ())

let current () = Domain.DLS.get key

(* Process-wide count of live [with_ticket] scopes whose ticket carries
   faults: the [failpoint] fast path is one atomic load when no chaos
   schedule is armed anywhere. *)
let armed_faults = Atomic.make 0

let with_ticket t f =
  let previous = Domain.DLS.get key in
  Domain.DLS.set key t;
  let has_faults = Array.length t.faults > 0 in
  if has_faults then Atomic.incr armed_faults;
  Fun.protect
    ~finally:(fun () ->
      if has_faults then Atomic.decr armed_faults;
      Domain.DLS.set key previous)
    f

(* {2 Accounting}

   Checked on the producing-operator hot paths, so the split matters:
   [charge] (budget + produced-row counter) runs on every row; [tick]
   (deadline + cancellation) is meant to be called on a stride — the
   caller keeps the stride counter, per bag, exactly as the historical
   deadline check did. *)

let stride = 4096

let charge t =
  if Atomic.fetch_and_add t.budget (-1) <= 0 then raise (Kill Out_of_budget);
  Atomic.incr t.pushed

let tick t =
  if Atomic.get t.cancelled then raise (Kill Cancelled);
  match t.deadline with
  | Some (at, now) -> if now () > at then raise (Kill Timeout)
  | None -> ()

let charge_stream t =
  charge t;
  incr t.stream_unchecked;
  if !(t.stream_unchecked) >= stride then begin
    t.stream_unchecked := 0;
    tick t
  end

(* The cross-domain counterpart of [charge_stream]: producers emitting
   from stolen morsels share one atomic stride counter, so a deadline or
   cancellation still triggers within [stride] rows of production no
   matter how the rows are spread across domains. The morsel scheduler
   additionally ticks at every morsel boundary, which bounds kill latency
   even for producers that emit nothing. *)
let charge_parallel t =
  charge t;
  if Atomic.fetch_and_add t.parallel_unchecked 1 mod stride = stride - 1 then
    tick t

(* {2 Fault injection} *)

let failpoint site =
  if Atomic.get armed_faults > 0 then begin
    let t = Domain.DLS.get key in
    Array.iter
      (fun f ->
        if String.equal f.site site
           && Atomic.fetch_and_add f.countdown (-1) = 1
        then raise (Kill (Injected_fault site)))
      t.faults
  end

let all_failpoints = [ "scan"; "extend"; "probe"; "sink.push"; "cache.insert" ]
