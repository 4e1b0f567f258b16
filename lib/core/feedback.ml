(* Observed-cardinality feedback for the Eq. 9 cost model: a mutable map
   from BGP (pattern list) to the row count actually produced the last
   time that BGP was evaluated without a candidate prefilter. Estimates
   corrected this way turn the cost model from a one-shot guess into a
   closed loop — re-executions of a plan start from observed, not
   sampled, cardinalities.

   Only unpruned observations are recorded: a candidate-pruned BGP's
   output depends on the prefilter of that particular execution, so
   feeding it back would corrupt the standalone |res(B)| estimate the
   admission rule and the engine chooser compare against.

   The table is shared across executions of one cached plan (the session
   keeps one per plan-cache entry) and may be read/written from parallel
   UNION branches, hence the mutex. *)

type t = {
  tbl : (Sparql.Triple_pattern.t list, float) Hashtbl.t;
  mutex : Mutex.t;
}

let create () = { tbl = Hashtbl.create 16; mutex = Mutex.create () }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Last observation wins: the store may have changed between executions,
   and the most recent run is the best predictor of the next. *)
let record t patterns ~rows =
  with_lock t (fun () ->
      Hashtbl.replace t.tbl patterns (float_of_int rows))

let find t patterns = with_lock t (fun () -> Hashtbl.find_opt t.tbl patterns)

let card t patterns ~default =
  match find t patterns with Some c -> c | None -> default

let length t = with_lock t (fun () -> Hashtbl.length t.tbl)
