type engine = Wco | Hash_join

let engine_name = function Wco -> "wco" | Hash_join -> "hash"

type t = {
  store : Rdf_store.Snapshot.t;
  stats : Rdf_store.Stats.t;
  vartable : Sparql.Vartable.t;
  engine : engine;
  domains : int;
  pool : Pool.t option;
  (* Plans are requested repeatedly for the same BGP during cost-driven
     transformation; memoize on the pattern list. The mutex makes the
     cache safe when parallel UNION branches plan concurrently. *)
  plan_cache : (Sparql.Triple_pattern.t list, Planner.plan) Hashtbl.t;
  plan_mutex : Mutex.t;
}

let make_snapshot ?stats ?(domains = 1) snapshot vartable engine =
  (* [Stats.of_snapshot]: the memoized base scan adjusted by the delta —
     one statistics scan per live base, not per query. *)
  let stats =
    match stats with
    | Some s -> s
    | None -> Rdf_store.Stats.of_snapshot snapshot
  in
  let pool = if domains > 1 then Pool.ensure ~num_domains:domains else None in
  {
    store = snapshot;
    stats;
    vartable;
    engine;
    domains;
    pool;
    plan_cache = Hashtbl.create 64;
    plan_mutex = Mutex.create ();
  }

let make ?stats ?domains store vartable engine =
  make_snapshot ?stats ?domains (Rdf_store.Snapshot.of_store store) vartable
    engine

(* Domain count is an execution-time knob, everything else in the context
   is plan-level; the derived context shares the memoized plans (and
   their mutex) so compiled patterns survive re-execution at any domain
   count. *)
let with_domains ctx ~domains =
  if domains = ctx.domains then ctx
  else
    {
      ctx with
      domains;
      pool = (if domains > 1 then Pool.ensure ~num_domains:domains else None);
    }

(* Retarget the context to a newer snapshot of the same lineage. Sound
   because dictionary ids are append-only: compiled constants stay
   valid; memoized plan orders carry cost estimates from the snapshot
   they were planned under, which is exactly the bounded staleness the
   plan cache signs up for (a compaction changes the base epoch and
   invalidates the cache entry wholesale). *)
let with_store ctx snapshot ~stats =
  if snapshot == ctx.store then ctx else { ctx with store = snapshot; stats }

let store ctx = ctx.store
let stats ctx = ctx.stats
let vartable ctx = ctx.vartable
let engine ctx = ctx.engine
let domains ctx = ctx.domains
let pool ctx = ctx.pool
let width ctx = Sparql.Vartable.size ctx.vartable

let plan ctx patterns =
  Mutex.lock ctx.plan_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock ctx.plan_mutex) @@ fun () ->
  match Hashtbl.find_opt ctx.plan_cache patterns with
  | Some plan -> plan
  | None ->
      let compiled = Compiled.compile_list ctx.store ctx.vartable patterns in
      let plan = Planner.plan ctx.store ctx.stats ctx.vartable compiled in
      Hashtbl.add ctx.plan_cache patterns plan;
      plan

(* The memoized plan, re-ordered so the WCO engine starts from the
   smallest candidate set ({!Planner.steer}); a moved order is counted
   on the ambient ticket. *)
let steered ctx plan ~candidates =
  if Candidates.is_empty candidates then plan
  else
    let card col =
      Option.map Candidates.cardinal (Candidates.find candidates ~col)
    in
    let moved = Planner.steer ctx.stats plan ~card in
    if moved != plan then
      Sparql.Governor.count (Sparql.Governor.current ()) Steered_bgps 1;
    moved

(* [eval_into_with] takes the engine explicitly — the adaptive executor
   picks per node, [eval_into] passes the context's engine. The memoized
   plan is engine-independent, so switching engines per node costs
   nothing extra. Only WCO is steered by candidate sets: the hash engine
   keeps the planner's order, standing in for Jena. *)
let eval_into_with ctx ~engine patterns ~candidates ~sink =
  let plan = plan ctx patterns in
  let width = width ctx in
  match engine with
  | Wco ->
      Wco.eval_into ?pool:ctx.pool ctx.store ~stats:ctx.stats ~width
        (steered ctx plan ~candidates) ~candidates ~sink
  | Hash_join ->
      Hash_join.eval_into ?pool:ctx.pool ctx.store ~width plan ~candidates ~sink

let eval_into ctx patterns ~candidates ~sink =
  eval_into_with ctx ~engine:ctx.engine patterns ~candidates ~sink

let estimate_cost ctx patterns =
  let plan = plan ctx patterns in
  match ctx.engine with
  | Wco -> plan.Planner.cost_wco
  | Hash_join -> plan.Planner.cost_hash

let estimate_card ctx patterns = (plan ctx patterns).Planner.result_card
