type predicate_stats = {
  triples : int;
  distinct_subjects : int;
  distinct_objects : int;
  avg_out_degree : float;
  avg_in_degree : float;
}

let zero_stats =
  {
    triples = 0;
    distinct_subjects = 0;
    distinct_objects = 0;
    avg_out_degree = 0.;
    avg_in_degree = 0.;
  }

type t = {
  by_predicate : (int, predicate_stats) Hashtbl.t;
  num_triples : int;
  num_entities : int;
  num_predicates : int;
  num_literals : int;
  epoch : int;  (* store epoch when the scan ran *)
}

let compute store =
  let by_predicate = Hashtbl.create 64 in
  (* Per-predicate rows come straight off the index grouping structure
     built during bulk load: [predicates] walks the PSO skip level and
     the distinct counts are group-offset arithmetic — no triple scan. *)
  List.iter
    (fun (p, triples) ->
      let distinct_subjects = Triple_store.distinct_subjects store ~p in
      let distinct_objects = Triple_store.distinct_objects store ~p in
      let avg_out_degree =
        if distinct_subjects = 0 then 0.
        else float_of_int triples /. float_of_int distinct_subjects
      in
      let avg_in_degree =
        if distinct_objects = 0 then 0.
        else float_of_int triples /. float_of_int distinct_objects
      in
      Hashtbl.replace by_predicate p
        { triples; distinct_subjects; distinct_objects; avg_out_degree;
          avg_in_degree })
    (Triple_store.predicates store);
  let num_predicates = Hashtbl.length by_predicate in
  (* Entities: distinct IRI/bnode terms in subject or object position.
     Literals: distinct literal terms in object position. The distinct
     subject and object ids are exactly the first-key skip columns of
     SPO and OSP — merge the two increasing streams instead of probing
     the whole dictionary term by term. *)
  let entities = ref 0 and literals = ref 0 in
  let dict = Triple_store.dictionary store in
  let subjects = Index.firsts_view (Triple_store.index store Index.Spo) in
  let objects = Index.firsts_view (Triple_store.index store Index.Osp) in
  let ns = Index.view_length subjects and no = Index.view_length objects in
  let i = ref 0 and j = ref 0 in
  let classify id ~as_object =
    match Dictionary.decode dict id with
    | Rdf.Term.Literal _ -> if as_object then incr literals
    | Rdf.Term.Iri _ | Rdf.Term.Bnode _ -> incr entities
  in
  while !i < ns || !j < no do
    let sv = if !i < ns then Index.view_get subjects !i else max_int in
    let ov = if !j < no then Index.view_get objects !j else max_int in
    if sv < ov then begin
      classify sv ~as_object:false;
      incr i
    end
    else if ov < sv then begin
      classify ov ~as_object:true;
      incr j
    end
    else begin
      classify sv ~as_object:true;
      incr i;
      incr j
    end
  done;
  {
    by_predicate;
    num_triples = Triple_store.size store;
    num_entities = !entities;
    num_predicates;
    num_literals = !literals;
    epoch = Triple_store.epoch store;
  }

(* [cached] memoizes one statistics scan per live store value. The triple
   table is immutable (updates rebuild a new store), so statistics keyed
   on the store's physical identity never go stale — dictionary interning
   bumps the epoch but adds no triples. The ephemeron key keeps the memo
   from pinning replaced stores in memory. *)
let memo : (Triple_store.t Weak.t * t) list ref = ref []
let memo_mutex = Mutex.create ()

let cached store =
  Mutex.lock memo_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock memo_mutex) @@ fun () ->
  memo := List.filter (fun (w, _) -> Weak.check w 0) !memo;
  let hit (w, _) =
    match Weak.get w 0 with Some s -> s == store | None -> false
  in
  match List.find_opt hit !memo with
  | Some (_, stats) -> stats
  | None ->
      let stats = compute store in
      let w = Weak.create 1 in
      Weak.set w 0 (Some store);
      memo := (w, stats) :: !memo;
      stats

let predicate_of stats ~p =
  Option.value (Hashtbl.find_opt stats.by_predicate p) ~default:zero_stats

(* Statistics for a snapshot view: the base scan comes from the memo and
   the delta adjusts it. Per-predicate triple counts are exact (from
   [Snapshot.predicates]); distinct-subject/object counts for predicates
   the delta touches are bounded estimates (base + adds, clamped by the
   triple count) — statistics feed cardinality *estimation*, so bounded
   staleness is fine and keeps this O(|delta|) instead of a rescan.
   A predicate born in the delta gets exact counts from the delta's own
   indexes. Dataset-level entity/literal counts stay at the base values
   (same rationale). *)
let of_snapshot snap =
  let base_stats = cached (Snapshot.base snap) in
  if Delta.is_empty (Snapshot.delta snap) then base_stats
  else begin
    let adds = Delta.adds (Snapshot.delta snap) in
    let by_predicate = Hashtbl.create 64 in
    List.iter
      (fun (p, triples) ->
        let bp = predicate_of base_stats ~p in
        let estimate base_distinct adds_distinct =
          if bp.triples = 0 then adds_distinct
          else max 1 (min (base_distinct + adds_distinct) triples)
        in
        let distinct_subjects =
          estimate bp.distinct_subjects (Index_set.distinct_subjects adds ~p)
        in
        let distinct_objects =
          estimate bp.distinct_objects (Index_set.distinct_objects adds ~p)
        in
        let avg_out_degree =
          if distinct_subjects = 0 then 0.
          else float_of_int triples /. float_of_int distinct_subjects
        in
        let avg_in_degree =
          if distinct_objects = 0 then 0.
          else float_of_int triples /. float_of_int distinct_objects
        in
        Hashtbl.replace by_predicate p
          { triples; distinct_subjects; distinct_objects; avg_out_degree;
            avg_in_degree })
      (Snapshot.predicates snap);
    {
      by_predicate;
      num_triples = Snapshot.size snap;
      num_entities = base_stats.num_entities;
      num_predicates = Hashtbl.length by_predicate;
      num_literals = base_stats.num_literals;
      epoch = Snapshot.version snap;
    }
  end

let epoch stats = stats.epoch

let predicate stats ~p =
  Option.value (Hashtbl.find_opt stats.by_predicate p) ~default:zero_stats

let num_triples stats = stats.num_triples
let num_entities stats = stats.num_entities
let num_predicates stats = stats.num_predicates
let num_literals stats = stats.num_literals
