let log_src = Logs.Src.create "sparql_uo.prepared" ~doc:"SPARQL-UO prepared execution"

module Log = (val Logs.src_log log_src : Logs.LOG)

type mode = Base | TT | CP | Full

let mode_name = function Base -> "base" | TT -> "TT" | CP -> "CP" | Full -> "full"

let all_modes = [ Base; TT; CP; Full ]

type failure = Sparql.Governor.failure =
  | Out_of_budget
  | Timeout
  | Cancelled
  | Injected_fault of string

let failure_name = Sparql.Governor.failure_name

type cache_info = { hit : bool; hits : int; misses : int }

type report = {
  mode : mode;
  engine : Engine.Bgp_eval.engine;
  adaptive : bool;
  query : Sparql.Ast.query;
  vartable : Sparql.Vartable.t;
  projection : string list;
  bag : Sparql.Bag.t option;
  result_count : int option;
  failure : failure option;
  partial : failure option;
  pushed_rows : int;
  transform_ms : float;
  exec_ms : float;
  eval_stats : Evaluator.stats option;
  tree_before : Be_tree.group;
  tree_after : Be_tree.group;
  epoch : int;
  cache : cache_info option;
}

type t = {
  text : string option;
  p_query : Sparql.Ast.query;
  p_vartable : Sparql.Vartable.t;
  p_projection : string list;
  p_mode : mode;
  p_engine : Engine.Bgp_eval.engine;
  p_tree_before : Be_tree.group;
  p_tree_after : Be_tree.group;
  p_transform_ms : float;
  (* The evaluation context carries the memoized BGP plans (compiled
     patterns + cost estimates), so re-executions skip compilation. *)
  env : Engine.Bgp_eval.t;
  p_epoch : int;
  (* Invalidation inputs for the session plan cache: the base epoch the
     plan compiled against (a compaction or bulk rebuild changes it and
     invalidates wholesale), the dictionary size at compile time, and
     whether any pattern compiled a constant to [Missing] — the only
     plans whose meaning dictionary growth can change. *)
  p_base_epoch : int;
  p_dict_size : int;
  p_has_missing : bool;
}

let query p = p.p_query
let vartable p = p.p_vartable
let projection p = p.p_projection
let mode p = p.p_mode
let engine p = p.p_engine
let tree_before p = p.p_tree_before
let tree_after p = p.p_tree_after
let transform_ms p = p.p_transform_ms
let epoch p = p.p_epoch
let base_epoch p = p.p_base_epoch
let dict_size p = p.p_dict_size
let has_missing p = p.p_has_missing
let snapshot p = Engine.Bgp_eval.store p.env
let store p = Rdf_store.Snapshot.base (Engine.Bgp_eval.store p.env)
let text p = p.text

let now_ms () = Unix.gettimeofday () *. 1000.

(* The paper's CP threshold: 1% of the number of triples. *)
let fixed_threshold store =
  max 1 (Rdf_store.Snapshot.size store / 100)

(* --- Aggregation (GROUP BY / COUNT / SUM / ...) -------------------------- *)

let numeric_of_term = function
  | Rdf.Term.Literal { value; kind = Rdf.Term.Typed dt }
    when dt = Rdf.Term.xsd_integer || dt = Rdf.Term.xsd_double ->
      float_of_string_opt value
  | _ -> None

let number_term f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Rdf.Term.int_literal (int_of_float f)
  else Rdf.Term.typed_literal (string_of_float f) ~datatype:Rdf.Term.xsd_double

(* One aggregate over a group, computed from the bound target-column ids
   ([ids], in reverse arrival order — the fold order, float summation
   included) and the group's total row count; [None] = unbound result
   (e.g. SUM over non-numeric values, or MIN of an empty group). *)
let compute_aggregate_ids store ~agg ~distinct ~target ~row_count ids =
  let maybe_distinct ids =
    if distinct then List.sort_uniq Int.compare ids else ids
  in
  match agg with
  | Sparql.Ast.Count ->
      let n =
        match target with
        | None -> row_count
        | Some _ -> List.length (maybe_distinct ids)
      in
      Some (Rdf.Term.int_literal n)
  | Sparql.Ast.Sample -> (
      match ids with
      | id :: _ -> Some (Rdf_store.Snapshot.decode_term store id)
      | [] -> None)
  | Sparql.Ast.Min | Sparql.Ast.Max -> (
      let terms =
        List.map (Rdf_store.Snapshot.decode_term store) (maybe_distinct ids)
      in
      let cmp t1 t2 =
        match (numeric_of_term t1, numeric_of_term t2) with
        | Some f1, Some f2 -> Float.compare f1 f2
        | _ -> Rdf.Term.compare t1 t2
      in
      let pick best t =
        match agg with
        | Sparql.Ast.Min -> if cmp t best < 0 then t else best
        | _ -> if cmp t best > 0 then t else best
      in
      match terms with
      | [] -> None
      | first :: rest -> Some (List.fold_left pick first rest))
  | Sparql.Ast.Sum | Sparql.Ast.Avg -> (
      let ids = maybe_distinct ids in
      let numbers =
        List.map
          (fun id ->
            numeric_of_term (Rdf_store.Snapshot.decode_term store id))
          ids
      in
      if List.exists Option.is_none numbers then None
      else
        let floats = List.map Option.get numbers in
        let total = List.fold_left ( +. ) 0. floats in
        match agg with
        | Sparql.Ast.Sum -> Some (number_term total)
        | _ ->
            if floats = [] then None
            else Some (number_term (total /. float_of_int (List.length floats))))

let target_col vartable target =
  Option.bind target (Sparql.Vartable.find vartable)

(* --- Solution modifiers (ORDER BY, projection, DISTINCT, LIMIT/OFFSET) -- *)

let order_keys vartable (query : Sparql.Ast.query) =
  List.filter_map
    (fun (v, descending) ->
      Option.map
        (fun col -> (col, descending))
        (Sparql.Vartable.find vartable v))
    query.Sparql.Ast.order_by

let compare_ids store id1 id2 =
  Rdf.Term.compare
    (Rdf_store.Snapshot.decode_term store id1)
    (Rdf_store.Snapshot.decode_term store id2)

(* [None] = SELECT * (no projection). *)
let projection_cols vartable (query : Sparql.Ast.query) =
  match Sparql.Ast.select_query query with
  | Sparql.Ast.Star -> None
  | Sparql.Ast.Projection vs ->
      Some (List.filter_map (Sparql.Vartable.find vartable) vs)
  | Sparql.Ast.Aggregated items ->
      Some
        (List.filter_map
           (fun item ->
             let v =
               match item with
               | Sparql.Ast.Svar v -> v
               | Sparql.Ast.Aggregate { alias; _ } -> alias
             in
             Sparql.Vartable.find vartable v)
           items)

(* The solution modifiers (ORDER BY, projection, DISTINCT, LIMIT/OFFSET)
   as a sink pipeline, built terminal-first so rows flow sort -> project
   -> distinct -> offset/limit -> [out]. LIMIT without ORDER BY raises [Sink.Stop]
   upstream as soon as it is satisfied; ORDER BY + LIMIT keeps only
   offset+limit rows in a bounded top-k heap — unless a DISTINCT sits
   between the sort and the slice, where dropping duplicates could promote
   rows past the k-th and the full buffering sort is required. *)
let modifier_sink store vartable (query : Sparql.Ast.query) ~width ~out =
  let sink = Sparql.Bag.sink out in
  let sink =
    match (query.Sparql.Ast.limit, query.Sparql.Ast.offset) with
    | None, None -> sink
    | limit, offset ->
        Sparql.Sink.offset_limit ?limit
          ~offset:(Option.value offset ~default:0)
          sink
  in
  let sink = if query.distinct then Sparql.Sink.distinct sink else sink in
  let sink =
    match projection_cols vartable query with
    | None -> sink
    | Some cols -> Sparql.Sink.project ~width ~cols sink
  in
  match order_keys vartable query with
  | [] -> sink
  | keys -> (
      let compare =
        Sparql.Bag.row_compare ~keys ~compare_ids:(compare_ids store)
      in
      match query.Sparql.Ast.limit with
      | Some n when not query.distinct ->
          Sparql.Sink.top_k ~compare
            ~k:(Option.value query.Sparql.Ast.offset ~default:0 + n)
            sink
      | _ -> Sparql.Sink.sort_all ~compare sink)

(* GROUP BY as a streaming hash aggregate keyed on the GROUP BY columns
   (the ungrouped case is the empty key). Each arriving row bumps its
   group's row count and prepends its bound target ids to the group's
   per-aggregate lists, so at close they sit in reverse arrival order —
   the fold order of [compute_aggregate_ids]. At close the stage emits one
   row per group, in first-arrival order: the key columns plus one column
   per aggregate alias. Grouped input with no rows yields no groups; the
   ungrouped case still yields one row (a COUNT over nothing is 0). *)
let aggregate_sink store vartable (query : Sparql.Ast.query) ~width items
    inner =
  let key_cols =
    List.filter_map (Sparql.Vartable.find vartable) query.Sparql.Ast.group_by
  in
  let aggs =
    List.filter_map
      (function
        | Sparql.Ast.Aggregate { agg; distinct; target; alias } ->
            Some
              ( agg,
                distinct,
                target,
                target_col vartable target,
                Sparql.Vartable.find vartable alias )
        | Sparql.Ast.Svar _ -> None)
      items
  in
  let groups = Hashtbl.create 64 in
  let order = ref [] in
  let group key =
    match Hashtbl.find_opt groups key with
    | Some g -> g
    | None ->
        let g = (ref 0, List.map (fun _ -> ref []) aggs) in
        Hashtbl.add groups key g;
        order := key :: !order;
        g
  in
  let push row =
    let count, ids = group (List.map (fun col -> row.(col)) key_cols) in
    incr count;
    List.iter2
      (fun (_, _, _, col, _) ids ->
        match col with
        | Some col when Sparql.Binding.is_bound row col ->
            ids := row.(col) :: !ids
        | _ -> ())
      aggs ids
  in
  let dict = Rdf_store.Snapshot.dictionary store in
  let flush emit =
    if key_cols = [] then ignore (group []);
    List.iter
      (fun key ->
        let count, ids = Hashtbl.find groups key in
        let fresh = Sparql.Binding.create ~width in
        List.iter2 (fun col v -> fresh.(col) <- v) key_cols key;
        List.iter2
          (fun (agg, distinct, target, _, alias_col) ids ->
            match
              ( compute_aggregate_ids store ~agg ~distinct ~target
                  ~row_count:!count !ids,
                alias_col )
            with
            | Some term, Some col ->
                fresh.(col) <- Rdf_store.Dictionary.encode dict term
            | _ -> ())
          aggs ids;
        emit fresh)
      (List.rev !order)
  in
  Sparql.Sink.aggregate ~name:"aggregate" ~push ~flush inner

(* --- The prepare phase --------------------------------------------------- *)

(* Force plan construction (pattern compilation against the dictionary,
   cost estimation) for every BGP of the transformed tree, so the first
   [execute] pays nothing the second does not. The plans land in the
   env's memoized plan table. [missing] records whether any pattern
   compiled a constant to [Missing] — the session cache re-validates
   such plans against dictionary growth. *)
let precompile env tree =
  let missing = ref false in
  let rec go (g : Be_tree.group) =
    List.iter
      (fun node ->
        match node with
        | Be_tree.Bgp [] | Be_tree.Values _ -> ()
        | Be_tree.Bgp patterns ->
            let plan = Engine.Bgp_eval.plan env patterns in
            if
              List.exists
                (fun st -> Engine.Compiled.has_missing st.Engine.Planner.pattern)
                plan.Engine.Planner.steps
            then missing := true
        | Be_tree.Group inner | Be_tree.Optional inner | Be_tree.Minus inner ->
            go inner
        | Be_tree.Union gs -> List.iter go gs)
      g.children
  in
  go tree;
  !missing

let prepare_snapshot ?(mode = Full) ?(engine = Engine.Bgp_eval.Wco) ?stats
    ?text snap (query : Sparql.Ast.query) =
  (* Register every query variable up front so bag widths are stable —
     including aggregate aliases, which get fresh columns. *)
  let vartable = Sparql.Vartable.of_list (Sparql.Ast.group_vars query.where) in
  (match query.form with
  | Sparql.Ast.Select (Sparql.Ast.Aggregated items) ->
      List.iter
        (function
          | Sparql.Ast.Aggregate { alias; _ } ->
              ignore (Sparql.Vartable.id vartable alias)
          | Sparql.Ast.Svar _ -> ())
        items
  | _ -> ());
  let env = Engine.Bgp_eval.make_snapshot ?stats snap vartable engine in
  let tree_before = Be_tree.of_query query in
  let tree_after, transform_ms =
    match mode with
    | Base | CP -> (tree_before, 0.)
    | TT -> Transform.timed_multi_level env tree_before
    | Full -> Transform.timed_multi_level env ~skip_cp_equivalent:true tree_before
  in
  let has_missing = precompile env tree_after in
  {
    text;
    p_query = query;
    p_vartable = vartable;
    p_projection = Sparql.Ast.query_vars query;
    p_mode = mode;
    p_engine = engine;
    p_tree_before = tree_before;
    p_tree_after = tree_after;
    p_transform_ms = transform_ms;
    env;
    p_epoch = Rdf_store.Snapshot.version snap;
    p_base_epoch = Rdf_store.Snapshot.base_epoch snap;
    (* Read after compilation: compilation itself interns nothing, and a
       concurrent VALUES interning between compile and this read only
       makes the recorded size larger — erring toward invalidation. *)
    p_dict_size = Rdf_store.Snapshot.dict_size snap;
    p_has_missing = has_missing;
  }

let prepare ?mode ?engine ?stats ?text store query =
  prepare_snapshot ?mode ?engine ?stats ?text
    (Rdf_store.Snapshot.of_store store)
    query

(* --- The execute phase --------------------------------------------------- *)

(* Build a fresh governor ticket from the execution knobs. *)
let ticket ?row_budget ?timeout_ms ?faults () =
  let deadline =
    Option.map
      (fun ms -> (Unix.gettimeofday () +. (ms /. 1000.), Unix.gettimeofday))
      timeout_ms
  in
  Sparql.Governor.create ?row_budget ?deadline ?faults ()

let execute ?(domains = 1) ?(adaptive = true) ?feedback ?row_budget ?timeout_ms
    ?(partial = false) ?governor ?cache ?snapshot ?stats p =
  let query = p.p_query in
  let vartable = p.p_vartable in
  let env = Engine.Bgp_eval.with_domains p.env ~domains in
  (* Pin this execution to the caller's snapshot (the session acquired it
     once for validation + execution). Retargeting shares the memoized
     plans — dictionary ids are append-only, so compiled constants stay
     valid across delta generations of one base. *)
  let env =
    match snapshot with
    | Some snap when not (snap == Engine.Bgp_eval.store env) ->
        let stats =
          match stats with
          | Some s -> s
          | None -> Rdf_store.Stats.of_snapshot snap
        in
        Engine.Bgp_eval.with_store env snap ~stats
    | _ -> env
  in
  let store = Engine.Bgp_eval.store env in
  let threshold =
    match p.p_mode with
    | Base | TT -> Evaluator.No_pruning
    | CP -> Evaluator.Fixed (fixed_threshold store)
    | Full -> Evaluator.Adaptive
  in
  (* Adaptive execution (sideways prefilters, feedback, per-node engines)
     only composes with Full-mode pruning: Base/TT/CP stay untouched as
     the paper's baselines. *)
  let adaptive = adaptive && p.p_mode = Full in
  (* Every execution runs under its own governor ticket (caller-supplied,
     so a session can cancel it from another domain, or built here from
     the budget/timeout knobs). Concurrent executions with different
     limits are isolated: nothing below touches process state. *)
  let gov =
    match governor with
    | Some g -> g
    | None -> ticket ?row_budget ?timeout_ms ()
  in
  let t1 = now_ms () in
  let width = Engine.Bgp_eval.width env in
  (* The terminal bag, kept so a killed run can surface the rows that
     fully traversed the pipeline before the limit fired (exact prefix
     semantics for LIMIT-style pipelines; rows buffered inside a sort,
     top-k or aggregate stage are lost, so best-effort there). *)
  let out = Sparql.Bag.create ~width in
  (* Built terminal-first: rows flow aggregate -> HAVING -> modifiers. *)
  let evaluate () =
    let sink = modifier_sink store vartable query ~width ~out in
    let sink =
      match query.Sparql.Ast.having with
      | None -> sink
      | Some e ->
          let lookup row v =
            match Sparql.Vartable.find vartable v with
            | Some col when Sparql.Binding.is_bound row col ->
                Some (Rdf_store.Snapshot.decode_term store row.(col))
            | _ -> None
          in
          Sparql.Sink.filter ~name:"having"
            ~f:(fun row ->
              Sparql.Expr.eval ~lookup:(lookup row) ~exists:(fun _ -> false) e)
            sink
    in
    let sink =
      match query.form with
      | Sparql.Ast.Select (Sparql.Ast.Aggregated items) ->
          aggregate_sink store vartable query ~width items sink
      | _ when query.Sparql.Ast.group_by <> [] ->
          (* GROUP BY without aggregates: one row per group (keys only). *)
          aggregate_sink store vartable query ~width [] sink
      | _ -> sink
    in
    Evaluator.eval_into ~adaptive ?feedback env ~threshold ~sink p.p_tree_after
  in
  (* The resource limits die with the ticket scope; a [Kill] carries its
     cause. *)
  let outcome =
    try Ok (Sparql.Governor.with_ticket gov evaluate)
    with Sparql.Governor.Kill f -> Error f
  in
  let exec_ms = now_ms () -. t1 in
  let bag, eval_stats, partial_marker =
    match outcome with
    | Ok stats -> (Some out, Some stats, None)
    | Error f when partial ->
        (* Graceful degradation: surface whatever reached the terminal bag
           before the kill, marked as partial. *)
        (Some out, None, Some f)
    | Error _ -> (None, None, None)
  in
  Log.info (fun m ->
      m "mode=%s engine=%s transform=%.2fms exec=%.2fms results=%s cache=%s"
        (mode_name p.p_mode)
        (Engine.Bgp_eval.engine_name p.p_engine)
        p.p_transform_ms exec_ms
        (match (outcome, bag) with
        | Ok _, Some bag -> string_of_int (Sparql.Bag.length bag)
        | Error f, Some bag ->
            Printf.sprintf "%d (partial: %s)" (Sparql.Bag.length bag)
              (failure_name f)
        | Error f, None -> failure_name f
        | Ok _, None -> assert false)
        (match cache with
        | Some { hit = true; _ } -> "hit"
        | Some { hit = false; _ } -> "miss"
        | None -> "bypass"));
  {
    mode = p.p_mode;
    engine = p.p_engine;
    adaptive;
    query;
    vartable;
    projection = p.p_projection;
    bag;
    result_count = Option.map Sparql.Bag.length bag;
    failure = (match outcome with Ok _ -> None | Error f -> Some f);
    partial = partial_marker;
    pushed_rows = Sparql.Governor.pushed gov;
    transform_ms = p.p_transform_ms;
    exec_ms;
    eval_stats;
    tree_before = p.p_tree_before;
    tree_after = p.p_tree_after;
    epoch = Rdf_store.Snapshot.version store;
    cache;
  }
