type threshold = No_pruning | Fixed of int | Adaptive

(* One executed BE-tree node, as the adaptive layer saw it: the
   cost-model estimate it started from, the rows it actually produced,
   and the engine that ran it ("wco" / "hash", "lbr" when a sideways
   bitset prefilter was forced in, "skip" when an empty left side
   short-circuited the node, "-" for non-BGP operators). *)
type node_report = {
  label : string;
  engine : string;
  est_rows : float;
  actual_rows : int;
  replanned : bool;
}

type stats = {
  join_space : float;
  peak_rows : int;
  total_rows : int;
  bgp_evals : int;
  pruned_bgps : int;
  isect : Engine.Intersect.counters;
  stages : Sparql.Sink.stage list;
  nodes : node_report list;
  replans : int;
  prefilter : Engine.Candidates.counters;
  sched : Engine.Pool.counters;
}

(* The running counters are atomics: parallel UNION branches update them
   from worker domains. [nodes] is a mutex-protected list for the same
   reason. *)
type state = {
  env : Engine.Bgp_eval.t;
  threshold : threshold;
  adaptive : bool;
  feedback : Feedback.t option;
  peak_rows : int Atomic.t;
  bgp_evals : int Atomic.t;
  pruned_bgps : int Atomic.t;
  replans : int Atomic.t;
  nodes : node_report list ref;
  nodes_mutex : Mutex.t;
}

let atomic_max cell v =
  let rec go () =
    let seen = Atomic.get cell in
    if v > seen && not (Atomic.compare_and_set cell seen v) then go ()
  in
  go ()

let observe st bag = atomic_max st.peak_rows (Sparql.Bag.length bag)

(* Mid-query re-planning threshold: an estimate off from the observed
   cardinality by at least this factor (either direction) marks the node
   replanned — its observation is already in the feedback cache, so every
   later admission / engine decision in this query, and the next
   execution's plan, start from the corrected number. *)
let replan_factor = 10.

let deviation ~est ~actual =
  let est = Float.max est 1. in
  let actual = Float.max (float_of_int actual) 1. in
  Float.max (est /. actual) (actual /. est)

let record_node st report =
  if st.adaptive then begin
    Mutex.lock st.nodes_mutex;
    st.nodes := report :: !(st.nodes);
    Mutex.unlock st.nodes_mutex
  end

let node_label = function
  | Be_tree.Bgp b -> Printf.sprintf "bgp{%d}" (List.length b)
  | Be_tree.Group _ -> "group"
  | Be_tree.Union gs -> Printf.sprintf "union{%d}" (List.length gs)
  | Be_tree.Values _ -> "values"
  | Be_tree.Optional _ -> "optional"
  | Be_tree.Minus _ -> "minus"

(* Variable columns used anywhere below a node — candidate sets are only
   built for columns the subtree can actually prune on. *)
let node_columns st node =
  let table = Engine.Bgp_eval.vartable st.env in
  let vars =
    match node with
    | Be_tree.Bgp b -> Engine.Bgp.vars b
    | Be_tree.Values { Sparql.Ast.vars; _ } -> vars
    | Be_tree.Group g | Be_tree.Optional g | Be_tree.Minus g -> Be_tree.vars g
    | Be_tree.Union gs -> List.concat_map Be_tree.vars gs
  in
  List.filter_map (fun v -> Sparql.Vartable.find table v) vars

(* Candidate sets drawn from the current result [r]: one per column that is
   bound in every row of [r] and used below [node]; intersected with any
   outer candidate set for the same column. *)
let candidates_from st outer r node =
  match r with
  | None -> outer
  | Some bag when Sparql.Bag.is_empty bag -> outer
  | Some bag ->
      let universal = Sparql.Bag.universal_columns bag in
      let wanted = node_columns st node in
      (* Dictionary ids are dense in [0, size) — the bitset universe. *)
      let universe =
        Rdf_store.Dictionary.size
          (Rdf_store.Snapshot.dictionary (Engine.Bgp_eval.store st.env))
      in
      List.fold_left
        (fun cands col ->
          if not (List.mem col wanted) then cands
          else begin
            let values = Sparql.Bag.distinct_values bag ~col in
            let values =
              match Engine.Candidates.find outer ~col with
              | None -> values
              | Some outer_set ->
                  let inter = Hashtbl.create (Hashtbl.length values) in
                  Hashtbl.iter
                    (fun v () ->
                      if Engine.Candidates.mem outer_set v then
                        Hashtbl.replace inter v ())
                    values;
                  inter
            in
            Engine.Candidates.set cands ~col
              (Engine.Candidates.of_hashtbl ~universe values)
          end)
        outer universal

(* Sideways (forced) prefilters skip the threshold's 2x margin, but not
   cost sanity entirely: a set several times larger than the result it
   would filter can only add membership tests (and, worse, bait the WCO
   seed heuristic into per-candidate index probes), so forced admission
   is capped at [forced_slack] times the feedback-corrected estimate. *)
let forced_slack = 4.

(* Apply the threshold rule of Section 6: a candidate set reaches the BGP
   only when smaller than the threshold. [forced] columns relax the rule
   — they are the sideways bitset prefilters the adaptive layer pushes
   into OPTIONAL/MINUS subtrees, where skipping rows that cannot join is
   usually worth the membership tests. *)
let admit_candidates st cands ~forced patterns =
  let cols = node_columns st (Be_tree.Bgp patterns) in
  let estimate =
    if forced <> [] || st.threshold = Adaptive then
      Cost_model.bgp_card ?feedback:st.feedback st.env patterns
    else infinity
  in
  let force_admitted =
    List.fold_left
      (fun acc col ->
        if not (List.mem col cols) then acc
        else
          match Engine.Candidates.find cands ~col with
          | Some s
            when float_of_int (Engine.Candidates.cardinal s)
                 < forced_slack *. estimate ->
              Engine.Candidates.set acc ~col s
          | _ -> acc)
      Engine.Candidates.empty forced
  in
  match st.threshold with
  | No_pruning -> force_admitted
  | Fixed limit ->
      List.fold_left
        (fun acc col ->
          match Engine.Candidates.find cands ~col with
          | Some values when Engine.Candidates.cardinal values < limit ->
              Engine.Candidates.set acc ~col values
          | _ -> acc)
        force_admitted cols
  | Adaptive ->
      (* Demand a margin below the estimated BGP result size: a candidate
         set about as large as the result it would prune only adds
         membership-test overhead (Section 6's "smaller candidate result
         size also reduces the overhead"). The estimate is
         feedback-corrected, so a BGP observed smaller than sampled
         admits fewer (and an underestimated one more) sets on
         re-execution. *)
      List.fold_left
        (fun acc col ->
          match Engine.Candidates.find cands ~col with
          | Some values
            when 2. *. float_of_int (Engine.Candidates.cardinal values)
                 < estimate ->
              Engine.Candidates.set acc ~col values
          | _ -> acc)
        force_admitted cols

(* Per-node engine selection: adaptive execution compares the plan's
   engine-specific cost estimates per BGP instead of taking the context's
   engine for every node. The memoized plan carries both costs, so the
   choice is free. A BGP that admitted candidate sets always runs WCO:
   only that path consumes the sets as seeded lookups or intersection
   operands (the costs compared below model neither), while every other
   engine degrades them to per-row membership tests over the full scan. *)
let choose_engine st patterns ~pruned =
  if not st.adaptive then Engine.Bgp_eval.engine st.env
  else if pruned then Engine.Bgp_eval.Wco
  else
    let plan = Engine.Bgp_eval.plan st.env patterns in
    if plan.Engine.Planner.cost_wco <= plan.Engine.Planner.cost_hash then
      Engine.Bgp_eval.Wco
    else Engine.Bgp_eval.Hash_join

(* Observed-cardinality bookkeeping after a BGP ran. Only unpruned
   evaluations feed the cache: a prefiltered BGP's output is not the
   standalone |res(B)| the estimates model. The estimate is read before
   recording, so the deviation compares against what the planner (plus
   any earlier feedback) believed going in. *)
let note_bgp st patterns ~admitted ~forced ~engine ~pruned ~actual =
  if st.adaptive then begin
    let est = Cost_model.bgp_card ?feedback:st.feedback st.env patterns in
    if not pruned then
      Option.iter
        (fun fb -> Feedback.record fb patterns ~rows:actual)
        st.feedback;
    let replanned =
      (not pruned) && deviation ~est ~actual >= replan_factor
    in
    if replanned then Atomic.incr st.replans;
    let lbr =
      List.exists
        (fun col -> Option.is_some (Engine.Candidates.find admitted ~col))
        forced
    in
    record_node st
      {
        label = Printf.sprintf "bgp{%d}" (List.length patterns);
        engine = (if lbr then "lbr" else Engine.Bgp_eval.engine_name engine);
        est_rows = est;
        actual_rows = actual;
        replanned;
      }
  end

(* A BGP's solutions into [sink], through a counting stage: the count is
   the BGP's cardinality for the join space and the feedback cache. An
   early [Stop] unwinds past the bookkeeping, so only complete counts are
   recorded. *)
let bgp_into st patterns ~cands ~forced ~sink =
  let admitted = admit_candidates st cands ~forced patterns in
  Atomic.incr st.bgp_evals;
  let pruned = not (Engine.Candidates.is_empty admitted) in
  if pruned then Atomic.incr st.pruned_bgps;
  let engine = choose_engine st patterns ~pruned in
  let counted, stage = Sparql.Sink.counted ~name:"bgp" sink in
  Engine.Bgp_eval.eval_into_with st.env ~engine patterns ~candidates:admitted
    ~sink:counted;
  let actual = stage.Sparql.Sink.rows_in in
  note_bgp st patterns ~admitted ~forced ~engine ~pruned ~actual;
  float_of_int actual

(* Parallel-UNION safety check: evaluating a VALUES block interns its
   constants in the store dictionary — the one write to shared store state
   during evaluation — so a branch that can reach a VALUES node (directly
   or through an EXISTS pattern inside a filter) must stay on the serial
   path. Everything else a branch touches (indexes, statistics, candidate
   tables, dictionary decode) is read-only. *)
let rec ast_group_has_values (g : Sparql.Ast.group) =
  List.exists
    (function
      | Sparql.Ast.Triples _ -> false
      | Sparql.Ast.Values _ -> true
      | Sparql.Ast.Group g | Sparql.Ast.Optional g | Sparql.Ast.Minus g ->
          ast_group_has_values g
      | Sparql.Ast.Union gs -> List.exists ast_group_has_values gs
      | Sparql.Ast.Filter e -> expr_has_values e)
    g

and expr_has_values (e : Sparql.Ast.expr) =
  match e with
  | Sparql.Expr.Exists g | Sparql.Expr.Not_exists g -> ast_group_has_values g
  | Sparql.Expr.Const _ | Sparql.Expr.Var _ | Sparql.Expr.Bound _ -> false
  | Sparql.Expr.Cmp (_, e1, e2)
  | Sparql.Expr.Arith (_, e1, e2)
  | Sparql.Expr.And (e1, e2)
  | Sparql.Expr.Or (e1, e2) ->
      expr_has_values e1 || expr_has_values e2
  | Sparql.Expr.Neg e | Sparql.Expr.Not e -> expr_has_values e
  | Sparql.Expr.Call (_, args) -> List.exists expr_has_values args

let rec tree_has_values (g : Be_tree.group) =
  List.exists
    (function
      | Be_tree.Values _ -> true
      | Be_tree.Bgp _ -> false
      | Be_tree.Group g | Be_tree.Optional g | Be_tree.Minus g ->
          tree_has_values g
      | Be_tree.Union gs -> List.exists tree_has_values gs)
    g.children
  || List.exists expr_has_values g.filters

let rec filter_lookup st row v =
  let table = Engine.Bgp_eval.vartable st.env in
  let store = Engine.Bgp_eval.store st.env in
  match Sparql.Vartable.find table v with
  | None -> None
  | Some col ->
      if Sparql.Binding.is_bound row col then
        Some (Rdf_store.Snapshot.decode_term store row.(col))
      else None

let make_state env ~threshold ~adaptive ~feedback =
  { env; threshold; adaptive; feedback; peak_rows = Atomic.make 0;
    bgp_evals = Atomic.make 0; pruned_bgps = Atomic.make 0;
    replans = Atomic.make 0; nodes = ref []; nodes_mutex = Mutex.create () }

(* The pool as the fan-out of the streaming joins' probe side; [None]
   (serial) at one domain. *)
let bag_runner st = Option.map Engine.Pool.bag_runner (Engine.Bgp_eval.pool st.env)

(* A materialized intermediate: what [produce] emits, collected into a
   fresh bag. Returns the bag and [produce]'s join-space factor. *)
let collect st produce =
  let bag = Sparql.Bag.create ~width:(Engine.Bgp_eval.width st.env) in
  let js = produce ~sink:(Sparql.Bag.sink bag) in
  observe st bag;
  (bag, js)

(* EXISTS { P }: substitute the row's bindings into P and test whether the
   parameterized pattern has any solution. The pattern streams into a sink
   that stops at its first row, so a pattern with many matches costs one
   emitted row, not its whole result. *)
let rec exists_check st row group =
  let lookup = filter_lookup st row in
  let substituted = Sparql.Ast.substitute_group group ~lookup in
  let vartable = Sparql.Vartable.of_list (Sparql.Ast.group_vars substituted) in
  let env =
    Engine.Bgp_eval.make_snapshot
      ~stats:(Engine.Bgp_eval.stats st.env)
      (Engine.Bgp_eval.store st.env)
      vartable (Engine.Bgp_eval.engine st.env)
  in
  let sub_state =
    make_state env ~threshold:No_pruning ~adaptive:false ~feedback:None
  in
  let first_row =
    Sparql.Sink.terminal ~name:"exists" (fun _ -> raise Sparql.Sink.Stop)
  in
  match
    eval_group_into sub_state (Be_tree.of_ast substituted)
      ~cands:Engine.Candidates.empty ~forced:[] ~sink:first_row
  with
  | _ -> false
  | exception Sparql.Sink.Stop -> true

(* A VALUES block's rows into [sink]; constants are interned in the
   dictionary (harmless to results: they occur in no triple, so they
   simply become ids that join with nothing unless present in the data).
   The dictionary is internally synchronized and ids are append-only, so
   interning under concurrent readers is safe and invalidates nothing —
   only cached plans that compiled a constant to [Missing] re-validate
   against the dictionary size (see {!Session}). *)
and values_into st (block : Sparql.Ast.values_block) ~sink =
  let table = Engine.Bgp_eval.vartable st.env in
  let store = Engine.Bgp_eval.store st.env in
  let width = Engine.Bgp_eval.width st.env in
  let cols = List.map (Sparql.Vartable.id table) block.Sparql.Ast.vars in
  List.iter
    (fun row ->
      let fresh = Sparql.Binding.create ~width in
      List.iter2
        (fun col cell ->
          match cell with
          | Some term ->
              fresh.(col) <- Rdf_store.Snapshot.intern_term store term
          | None -> ())
        cols row;
      Sparql.Bag.emit_accounted sink fresh)
    block.Sparql.Ast.rows;
  float_of_int (List.length block.Sparql.Ast.rows)

(* UNION branches are independent by construction, so when the env carries
   a domain pool they evaluate concurrently, one branch per morsel.
   Branches that could intern dictionary terms (VALUES, see above) force
   the serial path; nested parallelism inside a branch (a WCO step or a
   probe-side fan-out) seeds its own job into the shared scheduler, so
   idle domains help with inner morsels instead of sitting out. *)
and eval_union_branches st branches ~cands ~forced =
  let branch g = collect st (eval_group_into st g ~cands ~forced) in
  match Engine.Bgp_eval.pool st.env with
  | Some pool
    when List.length branches > 1
         && not (List.exists tree_has_values branches) ->
      let arr = Array.of_list branches in
      Array.to_list
        (Engine.Pool.parallel_map pool ~morsel:1 ~lo:0 ~hi:(Array.length arr)
           (fun i -> branch arr.(i)))
  | _ -> List.map branch branches

(* The sideways columns forced into an OPTIONAL/MINUS subtree: every
   column of the (already soundness-restricted) candidate map. The
   restriction to left-universal columns has happened by the time this is
   called, and recursion re-derives the set at each inner boundary, so a
   forced column never outlives the scope where pruning on it is sound. *)
and forced_for st pass_down ~forced ~left_universal =
  if st.adaptive then Engine.Candidates.columns pass_down
  else List.filter (fun c -> List.mem c left_universal) forced

(* One child of Algorithm 1's fold: combine [node]'s solutions with the
   running result [r] ([None] before the first child) and emit the
   combination into [sink]. Returns the node's factor of the join space.
   With adaptive execution, an empty running result short-circuits the
   node: every combination form (join, OPTIONAL, MINUS, UNION-join) over
   an empty left side is empty — the degenerate but common mid-query
   re-plan. *)
and combine_into st ~cands ~forced r node ~sink =
  match r with
  | Some bag when st.adaptive && Sparql.Bag.is_empty bag ->
      record_node st
        {
          label = node_label node;
          engine = "skip";
          est_rows = Cost_model.node_card ?feedback:st.feedback st.env node;
          actual_rows = 0;
          replanned = false;
        };
      1.
  | _ -> (
      let width = Engine.Bgp_eval.width st.env in
      let pass_down = candidates_from st cands r node in
      (* [node]'s own solutions, as [produce] emits them, joined with [r]. *)
      let join_with produce =
        match r with
        | None -> produce ~sink
        | Some r0 ->
            let bag, js = collect st produce in
            Sparql.Bag.join_into ?pool:(bag_runner st) r0 bag ~sink;
            js
      in
      match node with
      | Be_tree.Bgp [] ->
          (match r with
          | None -> Sparql.Bag.emit_accounted sink (Sparql.Binding.create ~width)
          | Some r0 -> Sparql.Bag.replay r0 ~sink);
          1.
      | Be_tree.Bgp patterns ->
          join_with (bgp_into st patterns ~cands:pass_down ~forced)
      | Be_tree.Group inner ->
          join_with (eval_group_into st inner ~cands:pass_down ~forced)
      | Be_tree.Values block -> join_with (values_into st block)
      | Be_tree.Union branches ->
          let results =
            eval_union_branches st branches ~cands:pass_down ~forced
          in
          record_node st
            {
              label = node_label node;
              engine = "-";
              est_rows = Cost_model.node_card ?feedback:st.feedback st.env node;
              actual_rows =
                List.fold_left
                  (fun acc (bag, _) -> acc + Sparql.Bag.length bag)
                  0 results;
              replanned = false;
            };
          join_with (fun ~sink ->
              List.fold_left
                (fun acc (bag, branch_js) ->
                  Sparql.Bag.replay bag ~sink;
                  acc +. branch_js)
                0. results)
      | Be_tree.Optional inner | Be_tree.Minus inner ->
          (* Soundness: only columns universally bound by the left side
             (the current result) may prune the right side — pruning any
             other column could flip an extension into a spuriously
             surviving unextended row (OPTIONAL), or resurrect a row its
             excluder would have removed (MINUS). *)
          let left_universal =
            match r with
            | None -> []
            | Some bag -> Sparql.Bag.universal_columns bag
          in
          let pass_down =
            Engine.Candidates.restrict pass_down ~cols:left_universal
          in
          let forced = forced_for st pass_down ~forced ~left_universal in
          let bag, inner_js =
            collect st (eval_group_into st inner ~cands:pass_down ~forced)
          in
          let left_card =
            match r with
            | None -> 1.
            | Some bag -> float_of_int (Sparql.Bag.length bag)
          in
          record_node st
            {
              label = node_label node;
              engine = "-";
              est_rows =
                Cost_model.optional_card ?feedback:st.feedback st.env
                  ~left_card inner;
              actual_rows = Sparql.Bag.length bag;
              replanned = false;
            };
          let left = Option.value r ~default:(Sparql.Bag.unit ~width) in
          (match node with
          | Be_tree.Optional _ ->
              Sparql.Bag.left_outer_join_into ?pool:(bag_runner st) left bag
                ~sink
          | _ -> Sparql.Bag.sparql_minus_into left bag ~sink);
          Float.max inner_js 1.)

(* Algorithm 1, with candidate pruning (the [cands] argument is the paper's
   third argument to BGPBasedEvaluation): every child but the last
   combines into a materialized running result, and the last combines
   straight into [sink], through the group's FILTERs as sink stages — so a
   downstream LIMIT unwinds the whole pipeline via [Sink.Stop]. Rows
   streamed into [sink] are never observed as a bag, so [peak_rows]
   excludes them. Returns the group's contribution to the join space. *)
and eval_group_into st (g : Be_tree.group) ~cands ~forced ~sink : float =
  let sink =
    List.fold_left
      (fun sink e ->
        Sparql.Sink.filter ~name:"filter"
          ~f:(fun row ->
            Sparql.Expr.eval
              ~lookup:(filter_lookup st row)
              ~exists:(exists_check st row)
              e)
          sink)
      sink (List.rev g.filters)
  in
  match List.rev g.children with
  | [] ->
      Sparql.Bag.emit_accounted sink
        (Sparql.Binding.create ~width:(Engine.Bgp_eval.width st.env));
      1.
  | last :: rev_prefix ->
      let r, js =
        List.fold_left
          (fun (r, js) node ->
            let bag, node_js =
              collect st (combine_into st ~cands ~forced r node)
            in
            (Some bag, js *. node_js))
          (None, 1.) (List.rev rev_prefix)
      in
      js *. combine_into st ~cands ~forced r last ~sink

(* [total_rows] and the engine counters are deltas of the ambient
   governor ticket's counters across the evaluation (snapshots, not
   resets: the counters belong to the whole execution, and nested or
   back-to-back evaluations under one ticket must not clobber each
   other). *)
let finish_stats st gov ~base_pushed ~base_counts ~join_space ~stages =
  let counts =
    Sparql.Governor.diff (Sparql.Governor.counts gov) base_counts
  in
  {
    join_space;
    peak_rows = Atomic.get st.peak_rows;
    total_rows = Sparql.Governor.pushed gov - base_pushed;
    bgp_evals = Atomic.get st.bgp_evals;
    pruned_bgps = Atomic.get st.pruned_bgps;
    isect = Engine.Intersect.of_counts counts;
    stages;
    nodes = List.rev !(st.nodes);
    replans = Atomic.get st.replans;
    prefilter = Engine.Candidates.of_counts counts;
    sched = Engine.Pool.of_counts counts;
  }

let eval_into ?(adaptive = false) ?feedback env ~threshold ~sink tree =
  let st = make_state env ~threshold ~adaptive ~feedback in
  let gov = Sparql.Governor.current () in
  let base_pushed = Sparql.Governor.pushed gov in
  let base_counts = Sparql.Governor.counts gov in
  let join_space =
    try eval_group_into st tree ~cands:Engine.Candidates.empty ~forced:[] ~sink
    with Sparql.Sink.Stop -> 1.
  in
  Sparql.Sink.close sink;
  finish_stats st gov ~base_pushed ~base_counts ~join_space
    ~stages:(Sparql.Sink.stages sink)

let eval ?adaptive ?feedback env ~threshold tree =
  let bag = Sparql.Bag.create ~width:(Engine.Bgp_eval.width env) in
  let sink = Sparql.Bag.sink bag in
  let stats = eval_into ?adaptive ?feedback env ~threshold ~sink tree in
  (bag, stats)
