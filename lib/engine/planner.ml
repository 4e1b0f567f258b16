type step = {
  pattern : Compiled.t;
  pattern_count : int;
  card_before : float;
  card_after : float;
  avg_edge : float;
}

type vstep = Scan of step | Extend of { col : int; steps : step list }

type plan = {
  steps : step list;
  vsteps : vstep list;
  result_card : float;
  cost_wco : float;
  cost_hash : float;
}

(* [single_extension bound p] is [Some col] when exactly one position of
   [p] holds a not-yet-bound variable (column [col]) and every other
   position is a constant or an already-bound variable — i.e. under any
   row, matching [p] reduces to enumerating the sorted third column of one
   index prefix. A pattern repeating the unbound variable does not
   qualify. *)
let single_extension bound (p : Compiled.t) =
  if Compiled.has_missing p then None
  else begin
    let unbound = ref [] in
    let check = function
      | Compiled.Cvar c when not (List.mem c bound) -> unbound := c :: !unbound
      | Compiled.Cvar _ | Compiled.Cterm _ | Compiled.Missing -> ()
    in
    check p.Compiled.cs;
    check p.Compiled.cp;
    check p.Compiled.co;
    match !unbound with [ c ] -> Some c | _ -> None
  end

(* Group the ordered steps vertex-at-a-time: a step that single-extends
   column [col] becomes the primary of an [Extend] and absorbs every later
   step that also single-extends [col] under the same bound set (star
   constants, and the pattern closing a triangle) — those patterns
   participate as extra intersection operands instead of post-hoc filters.
   Join commutativity makes pulling an absorbed step forward sound: it
   binds no column other than [col], and within one index prefix the
   deduplicated triple table makes the primary's third column
   duplicate-free, so multiplicities are preserved. Steps binding zero or
   two-plus new columns stay [Scan]s. *)
let group_steps steps =
  let rec go bound acc = function
    | [] -> List.rev acc
    | s :: rest -> (
        match single_extension bound s.pattern with
        | Some col ->
            let absorbed, remaining =
              List.partition
                (fun s' -> single_extension bound s'.pattern = Some col)
                rest
            in
            go (col :: bound)
              (Extend { col; steps = s :: absorbed } :: acc)
              remaining
        | None ->
            let bound =
              List.fold_left
                (fun b c -> if List.mem c b then b else c :: b)
                bound
                (Compiled.var_columns s.pattern)
            in
            go bound (Scan s :: acc) rest)
  in
  go [] [] steps

let sample_size = 32

(* Extend [row] with the bindings a matching (s, p, o) induces; [None] when
   a variable repeated within the pattern would bind inconsistently. *)
let bind_match pattern row ~s ~p ~o =
  let fresh = Array.copy row in
  let consistent = ref true in
  let bind node value =
    match node with
    | Compiled.Cvar col ->
        if fresh.(col) = Sparql.Binding.unbound then fresh.(col) <- value
        else if fresh.(col) <> value then consistent := false
    | Compiled.Cterm _ | Compiled.Missing -> ()
  in
  bind pattern.Compiled.cs s;
  bind pattern.Compiled.cp p;
  bind pattern.Compiled.co o;
  if !consistent then Some fresh else None

(* Matches of [pattern] under [row], sampled at most [limit], evenly
   spaced: the matches at positions 0, stride, 2·stride, … that bind
   consistently, read by position — O(limit · log n), whatever the size
   of the pattern's range. Also returns the total match count. *)
let sample_matches store pattern row ~limit =
  let total = Compiled.count_with store pattern row in
  if total = 0 then (0, [])
  else begin
    let stride = max 1 (total / limit) in
    let collected = ref [] and n = ref 0 in
    Compiled.iter_strided store pattern row ~stride ~f:(fun ~s ~p ~o ->
        (match bind_match pattern row ~s ~p ~o with
        | Some fresh ->
            collected := fresh :: !collected;
            incr n
        | None -> ());
        !n < limit);
    (total, List.rev !collected)
  end

(* True when the pattern shares a variable column with [bound]. *)
let connected bound pattern =
  List.exists (fun col -> List.mem col bound) (Compiled.var_columns pattern)

(* Pick the most selective item, preferring ones connected to the
   already-bound columns; returns (choice, rest). Ties keep the earlier
   item, so the order of [items] breaks them. *)
let pick_next ~pattern bound items =
  let better (c1, n1) (c2, n2) =
    let conn1 = connected bound (pattern c1)
    and conn2 = connected bound (pattern c2) in
    if conn1 <> conn2 then conn1 else n1 < n2
  in
  match items with
  | [] -> invalid_arg "Planner.pick_next: empty"
  | first :: rest ->
      let choice =
        List.fold_left (fun acc c -> if better c acc then c else acc) first rest
      in
      (choice, List.filter (fun (c, _) -> c != fst choice) items)

(* The greedy join order over (item, count) pairs: repeatedly the most
   selective item, staying connected when possible. Planning orders
   patterns by their exact counts; steering re-orders a plan's steps by
   candidate-bounded counts. *)
let greedy_order ~pattern items =
  let rec go bound acc = function
    | [] -> List.rev acc
    | items ->
        let ((c, _) as choice), rest = pick_next ~pattern bound items in
        go (Compiled.var_columns (pattern c) @ bound) (choice :: acc) rest
  in
  go [] [] items

(* The gStore average_size term: with the predicate constant and an
   already-bound endpoint variable, the average number of edges per
   binding, from precomputed statistics; min over bound endpoints.
   [fallback] (the observed extension ratio) covers the other cases. *)
let avg_edge_of stats bound pattern ~fallback =
  match pattern.Compiled.cp with
  | Compiled.Cterm p -> (
      let pstats = Rdf_store.Stats.predicate stats ~p in
      let endpoint_avg node degree =
        match node with
        | Compiled.Cvar col when List.mem col bound -> Some degree
        | _ -> None
      in
      let candidates =
        List.filter_map Fun.id
          [
            endpoint_avg pattern.Compiled.cs pstats.Rdf_store.Stats.avg_out_degree;
            endpoint_avg pattern.Compiled.co pstats.Rdf_store.Stats.avg_in_degree;
          ]
      in
      match candidates with
      | [] -> fallback
      | first :: rest -> List.fold_left Float.min first rest)
  | Compiled.Cvar _ | Compiled.Missing -> fallback

let plan_with ~sample_matches store stats table patterns =
  match patterns with
  | [] ->
      { steps = []; vsteps = []; result_card = 1.; cost_wco = 0.; cost_hash = 0. }
  | _ ->
      let with_counts =
        List.map (fun p -> (p, Compiled.exact_count store p)) patterns
      in
      let width = Sparql.Vartable.size table in
      let rec loop bound ordered card sample steps cost_wco cost_hash =
        match ordered with
        | [] ->
            let steps = List.rev steps in
            {
              steps;
              vsteps = group_steps steps;
              result_card = card;
              cost_wco;
              cost_hash;
            }
        | (pattern, pattern_count) :: rest ->
            let is_first = steps = [] in
            if is_first then begin
              let empty = Sparql.Binding.create ~width in
              let _, sample = sample_matches store pattern empty ~limit:sample_size in
              let card_after = float_of_int pattern_count in
              let step =
                {
                  pattern;
                  pattern_count;
                  card_before = 1.;
                  card_after;
                  avg_edge = card_after;
                }
              in
              loop
                (Compiled.var_columns pattern @ bound)
                rest card_after sample (step :: steps)
                (cost_wco +. float_of_int pattern_count)
                (cost_hash +. float_of_int pattern_count)
            end
            else begin
              (* Extension estimate from the sample, per the paper. *)
              let extend_total, extended =
                List.fold_left
                  (fun (total, rows) row ->
                    let n, matches = sample_matches store pattern row ~limit:4 in
                    (total + n, List.rev_append matches rows))
                  (0, []) sample
              in
              let nsample = List.length sample in
              let ratio =
                if nsample = 0 then 0.
                else float_of_int extend_total /. float_of_int nsample
              in
              let card_after =
                if card = 0. then 0. else Float.max (ratio *. card) 1.
              in
              let avg_edge = avg_edge_of stats bound pattern ~fallback:(Float.max ratio 1.) in
              let step =
                { pattern; pattern_count; card_before = card; card_after; avg_edge }
              in
              (* WCO: scan avg_edge edges for each existing result tuple.
                 Hash: build on the smaller side, probe the larger (Eq. 9). *)
              let cost_wco = cost_wco +. (card *. avg_edge) in
              let pcount = float_of_int pattern_count in
              let cost_hash =
                cost_hash +. (2. *. Float.min card pcount) +. Float.max card pcount
              in
              (* Keep the sample bounded and evenly spread. *)
              let sample =
                let arr = Array.of_list extended in
                let n = Array.length arr in
                if n <= sample_size then extended
                else begin
                  let stride = n / sample_size in
                  List.init sample_size (fun i -> arr.(i * stride))
                end
              in
              loop
                (Compiled.var_columns pattern @ bound)
                rest card_after sample (step :: steps) cost_wco cost_hash
            end
      in
      loop [] (greedy_order ~pattern:Fun.id with_counts) 1. [] [] 0. 0.

let plan store stats table patterns =
  plan_with ~sample_matches store stats table patterns

(* {1 Candidate steering} *)

(* A step's count when a variable of its pattern carries a candidate set
   of [n] values: at most ⌈n × the predicate's average degree at that
   endpoint⌉ matches, the way gStore starts from its smallest candidate
   list. Only constant-predicate endpoints have a degree; the minimum
   over the pattern's endpoints, capped by the exact count. *)
let steered_count stats ~card (step : step) =
  match step.pattern.Compiled.cp with
  | Compiled.Cvar _ | Compiled.Missing -> step.pattern_count
  | Compiled.Cterm p ->
      let pstats = Rdf_store.Stats.predicate stats ~p in
      let bounded node degree count =
        match node with
        | Compiled.Cvar col -> (
            match card col with
            | Some n ->
                min count (int_of_float (Float.ceil (float_of_int n *. degree)))
            | None -> count)
        | Compiled.Cterm _ | Compiled.Missing -> count
      in
      bounded step.pattern.Compiled.cs pstats.Rdf_store.Stats.avg_out_degree
        (bounded step.pattern.Compiled.co pstats.Rdf_store.Stats.avg_in_degree
           step.pattern_count)

let steer stats plan ~card =
  match plan.steps with
  | [] | [ _ ] -> plan
  | steps ->
      let counted =
        List.map (fun s -> (s, steered_count stats ~card s)) steps
      in
      if List.for_all (fun (s, n) -> n = s.pattern_count) counted then plan
      else
        let order =
          List.map fst (greedy_order ~pattern:(fun s -> s.pattern) counted)
        in
        (* Counts moved, but the order may not have. *)
        if List.for_all2 ( == ) order steps then plan
        else { plan with steps = order; vsteps = group_steps order }
