(* Observability: transformation decisions are logged on the sparql_uo
   source at debug level (enable with Logs.Src.set_level). *)
let log_src = Logs.Src.create "sparql_uo.transform" ~doc:"BE-tree transformations"

module Log = (val Logs.src_log log_src : Logs.LOG)

let nth_child (g : Be_tree.group) i = List.nth g.children i

let nonempty_bgp = function
  | Be_tree.Bgp (_ :: _ as b) -> Some b
  | _ -> None

(* Top-level non-empty BGP children of a group. *)
let bgp_children (g : Be_tree.group) =
  List.filter_map nonempty_bgp g.children

let has_coalescable_bgp_child b (g : Be_tree.group) =
  List.exists (Engine.Bgp.coalescable b) (bgp_children g)

let certain_vars = Be_tree.certain_vars

(* The indices of the top-level BGP children that coalescing [patterns]
   into [g] would absorb (transitive closure, as in {!coalesce_into}). *)
let absorbed_indices (patterns : Engine.Bgp.t) (g : Be_tree.group) =
  let children = Array.of_list g.children in
  let absorbed = Array.make (Array.length children) false in
  let combined = ref patterns in
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iteri
      (fun i node ->
        if not absorbed.(i) then
          match nonempty_bgp node with
          | Some b when Engine.Bgp.coalescable !combined b ->
              absorbed.(i) <- true;
              combined := !combined @ b;
              progress := true
          | _ -> ())
      children
  done;
  absorbed

(* Inserting [patterns] as the (coalesced) leftmost child of [g] places
   them — and any BGP children they absorb — in front of every OPTIONAL
   child of [g], i.e. into those OPTIONALs' left sides. That only
   preserves semantics when each OPTIONAL's variables shared with the
   inserted/moved patterns were already certainly bound by its original
   left side (otherwise an extension can be flipped into a spuriously
   surviving unextended row, or vice versa). The paper's transformations
   assume this implicitly (its workloads are well-designed); we check. *)
let insertion_safe (patterns : Engine.Bgp.t) (g : Be_tree.group) =
  let children = Array.of_list g.children in
  let absorbed = absorbed_indices patterns g in
  let safe = ref true in
  (* The group's FILTERs gain scope over the inserted patterns' variables:
     a filter mentioning a variable of P1 that the group does not already
     certainly bind would change meaning (e.g. from error/reject over an
     unbound variable to a real comparison). *)
  let pvars = Engine.Bgp.vars patterns in
  let certain_here = certain_vars g in
  List.iter
    (fun e ->
      let fvars = Sparql.Expr.vars ~pattern_vars:Sparql.Ast.group_vars e in
      let untouched = List.for_all (fun v -> not (List.mem v pvars)) fvars in
      let already_bound = List.for_all (fun v -> List.mem v certain_here) fvars in
      if not (untouched || already_bound) then safe := false)
    g.filters;
  let left_vars = ref [] in
  Array.iteri
    (fun j node ->
      (match node with
      | Be_tree.Optional inner | Be_tree.Minus inner ->
          let ovars = Be_tree.vars inner in
          (* Variables newly placed before this OPTIONAL: P1's own, plus
             those of absorbed BGPs that originally sat to its right. *)
          let moved = ref (Engine.Bgp.vars patterns) in
          Array.iteri
            (fun i node ->
              if i > j && absorbed.(i) then
                match nonempty_bgp node with
                | Some b -> moved := !moved @ Engine.Bgp.vars b
                | None -> ())
            children;
          if
            List.exists
              (fun v -> List.mem v !moved && not (List.mem v !left_vars))
              ovars
          then safe := false
      | _ -> ());
      let certain =
        match node with
        | Be_tree.Bgp b -> Engine.Bgp.vars b
        | Be_tree.Group inner -> certain_vars inner
        | Be_tree.Optional _ | Be_tree.Minus _ -> []
        | Be_tree.Values _ | Be_tree.Union _ ->
            certain_vars { g with children = [ node ] }
      in
      left_vars := !left_vars @ certain)
    children;
  !safe

(* OPTIONAL and MINUS are barriers: conjuncts may not move across them. *)
let optional_between (g : Be_tree.group) i j =
  let lo = min i j and hi = max i j in
  List.exists
    (fun k ->
      match nth_child g k with
      | Be_tree.Optional _ | Be_tree.Minus _ -> true
      | _ -> false)
    (List.init (max 0 (hi - lo - 1)) (fun d -> lo + 1 + d))

let can_merge (g : Be_tree.group) ~p1 ~union =
  p1 <> union
  && p1 >= 0 && union >= 0
  && p1 < List.length g.children
  && union < List.length g.children
  &&
  match (nonempty_bgp (nth_child g p1), nth_child g union) with
  | Some b, Be_tree.Union branches ->
      List.exists (has_coalescable_bgp_child b) branches
      && not (optional_between g p1 union)
      && List.for_all (insertion_safe b) branches
  | _ -> false

(* Insert [patterns] as the leftmost child of [g], then coalesce to
   maximality: every top-level BGP child transitively connected to the
   inserted patterns is absorbed into one node (Definitions 9/10, step 2). *)
let coalesce_into (patterns : Engine.Bgp.t) (g : Be_tree.group) : Be_tree.group =
  let absorbed = ref patterns in
  let remaining = ref g.children in
  let progress = ref true in
  while !progress do
    progress := false;
    remaining :=
      List.filter
        (fun node ->
          match nonempty_bgp node with
          | Some b when Engine.Bgp.coalescable !absorbed b ->
              absorbed := !absorbed @ b;
              progress := true;
              false
          | _ -> true)
        !remaining
  done;
  { g with children = Be_tree.Bgp !absorbed :: !remaining }

let replace_child (g : Be_tree.group) i node =
  { g with children = List.mapi (fun k c -> if k = i then node else c) g.children }

let apply_merge (g : Be_tree.group) ~p1 ~union =
  if not (can_merge g ~p1 ~union) then
    invalid_arg "Transform.apply_merge: conditions not met";
  let patterns =
    match nonempty_bgp (nth_child g p1) with
    | Some b -> b
    | None -> assert false
  in
  let branches =
    match nth_child g union with
    | Be_tree.Union branches -> branches
    | _ -> assert false
  in
  let merged = Be_tree.Union (List.map (coalesce_into patterns) branches) in
  let g = replace_child g union merged in
  (* The merged BGP leaves an empty node at its original position. *)
  replace_child g p1 (Be_tree.Bgp [])

let can_inject (g : Be_tree.group) ~p1 ~opt =
  p1 >= 0 && opt > p1
  && opt < List.length g.children
  &&
  match (nonempty_bgp (nth_child g p1), nth_child g opt) with
  | Some b, Be_tree.Optional inner ->
      has_coalescable_bgp_child b inner && insertion_safe b inner
  | _ -> false

let apply_inject (g : Be_tree.group) ~p1 ~opt =
  if not (can_inject g ~p1 ~opt) then
    invalid_arg "Transform.apply_inject: conditions not met";
  let patterns =
    match nonempty_bgp (nth_child g p1) with
    | Some b -> b
    | None -> assert false
  in
  let inner =
    match nth_child g opt with
    | Be_tree.Optional inner -> inner
    | _ -> assert false
  in
  replace_child g opt (Be_tree.Optional (coalesce_into patterns inner))

(* --- Cost-driven drivers (Algorithms 2-4) ------------------------------- *)

(* The Section 6 special case: transformation on a BGP that is the only
   pattern to the left of the target node is equivalent to candidate
   pruning; Full mode skips it to avoid paying the transformation twice. *)
let cp_equivalent (g : Be_tree.group) ~p1 ~target =
  p1 < target
  && List.for_all
       (fun k ->
         k = p1
         ||
         match nth_child g k with
         | Be_tree.Bgp [] -> true
         | Be_tree.Bgp _ | Be_tree.Group _ | Be_tree.Union _
         | Be_tree.Values _ ->
             false
         | Be_tree.Optional _ | Be_tree.Minus _ -> true)
       (List.init target (fun k -> k))

(* [skip_cp_equivalent] identifies the Full configuration — the only
   transforming mode that also runs candidate pruning at execution time —
   so it doubles as the switch for pruned OPTIONAL pricing: Full prices an
   OPTIONAL child as prefiltered by its left side, TT as standalone. *)
let delta_cost env ~pruned before after =
  Cost_model.two_level_cost ~pruned env after
  -. Cost_model.two_level_cost ~pruned env before

(* Algorithm 2: for each BGP child, pick the sibling UNION whose merge has
   the most negative Δ-cost (if any), else try each OPTIONAL to the right
   for inject, keeping each inject whose Δ-cost is negative. With
   [skip_cp_equivalent] (the Full mode of Section 6), transformations
   whose effect is equivalent to candidate pruning — the BGP is the only
   pattern to the left of the target — are skipped. *)
let single_level env ?(skip_cp_equivalent = false) (g : Be_tree.group) =
  let current = ref g in
  let n = List.length g.children in
  for p1 = 0 to n - 1 do
    let g = !current in
    match nonempty_bgp (nth_child g p1) with
    | None -> ()
    | Some b ->
        (* One of Algorithm 3's unspecified "constraints": only a BGP at
           least as selective as the UNION it would enter is worth
           merging — the paper's Figure 7 shows merging a low-selectivity
           BGP only duplicates work. *)
        let selective_enough u =
          match nth_child g u with
          | Be_tree.Union _ as union_node ->
              Cost_model.bgp_card env b
              <= Float.max 1. (Cost_model.node_card env union_node)
          | _ -> false
        in
        (* DecideMerge: the best (most negative Δ-cost) sibling UNION. *)
        let best_merge = ref None in
        for u = 0 to n - 1 do
          if
            can_merge g ~p1 ~union:u
            && selective_enough u
            && not (skip_cp_equivalent && cp_equivalent g ~p1 ~target:u)
          then begin
            let candidate = apply_merge g ~p1 ~union:u in
            let delta = delta_cost env ~pruned:skip_cp_equivalent g candidate in
            match !best_merge with
            | Some (best_delta, _) when best_delta <= delta -> ()
            | _ -> if delta < 0. then best_merge := Some (delta, candidate)
          end
        done;
        (match !best_merge with
        | Some (delta, transformed) ->
            Log.debug (fun m ->
                m "merge accepted at child %d (delta-cost %.4g)" p1 delta);
            current := transformed
        | None ->
            (* DecideInject: each OPTIONAL to the right, independently. *)
            for o = p1 + 1 to n - 1 do
              let g = !current in
              if
                can_inject g ~p1 ~opt:o
                && not (skip_cp_equivalent && cp_equivalent g ~p1 ~target:o)
              then begin
                let candidate = apply_inject g ~p1 ~opt:o in
                let delta =
                  delta_cost env ~pruned:skip_cp_equivalent g candidate
                in
                if delta < 0. then begin
                  Log.debug (fun m ->
                      m "inject accepted: child %d into OPTIONAL %d \
                         (delta-cost %.4g)" p1 o delta);
                  current := candidate
                end
              end
            done)
  done;
  !current

let rec multi_level env ?(skip_cp_equivalent = false) (g : Be_tree.group) =
  let children =
    List.map
      (fun node ->
        match node with
        | Be_tree.Bgp _ | Be_tree.Values _ -> node
        | Be_tree.Group inner ->
            Be_tree.Group (multi_level env ~skip_cp_equivalent inner)
        | Be_tree.Optional inner ->
            Be_tree.Optional (multi_level env ~skip_cp_equivalent inner)
        | Be_tree.Minus inner ->
            Be_tree.Minus (multi_level env ~skip_cp_equivalent inner)
        | Be_tree.Union gs ->
            Be_tree.Union (List.map (multi_level env ~skip_cp_equivalent) gs))
      g.children
  in
  single_level env ~skip_cp_equivalent { g with children }

(* [timed_multi_level] — Algorithm 4 with its wall-clock cost measured,
   the number the prepare phase records once and every re-execution of a
   prepared query then skips. *)
let timed_multi_level env ?skip_cp_equivalent g =
  let t0 = Unix.gettimeofday () in
  let transformed = multi_level env ?skip_cp_equivalent g in
  (transformed, (Unix.gettimeofday () -. t0) *. 1000.)
