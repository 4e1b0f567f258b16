(* The candidate check for a pattern position: a newly bound variable must
   pass its candidate set; constants and already-bound variables were
   checked when they were bound. The test is counted on [gov]. *)
let node_allowed gov candidates row node value =
  match node with
  | Compiled.Cvar col when row.(col) = Sparql.Binding.unbound ->
      Candidates.allows gov candidates ~col value
  | Compiled.Cvar _ | Compiled.Cterm _ | Compiled.Missing -> true

(* Enumerate matches of [pattern] under [row] and emit consistent,
   candidate-passing extensions. Matches are bound into [scratch] (any row
   of the right width; clobbered) and copied only when they survive every
   check — failing matches cost no allocation. *)
let scan_and_push ~gov store candidates pattern ~scratch row ~emit =
  Array.blit row 0 scratch 0 (Array.length row);
  Compiled.iter_matches store pattern row ~f:(fun ~s ~p ~o ->
      if
        node_allowed gov candidates row pattern.Compiled.cs s
        && node_allowed gov candidates row pattern.Compiled.cp p
        && node_allowed gov candidates row pattern.Compiled.co o
      then begin
        let b1 = ref (-1) and b2 = ref (-1) and b3 = ref (-1) in
        let consistent = ref true in
        (* A variable repeated within the pattern must match the same
           value at both positions (e.g. ?x :p ?x). *)
        let bind slot node value =
          match node with
          | Compiled.Cvar col ->
              if scratch.(col) = Sparql.Binding.unbound then begin
                scratch.(col) <- value;
                slot := col
              end
              else if scratch.(col) <> value then consistent := false
          | Compiled.Cterm _ | Compiled.Missing -> ()
        in
        bind b1 pattern.Compiled.cs s;
        bind b2 pattern.Compiled.cp p;
        bind b3 pattern.Compiled.co o;
        if !consistent then emit (Array.copy scratch);
        (* Restore [scratch = row]: only freshly bound cells changed. *)
        if !b1 >= 0 then scratch.(!b1) <- Sparql.Binding.unbound;
        if !b2 >= 0 then scratch.(!b2) <- Sparql.Binding.unbound;
        if !b3 >= 0 then scratch.(!b3) <- Sparql.Binding.unbound
      end)

(* Expected matches per seeded lookup of [col]: with a constant predicate
   the per-binding average degree of that endpoint (statistics), otherwise
   a positional rank (subject prefixes are the cheapest accesses in
   practice, then object, then predicate). *)
let seed_access_cost stats (pattern : Compiled.t) col =
  match pattern.Compiled.cp with
  | Compiled.Cterm p when pattern.Compiled.cs = Compiled.Cvar col ->
      (Rdf_store.Stats.predicate stats ~p).Rdf_store.Stats.avg_out_degree
  | Compiled.Cterm p when pattern.Compiled.co = Compiled.Cvar col ->
      (Rdf_store.Stats.predicate stats ~p).Rdf_store.Stats.avg_in_degree
  | _ ->
      if pattern.Compiled.cs = Compiled.Cvar col then 0.
      else if pattern.Compiled.co = Compiled.Cvar col then 1.
      else 2.

(* The best candidate set attached to a variable the pattern would newly
   bind, if any: the seed for candidate-driven index lookups. Smallest
   cardinality wins; ties break on the cheaper seeded index access. *)
let best_seed stats candidates row pattern =
  let strictly_better (c1, v1) (c2, v2) =
    let n1 = Candidates.cardinal v1 and n2 = Candidates.cardinal v2 in
    if n1 <> n2 then n1 < n2
    else seed_access_cost stats pattern c1 < seed_access_cost stats pattern c2
  in
  let consider acc node =
    match node with
    | Compiled.Cvar col when row.(col) = Sparql.Binding.unbound -> (
        match Candidates.find candidates ~col with
        | Some values -> (
            match acc with
            | Some best when not (strictly_better (col, values) best) -> acc
            | _ -> Some (col, values))
        | None -> acc)
    | Compiled.Cvar _ | Compiled.Cterm _ | Compiled.Missing -> acc
  in
  consider
    (consider (consider None pattern.Compiled.cs) pattern.Compiled.cp)
    pattern.Compiled.co

(* Extend one partial result row through [pattern]. When a newly bound
   variable carries a candidate set smaller than the scan the index would
   otherwise perform, iterate the candidates and do keyed lookups instead
   — this is how candidate pruning "prunes the search space of BGP
   evaluation on-the-fly" (Section 6) rather than merely post-filtering. *)
(* A keyed index probe costs several times one row of the contiguous
   range scan it replaces, so seeding from a candidate set pays only
   with a real cardinality margin; anything denser is better served by
   the in-kernel membership filter. *)
let seed_probe_factor = 4

let extend_row ~gov store stats candidates pattern ~scratch row ~emit =
  match best_seed stats candidates row pattern with
  | Some (col, values)
    when seed_probe_factor * Candidates.cardinal values
         < Compiled.count_with store pattern row ->
      Candidates.iter_values values ~f:(fun value ->
          let seeded = Array.copy row in
          seeded.(col) <- value;
          scan_and_push ~gov store candidates pattern ~scratch seeded ~emit)
  | _ -> scan_and_push ~gov store candidates pattern ~scratch row ~emit

(* Rows are extended independently, so a step parallelizes by morselizing
   the current bag across domains; each agent pushes into a thread-local
   part (budget-accounted there, preallocated to a morsel's worth of rows)
   and the parts are concatenated. Serial when no pool is given or the bag
   is too small to amortize the fan-out. *)
let min_parallel_rows = 32

let eval_step ?pool ~gov store stats ~width candidates input
    (step : Planner.step) =
  (* Chaos site: every WCO scan step (materializing or not) enters here. *)
  Sparql.Governor.failpoint "scan";
  match pool with
  | Some pool when Sparql.Bag.length input >= min_parallel_rows ->
      Sparql.Bag.concat ~width
        (List.map fst
           (Pool.accumulate pool ~lo:0
              ~hi:(Sparql.Bag.length input)
              ~create:(fun () ->
                ( Sparql.Bag.create_sized ~capacity:Pool.morsel_size ~width,
                  Sparql.Binding.create ~width ))
              ~body:(fun (out, scratch) i ->
                extend_row ~gov store stats candidates step.pattern ~scratch
                  (Sparql.Bag.get input i) ~emit:(Sparql.Bag.push out))
              ()))
  | _ ->
      let next = Sparql.Bag.create ~width in
      let scratch = Sparql.Binding.create ~width in
      Sparql.Bag.iter input ~f:(fun row ->
          extend_row ~gov store stats candidates step.pattern ~scratch row
            ~emit:(Sparql.Bag.push next));
      next

(* {1 The multiway-intersection extension (vertex-at-a-time)} *)

(* Resolve one pattern of an [Extend] group to the sorted third-column view
   of its index prefix under [row]: by construction exactly the extension
   column is unbound. *)
let operand_of store row (pattern : Compiled.t) =
  let key = function
    | Compiled.Cterm id -> Some id
    | Compiled.Cvar c when row.(c) <> Sparql.Binding.unbound -> Some row.(c)
    | Compiled.Cvar _ -> None
    | Compiled.Missing -> assert false
  in
  Intersect.View
    (Rdf_store.Snapshot.third_column_view store
       ?s:(key pattern.Compiled.cs) ?p:(key pattern.Compiled.cp)
       ?o:(key pattern.Compiled.co) ())

(* How the extension column's candidate set (if any) joins the
   intersection: a sparse sorted set becomes one more operand; a dense
   bitset becomes a load+mask filter applied inside the kernel. *)
let candidate_operands gov candidates ~col =
  match Candidates.find candidates ~col with
  | None -> ([], [])
  | Some set -> (
      match Candidates.as_sorted set with
      | Some arr -> ([ Intersect.Values arr ], [])
      | None -> ([], [ Candidates.noted_mem gov set ]))

(* Minimum intersected-domain size for which fanning the row
   materialization out across the pool beats the serial loop. *)
let min_parallel_domain = 512

let eval_extend ?pool ~gov store ~width candidates input ~col
    (patterns : Compiled.t list) =
  (* Chaos site: every vertex-at-a-time extension step enters here. *)
  Sparql.Governor.failpoint "extend";
  let extra, filters = candidate_operands gov candidates ~col in
  let domain_into buf row =
    Intersect.multiway ~gov ~buf
      (extra @ List.map (operand_of store row) patterns)
      ~filters
  in
  match pool with
  | Some pool when Sparql.Bag.length input >= min_parallel_rows ->
      (* Plenty of rows: morselize the input bag, one scratch domain
         buffer per agent. *)
      Sparql.Bag.concat ~width
        (List.map fst
           (Pool.accumulate pool ~lo:0
              ~hi:(Sparql.Bag.length input)
              ~create:(fun () ->
                (Sparql.Bag.create_sized ~capacity:Pool.morsel_size ~width, ref [||]))
              ~body:(fun (out, buf) i ->
                let row = Sparql.Bag.get input i in
                let n = domain_into buf row in
                let b = !buf in
                for k = 0 to n - 1 do
                  let fresh = Array.copy row in
                  fresh.(col) <- Array.unsafe_get b k;
                  Sparql.Bag.push out fresh
                done)
              ()))
  | Some pool ->
      (* Few rows (a star query starts from the unit bag): parallelism must
         come from morselizing the intersected domain itself, not the
         input. *)
      let buf = ref [||] in
      let parts = ref [] in
      let serial = Sparql.Bag.create ~width in
      Sparql.Bag.iter input ~f:(fun row ->
          let n = domain_into buf row in
          if n >= min_parallel_domain then begin
            let b = !buf in
            parts :=
              List.rev_append
                (Pool.accumulate pool
                   ~morsel:(Pool.adaptive_morsel pool ~n)
                   ~lo:0 ~hi:n
                   ~create:(fun () -> Sparql.Bag.create_sized ~capacity:Pool.morsel_size ~width)
                   ~body:(fun out k ->
                     let fresh = Array.copy row in
                     fresh.(col) <- Array.unsafe_get b k;
                     Sparql.Bag.push out fresh)
                   ())
                !parts
          end
          else begin
            let b = !buf in
            for k = 0 to n - 1 do
              let fresh = Array.copy row in
              fresh.(col) <- Array.unsafe_get b k;
              Sparql.Bag.push serial fresh
            done
          end);
      Sparql.Bag.concat ~width (serial :: List.rev !parts)
  | None ->
      let next = Sparql.Bag.create ~width in
      let buf = ref [||] in
      Sparql.Bag.iter input ~f:(fun row ->
          let n = domain_into buf row in
          let b = !buf in
          for k = 0 to n - 1 do
            let fresh = Array.copy row in
            fresh.(col) <- Array.unsafe_get b k;
            Sparql.Bag.push next fresh
          done);
      next

let eval_vstep ?pool ~gov store stats ~width candidates input = function
  | Planner.Scan step ->
      eval_step ?pool ~gov store stats ~width candidates input step
  | Planner.Extend { col; steps } ->
      eval_extend ?pool ~gov store ~width candidates input ~col
        (List.map (fun (s : Planner.step) -> s.pattern) steps)

(* The final step streams: every step but the last materializes (each
   step's input must be complete before the next begins), and the last
   step's extensions flow straight into [sink]. Under a pool the
   last step runs through [Pool.stream]: each agent emits into its own
   shard of the sink, and a [Sink.Stop] raised in any shard (a satisfied
   LIMIT) stops the other domains at their next morsel boundary — genuine
   cross-domain early termination, not a serial replay of worker bags.
   The serial terminal scan binds into a scratch row and copies only on
   emit. *)
let stream_scan ?pool ~gov store stats ~width candidates input
    (step : Planner.step) ~sink =
  Sparql.Governor.failpoint "scan";
  match pool with
  | Some pool when Sparql.Bag.length input >= min_parallel_rows ->
      Pool.stream pool ~lo:0 ~hi:(Sparql.Bag.length input) ~sink
        ~local:(fun () -> Sparql.Binding.create ~width)
        ~body:(fun scratch shard i ->
          extend_row ~gov store stats candidates step.pattern ~scratch
            (Sparql.Bag.get input i) ~emit:(Sparql.Bag.emit_charged shard))
        ()
  | _ ->
      let scratch = Sparql.Binding.create ~width in
      Sparql.Bag.iter input ~f:(fun row ->
          extend_row ~gov store stats candidates step.pattern ~scratch row
            ~emit:(Sparql.Bag.emit_accounted sink))

let stream_extend ?pool ~gov store ~width candidates input ~col patterns ~sink
    =
  Sparql.Governor.failpoint "extend";
  let extra, filters = candidate_operands gov candidates ~col in
  let domain_into buf row =
    Intersect.multiway ~gov ~buf
      (extra @ List.map (operand_of store row) patterns)
      ~filters
  in
  match pool with
  | Some pool when Sparql.Bag.length input >= min_parallel_rows ->
      (* Morselize the input rows; each agent intersects into its own
         scratch domain buffer and streams extensions into its shard. *)
      Pool.stream pool ~lo:0 ~hi:(Sparql.Bag.length input) ~sink
        ~local:(fun () -> ref [||])
        ~body:(fun buf shard i ->
          let row = Sparql.Bag.get input i in
          let n = domain_into buf row in
          let b = !buf in
          for k = 0 to n - 1 do
            let fresh = Array.copy row in
            fresh.(col) <- Array.unsafe_get b k;
            Sparql.Bag.emit_charged shard fresh
          done)
        ()
  | Some pool ->
      (* Few rows: morselize each large intersected domain instead. *)
      let buf = ref [||] in
      Sparql.Bag.iter input ~f:(fun row ->
          let n = domain_into buf row in
          if n >= min_parallel_domain then begin
            let b = !buf in
            Pool.stream pool
              ~morsel:(Pool.adaptive_morsel pool ~n)
              ~lo:0 ~hi:n ~sink
              ~local:(fun () -> ())
              ~body:(fun () shard k ->
                let fresh = Array.copy row in
                fresh.(col) <- Array.unsafe_get b k;
                Sparql.Bag.emit_charged shard fresh)
              ()
          end
          else begin
            let b = !buf in
            for k = 0 to n - 1 do
              let fresh = Array.copy row in
              fresh.(col) <- Array.unsafe_get b k;
              Sparql.Bag.emit_accounted sink fresh
            done
          end)
  | None ->
      let buf = ref [||] in
      Sparql.Bag.iter input ~f:(fun row ->
          let n = domain_into buf row in
          let b = !buf in
          for k = 0 to n - 1 do
            let fresh = Array.copy row in
            fresh.(col) <- Array.unsafe_get b k;
            Sparql.Bag.emit_accounted sink fresh
          done)

(* The execution's ticket is fetched once here; every step, and every
   morsel of a parallel step, counts its kernel and prefilter work on
   it. *)
let eval_into ?pool store ~stats ~width (plan : Planner.plan) ~candidates ~sink
    =
  let gov = Sparql.Governor.current () in
  match List.rev plan.vsteps with
  | [] -> Sparql.Bag.emit_accounted sink (Sparql.Binding.create ~width)
  | last :: rev_prefix -> (
      let input =
        List.fold_left
          (eval_vstep ?pool ~gov store stats ~width candidates)
          (Sparql.Bag.unit ~width) (List.rev rev_prefix)
      in
      match last with
      | Planner.Scan step ->
          stream_scan ?pool ~gov store stats ~width candidates input step
            ~sink
      | Planner.Extend { col; steps } ->
          stream_extend ?pool ~gov store ~width candidates input ~col
            (List.map (fun (s : Planner.step) -> s.pattern) steps)
            ~sink)
