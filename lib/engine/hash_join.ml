(* Enumerate the candidate-passing, self-consistent matches of a single
   triple pattern as fresh rows. *)
let scan_iter store ~width pattern ~candidates ~f =
  (* Chaos site: every pattern scan of the hash engine (and LBR's pass 0)
     enters here. *)
  Sparql.Governor.failpoint "scan";
  let gov = Sparql.Governor.current () in
  let empty = Sparql.Binding.create ~width in
  Compiled.iter_matches store pattern empty ~f:(fun ~s ~p ~o ->
      let fresh = Sparql.Binding.create ~width in
      let consistent = ref true in
      let bind node value =
        match node with
        | Compiled.Cvar col ->
            if not (Candidates.allows gov candidates ~col value) then
              consistent := false
            else if fresh.(col) = Sparql.Binding.unbound then
              fresh.(col) <- value
            else if fresh.(col) <> value then consistent := false
        | Compiled.Cterm _ | Compiled.Missing -> ()
      in
      bind pattern.Compiled.cs s;
      bind pattern.Compiled.cp p;
      bind pattern.Compiled.co o;
      if !consistent then f fresh)

let scan_pattern store ~width pattern ~candidates =
  let bag = Sparql.Bag.create ~width in
  scan_iter store ~width pattern ~candidates ~f:(Sparql.Bag.push bag);
  bag

(* The variable columns a pattern binds — the probe-side domain of the
   final join in [eval_into]. *)
let pattern_cols (pattern : Compiled.t) =
  let add acc node =
    match node with
    | Compiled.Cvar col -> if List.mem col acc then acc else col :: acc
    | Compiled.Cterm _ | Compiled.Missing -> acc
  in
  add (add (add [] pattern.Compiled.cs) pattern.Compiled.cp) pattern.Compiled.co

(* Minimum probe-side cardinality for which materializing the last scan
   and morselizing the probe across domains beats the serial streaming
   probe (which can short-circuit the scan itself). *)
let min_parallel_probe = 512

(* The joins over all patterns but the last build and materialize
   left-deep in the planner's order; the accumulated result then becomes the
   build side of the final join, and the last pattern's scan probes it
   row-at-a-time, emitting merged rows straight into [sink] — the scan
   never materializes, so a downstream LIMIT short-circuits it via
   [Sink.Stop]. Each scanned probe row is budget-accounted as a produced
   row (parity with [scan_pattern]'s pushes).

   Under a pool with several domains, a large probe side is materialized
   once and morselized through [Pool.stream]: the build partition is
   read-only, so every agent probes it concurrently and emits merged rows
   into its own shard of the sink; a [Sink.Stop] in any shard stops the
   other domains at their next morsel boundary. *)
let eval_into ?pool store ~width (plan : Planner.plan) ~candidates ~sink =
  match List.rev plan.steps with
  | [] -> Sparql.Bag.emit_accounted sink (Sparql.Binding.create ~width)
  | last :: rev_prefix ->
      let runner = Option.map Pool.bag_runner pool in
      let acc =
        List.fold_left
          (fun acc (step : Planner.step) ->
            let scanned =
              scan_pattern store ~width step.Planner.pattern ~candidates
            in
            let joined = Sparql.Bag.create ~width in
            Sparql.Bag.join_into ?pool:runner acc scanned
              ~sink:(Sparql.Bag.sink joined);
            joined)
          (Sparql.Bag.unit ~width) (List.rev rev_prefix)
      in
      let probe_cols = pattern_cols last.Planner.pattern in
      let parallel_probe pool =
        (* The scan's rows were charged by [scan_pattern]; only the merged
           join outputs are charged here, by the emitting shard. *)
        let scanned = scan_pattern store ~width last.Planner.pattern ~candidates in
        let n = Sparql.Bag.length scanned in
        if n < min_parallel_probe then begin
          let probe = Sparql.Bag.join_sink acc ~probe_cols ~sink in
          Sparql.Bag.iter scanned ~f:probe
        end
        else begin
          let probe = Sparql.Bag.probe_merged acc ~probe_cols in
          Pool.stream pool ~lo:0 ~hi:n ~sink
            ~local:(fun () -> ())
            ~body:(fun () shard i ->
              probe
                ~emit:(fun merged -> Sparql.Bag.emit_charged shard merged)
                (Sparql.Bag.get scanned i))
            ()
        end
      in
      (match pool with
      | Some pool when Pool.num_domains pool > 1 -> parallel_probe pool
      | _ ->
          let probe = Sparql.Bag.join_sink acc ~probe_cols ~sink in
          scan_iter store ~width last.Planner.pattern ~candidates ~f:(fun row ->
              Sparql.Bag.account ();
              probe row))
