type t = {
  width : int;
  mutable rows : Binding.t array;
  mutable len : int;
  (* Pushes since the last cancellation/deadline check. Per-bag (not
     global) so the check still triggers deterministically when several
     domains push into their own worker-local bags concurrently: a global
     counter's [mod stride = 0] tick can be skipped under interleaving. *)
  mutable unchecked : int;
  (* The governor ticket ambient at creation time, cached so the per-push
     hot path does not pay a domain-local lookup. Every bag of one
     execution is created under that execution's ticket (worker-local bags
     are created inside the pool's re-installed scope), so budget
     accounting is per query, not per process. *)
  gov : Governor.t;
}

(* [capacity] preallocates the row array — morsel workers size their
   local bags to the expected morsel output so the first few pushes do
   not pay doubling copies. *)
let create_sized ~capacity ~width =
  {
    width;
    rows = (if capacity <= 0 then [||] else Array.make capacity [||]);
    len = 0;
    unchecked = 0;
    gov = Governor.current ();
  }

let create ~width = create_sized ~capacity:0 ~width

(* Append without budget accounting — for rows whose production was
   already charged (worker-part concatenation, the terminal sink of a
   streaming pipeline, [sort]'s reordering). *)
let append bag row =
  if bag.len = Array.length bag.rows then begin
    let capacity = max 8 (2 * bag.len) in
    let fresh = Array.make capacity [||] in
    Array.blit bag.rows 0 fresh 0 bag.len;
    bag.rows <- fresh
  end;
  bag.rows.(bag.len) <- row;
  bag.len <- bag.len + 1

let push bag row =
  Governor.charge bag.gov;
  bag.unchecked <- bag.unchecked + 1;
  if bag.unchecked >= Governor.stride then begin
    bag.unchecked <- 0;
    Governor.tick bag.gov
  end;
  append bag row

(* Charge the production of one streamed row: the same budget/deadline
   accounting as [push], without materializing anywhere. Streaming
   producers call it once per row emitted into a sink pipeline, so the
   budget (the paper's OOM analogue), the timeout and the produced-row
   counter keep the same meaning whether an operator materializes or
   streams. Only ever called from the serial sink-driving domain, so the
   ticket's serial stride counter applies. *)
let account () = Governor.charge_stream (Governor.current ())

let unit ~width =
  let bag = create ~width in
  push bag (Binding.create ~width);
  bag

let of_rows ~width rows =
  let bag = create ~width in
  List.iter (push bag) rows;
  bag

let width bag = bag.width
let length bag = bag.len
let is_empty bag = bag.len = 0

let get bag i =
  if i < 0 || i >= bag.len then invalid_arg "Bag.get: index out of range";
  bag.rows.(i)

let iter bag ~f =
  for i = 0 to bag.len - 1 do
    f bag.rows.(i)
  done

let fold bag ~init ~f =
  let acc = ref init in
  iter bag ~f:(fun row -> acc := f !acc row);
  !acc

(* Concatenation of worker-local bags after a parallel step. The rows were
   budget-accounted when first pushed into their part, so this is a plain
   blit, not a re-push. *)
let concat ~width parts =
  let total = List.fold_left (fun acc part -> acc + part.len) 0 parts in
  let result =
    {
      width;
      rows = Array.make total [||];
      len = 0;
      unchecked = 0;
      gov = Governor.current ();
    }
  in
  List.iter
    (fun part ->
      Array.blit part.rows 0 result.rows result.len part.len;
      result.len <- result.len + part.len)
    parts;
  result

(* Parallelism is injected by the caller: the engine layer owns the
   domain pool, and this library cannot depend on it. *)
type runner = n:int -> sink:Sink.t -> body:(Sink.t -> int -> unit) -> unit

(* Probe sides smaller than this are not worth the fan-out. *)
let parallel_threshold = 512

let bound_flags bag =
  let seen = Array.make bag.width false in
  iter bag ~f:(fun row ->
      for col = 0 to bag.width - 1 do
        if Binding.is_bound row col then seen.(col) <- true
      done);
  seen

let bound_columns bag =
  let seen = bound_flags bag in
  let acc = ref [] in
  for col = bag.width - 1 downto 0 do
    if seen.(col) then acc := col :: !acc
  done;
  !acc

let universal_columns bag =
  if bag.len = 0 then []
  else begin
    let all = Array.make bag.width true in
    iter bag ~f:(fun row ->
        for col = 0 to bag.width - 1 do
          if not (Binding.is_bound row col) then all.(col) <- false
        done);
    let acc = ref [] in
    for col = bag.width - 1 downto 0 do
      if all.(col) then acc := col :: !acc
    done;
    !acc
  end

let distinct_values bag ~col =
  let values = Hashtbl.create 64 in
  iter bag ~f:(fun row ->
      if Binding.is_bound row col then Hashtbl.replace values row.(col) ());
  values

(* Columns bound somewhere in both bags: two O(n·width) marking passes and
   one O(width) intersection (the former List.mem scan was O(width²)). *)
let shared_columns b1 b2 =
  let s1 = bound_flags b1 and s2 = bound_flags b2 in
  let acc = ref [] in
  for col = b1.width - 1 downto 0 do
    if col < b2.width && s1.(col) && s2.(col) then acc := col :: !acc
  done;
  !acc

(* A hash partition of [bag] on [cols]: rows with all [cols] bound go into
   buckets; rows missing some key column go into [wild] and must be checked
   by scan. Read-only once built, so several domains may probe it
   concurrently. *)
type partition = {
  buckets : (int, Binding.t list ref) Hashtbl.t;
  mutable wild : Binding.t list;
  cols : int list;
}

let partition bag cols =
  (* The chokepoint of every hash-probed binary operator (join, minus,
     semijoin, left outer join, join_sink): one failpoint covers the whole
     probe family. *)
  Governor.failpoint "probe";
  let part = { buckets = Hashtbl.create (max 16 bag.len); wild = []; cols } in
  iter bag ~f:(fun row ->
      if Binding.all_bound row cols then begin
        let key = Binding.hash_on row cols in
        match Hashtbl.find_opt part.buckets key with
        | Some bucket -> bucket := row :: !bucket
        | None -> Hashtbl.add part.buckets key (ref [ row ])
      end
      else part.wild <- row :: part.wild);
  part

(* Apply [f] to every row of the partition compatible with [row], without
   materializing the intermediate match list. *)
let iter_compatible part row ~f =
  (if Binding.all_bound row part.cols then (
     match Hashtbl.find_opt part.buckets (Binding.hash_on row part.cols) with
     | Some bucket ->
         List.iter
           (fun other ->
             if
               Binding.equal_on row other part.cols
               && Binding.compatible row other
             then f other)
           !bucket
     | None -> ())
   else
     (* A probe row missing key columns can match any bucket: scan all. *)
     Hashtbl.iter
       (fun _ bucket ->
         List.iter
           (fun other -> if Binding.compatible row other then f other)
           !bucket)
       part.buckets);
  List.iter (fun other -> if Binding.compatible row other then f other) part.wild

exception Found

(* Whether some row of the partition is compatible with [row] and satisfies
   [pred]. *)
let exists_compatible part row ~pred =
  try
    iter_compatible part row ~f:(fun other -> if pred other then raise Found);
    false
  with Found -> true

(* {2 Sink-driven operator variants}

   Each [*_into] operator streams its output rows into a sink instead of
   materializing a result bag. Accounting rule: a row is charged exactly
   once, at the operator boundary where it is produced — [account] on the
   serial path, [emit_charged] from a morsel worker; shard-drain replays
   do not re-charge. [Sink.Stop] raised by the sink aborts the serial
   probe loop, and under a caller's runner a [Stop] in any shard stops
   the other domains at their next morsel boundary — the
   early-termination payoff. *)

let emit_accounted sink row =
  account ();
  Sink.emit sink row

(* The cross-domain variant: charge through the ticket's atomic stride
   counter instead of the serial one. Morsel workers emitting into shard
   sinks call this once per produced row. *)
let emit_charged sink row =
  Governor.charge_parallel (Governor.current ());
  Sink.emit sink row

(* The materializing terminal: rows were charged at production, so the
   final append is a plain blit like [concat]. Sharded into per-domain
   bags blitted into [bag] (in shard-creation order) at drain. *)
let sink bag =
  let base = Sink.terminal ~name:"materialize" (fun row -> append bag row) in
  let shards = ref [] in
  Sink.with_fork base
    {
      Sink.new_shard =
        (fun () ->
          let part = create ~width:bag.width in
          shards := part :: !shards;
          Sink.terminal ~name:"materialize-shard" (fun row -> append part row));
      drain =
        (fun () ->
          let parts = List.rev !shards in
          shards := [];
          List.iter (fun part -> iter part ~f:(append bag)) parts);
    }

(* Re-emit a materialized bag into a sink across an operator boundary.
   Charged, mirroring the cost-proxy re-push of the materializing [union]
   (the rows cross into a new operator's output). *)
let replay bag ~sink = iter bag ~f:(fun row -> emit_accounted sink row)

(* Pool composition for sink-driving probe loops: with a runner from the
   caller and a large probe side, the probe rows are
   morselized across domains and every worker emits straight into its own
   shard of the sink (charged through the ticket's atomic stride). A
   [Sink.Stop] raised inside a worker becomes a cross-domain stop at the
   other workers' next morsel boundary, and the runner re-raises it here
   after the shards have drained — so a downstream LIMIT terminates remote
   workers early instead of letting them materialize bags that a serial
   replay would then mostly throw away. *)
let stream_probe ?pool probe ~emit ~sink =
  match pool with
  | Some (run : runner) when probe.len >= parallel_threshold ->
      run ~n:probe.len ~sink ~body:(fun shard i ->
          emit (emit_charged shard) probe.rows.(i))
  | _ -> iter probe ~f:(fun row -> emit (emit_accounted sink) row)

let join b1 b2 =
  if b1.width <> b2.width then invalid_arg "Bag.join: width mismatch";
  (* Build on the smaller side; probing preserves Ω1-major order only up to
     bag equality, which is all the semantics requires. *)
  let build, probe = if b1.len <= b2.len then (b1, b2) else (b2, b1) in
  let part = partition build (shared_columns b1 b2) in
  let result = create ~width:b1.width in
  iter probe ~f:(fun row ->
      iter_compatible part row ~f:(fun other ->
          push result (Binding.merge row other)));
  result

let join_into ?pool b1 b2 ~sink =
  if b1.width <> b2.width then invalid_arg "Bag.join_into: width mismatch";
  let build, probe = if b1.len <= b2.len then (b1, b2) else (b2, b1) in
  let part = partition build (shared_columns b1 b2) in
  stream_probe ?pool probe ~sink ~emit:(fun push_row row ->
      iter_compatible part row ~f:(fun other ->
          push_row (Binding.merge row other)))

(* A row-at-a-time join for producers that stream their probe side (the
   hash engine's final pattern scan): partition the build side once, then
   probe each streamed row as it arrives. [probe_cols] are columns the
   probe rows may bind; key columns are their intersection with the build
   side's domain ([iter_compatible] stays correct even for probe rows
   missing key columns — they scan all buckets). [probe_merged] exposes
   the emit-parameterized form so the morsel scheduler can probe the same
   read-only partition from several domains, each into its own shard. *)
let probe_merged build ~probe_cols =
  let build_cols = bound_columns build in
  let cols = List.filter (fun col -> List.mem col build_cols) probe_cols in
  let part = partition build cols in
  fun ~emit row ->
    iter_compatible part row ~f:(fun other -> emit (Binding.merge row other))

let join_sink build ~probe_cols ~sink =
  let probe = probe_merged build ~probe_cols in
  fun row -> probe ~emit:(emit_accounted sink) row

let union b1 b2 =
  if b1.width <> b2.width then invalid_arg "Bag.union: width mismatch";
  let result = create ~width:b1.width in
  (* The re-push of both inputs is intentional: union's output rows cross
     an operator boundary, so each is charged as a cost proxy (matching
     the streamed [replay] of a branch into a sink). *)
  iter b1 ~f:(push result);
  iter b2 ~f:(push result);
  result

let minus b1 b2 =
  if b1.width <> b2.width then invalid_arg "Bag.minus: width mismatch";
  let result = create ~width:b1.width in
  let part = partition b2 (shared_columns b1 b2) in
  iter b1 ~f:(fun row ->
      if not (exists_compatible part row ~pred:(fun _ -> true)) then
        push result row);
  result

(* SPARQL 1.1 MINUS: μ1 is removed only by a compatible μ2 with at least
   one *shared bound* variable (disjoint-domain mappings do not exclude —
   the subtlety distinguishing MINUS from the Section 3 ∖ operator). *)
let overlapping r1 r2 =
  let n = Array.length r1 in
  let rec go i =
    i < n
    && ((r1.(i) <> Binding.unbound && r2.(i) <> Binding.unbound) || go (i + 1))
  in
  go 0

let sparql_minus b1 b2 =
  if b1.width <> b2.width then invalid_arg "Bag.sparql_minus: width mismatch";
  let result = create ~width:b1.width in
  let part = partition b2 (shared_columns b1 b2) in
  iter b1 ~f:(fun row ->
      if not (exists_compatible part row ~pred:(overlapping row)) then
        push result row);
  result

let sparql_minus_into b1 b2 ~sink =
  if b1.width <> b2.width then
    invalid_arg "Bag.sparql_minus_into: width mismatch";
  let part = partition b2 (shared_columns b1 b2) in
  iter b1 ~f:(fun row ->
      if not (exists_compatible part row ~pred:(overlapping row)) then
        emit_accounted sink row)

(* Row comparison by (column, descending) keys; unbound sorts before any
   bound value (as in SPARQL's ORDER BY). Shared by [sort] and the
   streaming sort/top-k stages the executor builds. *)
let row_compare ~keys ~compare_ids r1 r2 =
  let rec go = function
    | [] -> 0
    | (col, descending) :: rest ->
        let v1 = r1.(col) and v2 = r2.(col) in
        let c =
          match (v1 = Binding.unbound, v2 = Binding.unbound) with
          | true, true -> 0
          | true, false -> -1
          | false, true -> 1
          | false, false -> compare_ids v1 v2
        in
        let c = if descending then -c else c in
        if c <> 0 then c else go rest
  in
  go keys

(* Stable sort. A reordering of already-accounted rows, so the result is
   rebuilt by blit like [concat] — re-pushing here would charge the budget
   twice for the same materialized rows. *)
let sort bag ~keys ~compare_ids =
  let rows = Array.init bag.len (fun i -> bag.rows.(i)) in
  Array.stable_sort (row_compare ~keys ~compare_ids) rows;
  { width = bag.width; rows; len = bag.len; unchecked = 0; gov = bag.gov }

let semijoin b1 b2 =
  if b1.width <> b2.width then invalid_arg "Bag.semijoin: width mismatch";
  let result = create ~width:b1.width in
  let part = partition b2 (shared_columns b1 b2) in
  iter b1 ~f:(fun row ->
      if exists_compatible part row ~pred:(fun _ -> true) then push result row);
  result

let left_outer_join b1 b2 =
  if b1.width <> b2.width then invalid_arg "Bag.left_outer_join: width mismatch";
  let result = create ~width:b1.width in
  let part = partition b2 (shared_columns b1 b2) in
  iter b1 ~f:(fun row ->
      let matched = ref false in
      iter_compatible part row ~f:(fun other ->
          matched := true;
          push result (Binding.merge row other));
      if not !matched then push result row);
  result

let left_outer_join_into ?pool b1 b2 ~sink =
  if b1.width <> b2.width then
    invalid_arg "Bag.left_outer_join_into: width mismatch";
  let part = partition b2 (shared_columns b1 b2) in
  stream_probe ?pool b1 ~sink ~emit:(fun push_row row ->
      let matched = ref false in
      iter_compatible part row ~f:(fun other ->
          matched := true;
          push_row (Binding.merge row other));
      if not !matched then push_row row)

(* The pushes in [filter], [project] and [dedup] below are intentional
   cost-proxy charges: each selected/rebuilt row is a new operator output
   (matching the [account] a streaming producer performs per row). *)

let filter bag ~f =
  let result = create ~width:bag.width in
  iter bag ~f:(fun row -> if f row then push result row);
  result

let project bag ~cols =
  let result = create ~width:bag.width in
  iter bag ~f:(fun row ->
      let fresh = Binding.create ~width:bag.width in
      List.iter (fun col -> fresh.(col) <- row.(col)) cols;
      push result fresh);
  result

let dedup bag =
  let seen = Hashtbl.create (max 16 bag.len) in
  let result = create ~width:bag.width in
  iter bag ~f:(fun row ->
      if not (Hashtbl.mem seen row) then begin
        Hashtbl.add seen row ();
        push result row
      end);
  result

(* Multiset equality via counting. *)
let equal_as_bags b1 b2 =
  b1.width = b2.width && b1.len = b2.len
  &&
  let counts = Hashtbl.create (max 16 b1.len) in
  iter b1 ~f:(fun row ->
      let c = Option.value (Hashtbl.find_opt counts row) ~default:0 in
      Hashtbl.replace counts row (c + 1));
  try
    iter b2 ~f:(fun row ->
        match Hashtbl.find_opt counts row with
        | Some c when c > 0 -> Hashtbl.replace counts row (c - 1)
        | _ -> raise Exit);
    true
  with Exit -> false

let pp table fmt bag =
  Format.fprintf fmt "@[<v>";
  iter bag ~f:(fun row ->
      Format.fprintf fmt "{";
      let first = ref true in
      Array.iteri
        (fun col v ->
          if v <> Binding.unbound then begin
            if not !first then Format.fprintf fmt ", ";
            first := false;
            Format.fprintf fmt "?%s=%d" (Vartable.name table col) v
          end)
        row;
      Format.fprintf fmt "}@ ");
  Format.fprintf fmt "@]"
