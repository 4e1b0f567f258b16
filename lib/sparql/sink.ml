(* Push-based row consumers. A sink is the dual of a bag: instead of a
   producer returning a materialized result, the producer feeds rows into
   the sink one at a time; a stage that needs no further input (e.g. a
   satisfied LIMIT) raises [Stop], which unwinds the producing pipeline.

   Stages are composed outside-in: each combinator wraps an inner sink and
   returns a new one. All wrappers of one pipeline share a single [stages]
   list, so the pipeline's per-stage row accounting can be read off any of
   its sinks (in particular the root the executor keeps).

   Parallel-safe sinks: a stage that supports parallel production exposes
   a [fork] — a factory of per-domain *shard* sinks plus a serial [drain]
   that merges what the shards retained back into the serial pipeline.
   Stateless stages (filter, project, counted) shard by wrapping a shard
   of their inner stage; stateful stages (distinct, top-k, sort, limit)
   shard by accumulating locally and replaying the survivors through their
   own serial [feed] at drain time, which re-enters the serial pipeline
   below them. The scheduler creates shards serially (under its own lock)
   before/while workers run and calls [drain] exactly once after all
   workers have quiesced, so shard state needs no synchronization of its
   own; only explicitly shared early-stop counters are atomic. *)

exception Stop

type stage = {
  name : string;
  mutable rows_in : int;
  mutable rows_out : int;
}

type t = {
  feed : Binding.t -> unit;
  finish : unit -> unit;
  stages : stage list ref;
  fork : fork option;
}

and fork = {
  new_shard : unit -> t;
      (* Called serially (the scheduler holds its shard lock): returns a
         shard sink private to one domain. Shards are fed concurrently,
         one domain each, and never closed. *)
  drain : unit -> unit;
      (* Called serially after every shard user has quiesced: merges the
         shards' retained rows into the serial pipeline and resets the
         fork for a possible next parallel phase. Raises [Stop] iff the
         serial pipeline stopped during the merge. *)
}

(* Every row entering a pipeline crosses this point, making it the
   per-row chaos site for streaming execution (shard sinks included:
   workers emit through [emit] too). *)
let emit t row =
  Governor.failpoint "sink.push";
  t.feed row

(* [close] flushes buffered stages (sort, top-k). Stages swallow [Stop]
   raised by their downstream during the flush, so [close] itself never
   raises it; it must be called exactly once. *)
let close t = t.finish ()

(* Stages are prepended at wrap time and the pipeline is composed
   terminal-first, so the raw list is already in data-flow order
   (producer at the head, terminal last). *)
let stages t = !(t.stages)

let new_stage t name =
  let s = { name; rows_in = 0; rows_out = 0 } in
  t.stages := s :: !(t.stages);
  s

let fork t = t.fork
let with_fork t fork = { t with fork = Some fork }

(* A shard: feed-only, never finished, no stage bookkeeping of its own
   (shard counters are merged into the serial stage at drain). *)
let shard_sink feed =
  { feed; finish = (fun () -> ()); stages = ref []; fork = None }

(* Replay the rows the shards retained through the owning stage's serial
   [feed]. A [Stop] from downstream ends the replay (later rows cannot be
   needed) and is re-raised once, after the walk, so the scheduler
   observes the early termination exactly like a serial producer would. *)
let replay_shards ~feed bufs =
  let stopped = ref false in
  List.iter
    (fun rows ->
      List.iter
        (fun row -> if not !stopped then try feed row with Stop -> stopped := true)
        rows)
    bufs;
  if !stopped then raise Stop

let terminal ~name f =
  let s = { name; rows_in = 0; rows_out = 0 } in
  {
    feed =
      (fun row ->
        s.rows_in <- s.rows_in + 1;
        s.rows_out <- s.rows_out + 1;
        f row);
    finish = (fun () -> ());
    stages = ref [ s ];
    fork = None;
  }

(* The fork of a stateless per-row stage: each shard applies the same
   transform in front of a shard of the inner stage, counting into a
   private stage record; drain folds the private counters into the serial
   stage and drains the inner fork. *)
let stateless_fork ~stage:s ~inner ~shard_feed =
  match inner.fork with
  | None -> None
  | Some inner_fork ->
      let locals = ref [] in
      Some
        {
          new_shard =
            (fun () ->
              let local = { name = s.name; rows_in = 0; rows_out = 0 } in
              locals := local :: !locals;
              let inner_shard = inner_fork.new_shard () in
              shard_sink (shard_feed ~local ~inner_shard));
          drain =
            (fun () ->
              List.iter
                (fun l ->
                  s.rows_in <- s.rows_in + l.rows_in;
                  s.rows_out <- s.rows_out + l.rows_out)
                !locals;
              locals := [];
              inner_fork.drain ());
        }

(* A transparent pass-through that exposes its row count — used by
   producers (e.g. a streamed final BGP) to report cardinalities that are
   no longer observable as a materialized bag length. *)
let counted ~name inner =
  let s = new_stage inner name in
  let sink =
    {
      inner with
      feed =
        (fun row ->
          s.rows_in <- s.rows_in + 1;
          s.rows_out <- s.rows_out + 1;
          inner.feed row);
      fork =
        stateless_fork ~stage:s ~inner ~shard_feed:(fun ~local ~inner_shard row ->
            local.rows_in <- local.rows_in + 1;
            local.rows_out <- local.rows_out + 1;
            inner_shard.feed row);
    }
  in
  (sink, s)

let filter ~name ~f inner =
  let s = new_stage inner name in
  {
    inner with
    feed =
      (fun row ->
        s.rows_in <- s.rows_in + 1;
        if f row then begin
          s.rows_out <- s.rows_out + 1;
          inner.feed row
        end);
    fork =
      stateless_fork ~stage:s ~inner ~shard_feed:(fun ~local ~inner_shard row ->
          local.rows_in <- local.rows_in + 1;
          if f row then begin
            local.rows_out <- local.rows_out + 1;
            inner_shard.feed row
          end);
  }

(* Projection at emit time: each row is rebuilt with only [cols] kept, so
   downstream stages (DISTINCT in particular) see the projected row. *)
let project ~width ~cols inner =
  let s = new_stage inner "project" in
  let projected row =
    let fresh = Binding.create ~width in
    List.iter (fun col -> fresh.(col) <- row.(col)) cols;
    fresh
  in
  {
    inner with
    feed =
      (fun row ->
        s.rows_in <- s.rows_in + 1;
        s.rows_out <- s.rows_out + 1;
        inner.feed (projected row));
    fork =
      stateless_fork ~stage:s ~inner ~shard_feed:(fun ~local ~inner_shard row ->
          local.rows_in <- local.rows_in + 1;
          local.rows_out <- local.rows_out + 1;
          inner_shard.feed (projected row));
  }

(* Streaming DISTINCT: rows pass through on first sight. Rows must not be
   mutated after being emitted (all producers emit fresh arrays).

   Sharded: each domain deduplicates against a private hash set and keeps
   its locally-first-seen rows in arrival order; drain replays them
   through the serial [feed], whose global set removes cross-domain
   duplicates. Same surviving multiset as the serial order, because a row
   survives iff its value was never seen before — independent of which
   shard saw it first. *)
let distinct inner =
  let s = new_stage inner "distinct" in
  let seen = Hashtbl.create 64 in
  let feed row =
    s.rows_in <- s.rows_in + 1;
    if not (Hashtbl.mem seen row) then begin
      Hashtbl.add seen row ();
      s.rows_out <- s.rows_out + 1;
      inner.feed row
    end
  in
  let fork =
    let shards = ref [] in
    Some
      {
        new_shard =
          (fun () ->
            let local_seen = Hashtbl.create 64 in
            let buf = ref [] in
            shards := buf :: !shards;
            shard_sink (fun row ->
                if not (Hashtbl.mem local_seen row) then begin
                  Hashtbl.add local_seen row ();
                  buf := row :: !buf
                end));
        drain =
          (fun () ->
            let bufs = List.rev_map (fun buf -> List.rev !buf) !shards in
            shards := [];
            replay_shards ~feed bufs);
      }
  in
  { inner with feed; fork }

(* OFFSET/LIMIT with early termination: [Stop] is raised as soon as the
   last needed row has been forwarded, unwinding the producers.

   Sharded: every shard buffers the rows it is fed, and a shared atomic
   counts rows reaching the (sharded) stage across all domains; once that
   count covers [offset + limit], the feeding worker raises [Stop], which
   the scheduler turns into a cross-domain stop at the other workers' next
   morsel boundary. The buffers jointly hold at least the needed window
   (plus bounded overshoot), so the drain-time replay through the serial
   [feed] reconciles the per-domain counts against the one true budget and
   forwards exactly the window. *)
let offset_limit ?(offset = 0) ?limit inner =
  let s = new_stage inner "offset/limit" in
  let seen = ref 0 in
  let feed row =
    s.rows_in <- s.rows_in + 1;
    let i = !seen in
    incr seen;
    match limit with
    | Some n ->
        if i >= offset && i < offset + n then begin
          s.rows_out <- s.rows_out + 1;
          inner.feed row
        end;
        if !seen >= offset + n then raise Stop
    | None ->
        if i >= offset then begin
          s.rows_out <- s.rows_out + 1;
          inner.feed row
        end
  in
  let fork =
    let produced = Atomic.make !seen in
    let shards = ref [] in
    Some
      {
        new_shard =
          (fun () ->
            let buf = ref [] in
            shards := buf :: !shards;
            shard_sink (fun row ->
                buf := row :: !buf;
                match limit with
                | Some n ->
                    if Atomic.fetch_and_add produced 1 + 1 >= offset + n then
                      raise Stop
                | None -> ()));
        drain =
          (fun () ->
            let bufs = List.rev_map (fun buf -> List.rev !buf) !shards in
            shards := [];
            replay_shards ~feed bufs);
      }
  in
  { inner with feed; fork }

(* A bounded worst-first heap of (row, arrival seq) under the
   lexicographic (compare, seq) order — a total order, so the k smallest
   items are exactly the first k rows of a stable full sort. Shared by the
   serial top-k stage and its per-domain shards. *)
module Bounded_heap = struct
  type item = Binding.t * int

  type h = {
    arr : item array;
    mutable len : int;
    mutable seq : int;
    lt : item -> item -> bool;
    k : int;
  }

  let create ~lt ~k = { arr = Array.make (max k 1) ([||], 0); len = 0; seq = 0; lt; k }

  let swap h i j =
    let tmp = h.arr.(i) in
    h.arr.(i) <- h.arr.(j);
    h.arr.(j) <- tmp

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if h.lt h.arr.(parent) h.arr.(i) then begin
        swap h parent i;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let largest = ref i in
    if l < h.len && h.lt h.arr.(!largest) h.arr.(l) then largest := l;
    if r < h.len && h.lt h.arr.(!largest) h.arr.(r) then largest := r;
    if !largest <> i then begin
      swap h i !largest;
      sift_down h !largest
    end

  let insert h row =
    let item = (row, h.seq) in
    h.seq <- h.seq + 1;
    if h.len < h.k then begin
      h.arr.(h.len) <- item;
      h.len <- h.len + 1;
      sift_up h (h.len - 1)
    end
    else if h.lt item h.arr.(0) then begin
      h.arr.(0) <- item;
      sift_down h 0
    end

  (* Retained items, sorted ascending under the heap's total order. *)
  let sorted_items h =
    let items = Array.sub h.arr 0 h.len in
    Array.sort (fun a b -> if h.lt a b then -1 else if h.lt b a then 1 else 0) items;
    items

  let rows h = Array.to_list (Array.map fst (sorted_items h))
end

(* Streaming aggregation: [push] folds each arriving row into the
   caller's accumulators (one per group); [flush] computes the aggregate
   rows and emits them downstream at close (an ungrouped aggregate
   produces output even over zero input rows). No fork: order-sensitive
   accumulators (float sums, SAMPLE, group order) fold in arrival order,
   so the scheduler drives this pipeline serially. *)
let aggregate ~name ~push ~flush inner =
  let s = new_stage inner name in
  let feed row =
    s.rows_in <- s.rows_in + 1;
    push row
  in
  let finish () =
    (try
       flush (fun row ->
           s.rows_out <- s.rows_out + 1;
           inner.feed row)
     with Stop -> ());
    inner.finish ()
  in
  { feed; finish; stages = inner.stages; fork = None }

(* Bounded top-k for ORDER BY + LIMIT: keeps the k smallest rows under
   (compare, arrival seq); flushing sorted on [close] reproduces exactly
   the first k rows of a stable full sort. Not valid when a DISTINCT sits
   between the sort and the slice (dropping duplicates may promote rows
   beyond the k-th) — the executor falls back to [sort_all] there.

   Sharded: each domain keeps its own k-bounded heap (memory stays
   O(domains * k), not O(rows)); drain replays every locally retained row
   through the serial [feed], whose global heap selects the final k. A row
   outside its shard's local top-k cannot be in the global top-k, so
   dropping it early is lossless; arrival seqs are reassigned at drain,
   which preserves the result multiset because rows tied under [compare]
   differ only in seq — and seq breaks ties deterministically but any
   consistent assignment selects the same rows when ties are identical
   rows (the only case a full-key ORDER BY produces). *)
let top_k ~compare ~k inner =
  let s = new_stage inner "top-k" in
  let lt (r1, s1) (r2, s2) =
    let c = compare r1 r2 in
    if c <> 0 then c < 0 else s1 < s2
  in
  let heap = Bounded_heap.create ~lt ~k in
  let feed row =
    s.rows_in <- s.rows_in + 1;
    if k = 0 then raise Stop;
    Bounded_heap.insert heap row
  in
  let finish () =
    (try
       Array.iter
         (fun (row, _) ->
           s.rows_out <- s.rows_out + 1;
           inner.feed row)
         (Bounded_heap.sorted_items heap)
     with Stop -> ());
    inner.finish ()
  in
  let fork =
    let shards = ref [] in
    Some
      {
        new_shard =
          (fun () ->
            let local = Bounded_heap.create ~lt ~k in
            shards := local :: !shards;
            shard_sink (fun row ->
                if k = 0 then raise Stop;
                Bounded_heap.insert local row));
        drain =
          (fun () ->
            let bufs = List.rev_map Bounded_heap.rows !shards in
            shards := [];
            replay_shards ~feed bufs);
      }
  in
  { feed; finish; stages = inner.stages; fork }

(* Buffering ORDER BY (no LIMIT, or DISTINCT in between): rows accumulate
   until [close], then flow downstream stably sorted. Sharded by plain
   per-domain buffers replayed into the serial buffer at drain — the sort
   itself happens once, at close. *)
let sort_all ~compare inner =
  let s = new_stage inner "sort" in
  let buf = ref [] in
  let feed row =
    s.rows_in <- s.rows_in + 1;
    buf := row :: !buf
  in
  let finish () =
    let rows = Array.of_list (List.rev !buf) in
    Array.stable_sort compare rows;
    (try
       Array.iter
         (fun row ->
           s.rows_out <- s.rows_out + 1;
           inner.feed row)
         rows
     with Stop -> ());
    inner.finish ()
  in
  let fork =
    let shards = ref [] in
    Some
      {
        new_shard =
          (fun () ->
            let local = ref [] in
            shards := local :: !shards;
            shard_sink (fun row -> local := row :: !local));
        drain =
          (fun () ->
            let bufs = List.rev_map (fun local -> List.rev !local) !shards in
            shards := [];
            replay_shards ~feed bufs);
      }
  in
  { feed; finish; stages = inner.stages; fork }
