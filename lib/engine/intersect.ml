(* The multiway sorted-intersection kernel behind the vertex-at-a-time WCO
   extension step.

   Operands are sorted, duplicate-free ascending sequences: either a
   zero-copy [Index.view] (the third key column of a (key1,key2) index
   prefix) or a plain sorted int array (e.g. a sparse candidate set). The
   kernel loads the smallest operand into a caller-provided scratch buffer,
   optionally applies membership filters (dense candidate bitsets), then
   folds the remaining operands in ascending-size order with an adaptive
   two-way pass per operand: when the next operand is more than
   [gallop_ratio] times larger than the current result, each result value
   galloped-searches the operand (exponential probe from the last hit, then
   binary search — O(n log(m/n))); otherwise a plain linear merge. *)

type src = View of Rdf_store.Index.view | Values of int array

let src_length = function
  | View v -> Rdf_store.Index.view_length v
  | Values a -> Array.length a

let src_get s i =
  match s with
  | View v -> Rdf_store.Index.view_get v i
  | Values a -> Array.unsafe_get a i

(* Gallop vs. merge threshold: gallop only pays off when the size ratio
   exceeds ~4x (Aberger et al.); below that the linear merge's perfect
   locality wins. *)
let gallop_ratio = 4

type counters = {
  intersections : int;  (** multiway intersections performed *)
  gallop_passes : int;  (** two-way passes that galloped *)
  merge_passes : int;  (** two-way passes that linear-merged *)
  domain_values : int;  (** total values across all emitted domains *)
  operands : int;  (** total operands consumed (views + sorted sets) *)
}

let of_counts c =
  let get = Sparql.Governor.get c in
  {
    intersections = get Intersections;
    gallop_passes = get Gallop_passes;
    merge_passes = get Merge_passes;
    domain_values = get Domain_values;
    operands = get Operands;
  }

(* First index [j >= lo] with [src_get src j >= v]. Index views answer
   this natively — a search over the uncompressed block samples that
   decodes at most one block ({!Rdf_store.Index.view_lower_bound}), so
   galloping never pays per-element decompression. Plain arrays keep the
   exponential probe from [lo] plus binary search within the bracketed
   window. *)
let gallop_search src m v lo =
  match src with
  | View view -> Rdf_store.Index.view_lower_bound view ~from:lo v
  | Values a ->
      if lo >= m || Array.unsafe_get a lo >= v then lo
      else begin
        (* invariant: a.(lo+step/2) < v *)
        let step = ref 1 in
        while lo + !step < m && Array.unsafe_get a (lo + !step) < v do
          step := !step lsl 1
        done;
        let l = ref (lo + (!step lsr 1) + 1)
        and h = ref (min m (lo + !step)) in
        while !l < !h do
          let mid = (!l + !h) / 2 in
          if Array.unsafe_get a mid < v then l := mid + 1 else h := mid
        done;
        !l
      end

(* Intersect the sorted prefix [buf.(0..n-1)] with [src], writing the
   result back into the front of [buf]; returns the new count. Writes trail
   reads, so in-place is safe. *)
let intersect_into ~gov buf n src =
  let m = src_length src in
  if n = 0 || m = 0 then 0
  else if m > gallop_ratio * n then begin
    Sparql.Governor.count gov Gallop_passes 1;
    let k = ref 0 and pos = ref 0 in
    for i = 0 to n - 1 do
      let v = Array.unsafe_get buf i in
      let j = gallop_search src m v !pos in
      pos := j;
      if j < m && src_get src j = v then begin
        Array.unsafe_set buf !k v;
        incr k
      end
    done;
    !k
  end
  else begin
    Sparql.Governor.count gov Merge_passes 1;
    let k = ref 0 and i = ref 0 and j = ref 0 in
    while !i < n && !j < m do
      let a = Array.unsafe_get buf !i and b = src_get src !j in
      if a < b then incr i
      else if a > b then incr j
      else begin
        Array.unsafe_set buf !k a;
        incr k;
        incr i;
        incr j
      end
    done;
    !k
  end

let ensure_capacity buf n =
  if Array.length !buf < n then
    buf := Array.make (max n (2 * Array.length !buf)) 0

(* [multiway ~gov ~buf srcs ~filters] intersects all of [srcs], keeping only
   values accepted by every predicate in [filters] (dense candidate
   bitsets; applied to the smallest operand before any merging so they
   shrink the work for every later pass). The result lands in the front of
   [!buf]; returns its length. [srcs] must be non-empty. Kernel activity
   is counted on [gov]. *)
let multiway ~gov ~buf srcs ~filters =
  Sparql.Governor.count gov Intersections 1;
  let srcs =
    List.sort (fun a b -> Int.compare (src_length a) (src_length b)) srcs
  in
  match srcs with
  | [] -> invalid_arg "Intersect.multiway: no operands"
  | smallest :: rest ->
      let n0 = src_length smallest in
      ensure_capacity buf n0;
      let b = !buf in
      let n = ref 0 in
      (match filters with
      | [] ->
          for i = 0 to n0 - 1 do
            Array.unsafe_set b i (src_get smallest i)
          done;
          n := n0
      | fs ->
          for i = 0 to n0 - 1 do
            let v = src_get smallest i in
            if List.for_all (fun f -> f v) fs then begin
              Array.unsafe_set b !n v;
              incr n
            end
          done);
      List.iter (fun src -> n := intersect_into ~gov b !n src) rest;
      Sparql.Governor.count gov Operands
        (List.length srcs + List.length filters);
      Sparql.Governor.count gov Domain_values !n;
      !n

(* Convenience wrapper over plain arrays, for tests and micro-benchmarks;
   counts on the ambient ticket. *)
let arrays operands =
  let buf = ref [||] in
  let n =
    multiway ~gov:(Sparql.Governor.current ()) ~buf
      (List.map (fun a -> Values a) operands)
      ~filters:[]
  in
  Array.sub !buf 0 n
