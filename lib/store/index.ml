type order = Spo | Sop | Pso | Pos | Osp | Ops

type table = { s : int array; p : int array; o : int array }

(* A permutation index stored as three levels of off-heap columns
   instead of a heap permutation over a shared table:

     l1_keys : distinct first-key values            (n1, strictly increasing)
     l1_grp  : first l2 group of each l1 group      (n1+1, strictly increasing)
     l2_keys : second-key value of each (k1,k2) group  (n2)
     l2_pos  : first row of each l2 group           (n2+1, strictly increasing)
     k3      : third-key value of every row         (n)

   Row positions are global, exactly as in the old permutation layout,
   so [range] keeps its (lo, hi) contract. The grouping columns that
   back every lookup (l1_keys, l1_grp, l2_pos) stay Raw for O(1) loads;
   l2_keys and k3 — the bulk of the data — compress per the build mode.
   Within one l2 group k3 is strictly increasing (the store
   deduplicates), which is what [column_view] exposes to the
   intersection kernel. *)
type t = {
  order : order;
  n : int;
  l1_keys : Column.t;
  l1_grp : Column.t;
  l2_keys : Column.t;
  l2_pos : Column.t;
  k3 : Column.t;
}

let order t = t.order

let length t = t.n

let mem_bytes t =
  Column.mem_bytes t.l1_keys + Column.mem_bytes t.l1_grp
  + Column.mem_bytes t.l2_keys + Column.mem_bytes t.l2_pos
  + Column.mem_bytes t.k3

(* Key components of row [i] under the given order. *)
let key1 order (tbl : table) i =
  match order with
  | Spo | Sop -> tbl.s.(i)
  | Pso | Pos -> tbl.p.(i)
  | Osp | Ops -> tbl.o.(i)

let key2 order (tbl : table) i =
  match order with
  | Spo | Ops -> tbl.p.(i)
  | Pso | Osp -> tbl.s.(i)
  | Sop | Pos -> tbl.o.(i)

(* The third component is whichever of s/p/o is not key1/key2. *)
let key3 order (tbl : table) i =
  match order with
  | Spo -> tbl.o.(i)
  | Sop -> tbl.p.(i)
  | Pso -> tbl.o.(i)
  | Pos -> tbl.s.(i)
  | Osp -> tbl.p.(i)
  | Ops -> tbl.s.(i)

let keys_of_spo order s p o =
  match order with
  | Spo -> (s, p, o)
  | Sop -> (s, o, p)
  | Pso -> (p, s, o)
  | Pos -> (p, o, s)
  | Osp -> (o, s, p)
  | Ops -> (o, p, s)

(* Inverse: reassemble (s, p, o) from the key components of [order]. *)
let spo_of_keys order k1 k2 k3 =
  match order with
  | Spo -> (k1, k2, k3)
  | Sop -> (k1, k3, k2)
  | Pso -> (k2, k1, k3)
  | Pos -> (k3, k1, k2)
  | Osp -> (k2, k3, k1)
  | Ops -> (k3, k2, k1)

(* Single-pass constructor over rows already sorted lexicographically by
   (key1, key2, key3). The grouping structure falls out of boundary
   detection, so per-group cardinalities (the statistics inputs) are
   free at encode time. *)
let of_sorted order ~mode ~n ~key1:k1f ~key2:k2f ~key3:k3f =
  let l1k = Column.Builder.create Column.Raw in
  let l1g = Column.Builder.create Column.Raw in
  let l2k = Column.Builder.create mode in
  let l2p = Column.Builder.create Column.Raw in
  let k3b = Column.Builder.create mode in
  let n2 = ref 0 in
  let prev1 = ref min_int and prev2 = ref min_int in
  for i = 0 to n - 1 do
    let a = k1f i and b = k2f i in
    if a <> !prev1 then begin
      Column.Builder.add l1k a;
      Column.Builder.add l1g !n2;
      prev1 := a;
      prev2 := min_int
    end;
    if b <> !prev2 then begin
      Column.Builder.add l2k b;
      Column.Builder.add l2p i;
      incr n2;
      prev2 := b
    end;
    Column.Builder.add k3b (k3f i)
  done;
  Column.Builder.add l1g !n2;
  Column.Builder.add l2p n;
  {
    order;
    n;
    l1_keys = Column.Builder.finish l1k;
    l1_grp = Column.Builder.finish l1g;
    l2_keys = Column.Builder.finish l2k;
    l2_pos = Column.Builder.finish l2p;
    k3 = Column.Builder.finish k3b;
  }

(* The one sort behind every index build, chosen by cost. An LSD radix
   sort runs three stable counting passes, each O(n) over the rows plus
   O(max_id) over a counts array spanning the id range; a comparison sort
   is O(n log n) and independent of the id range. Bulk loads and
   checkpoints (n comparable to the dictionary) take radix; a delta — a
   few rows whose ids reach across the whole dictionary — takes the
   comparison sort, so publishing a commit costs nothing proportional to
   the dictionary. *)
let radix_pays ~n ~max_id =
  let rec log2 k acc = if k <= 1 then acc else log2 (k lsr 1) (acc + 1) in
  3 * ((2 * n) + max_id) <= 2 * n * log2 n 0

let counting_pass ~n ~max_id ~key src dst =
  let counts = Array.make (max_id + 2) 0 in
  for i = 0 to n - 1 do
    let k = key (Array.unsafe_get src i) in
    Array.unsafe_set counts (k + 1) (Array.unsafe_get counts (k + 1) + 1)
  done;
  for v = 1 to max_id + 1 do
    counts.(v) <- counts.(v) + counts.(v - 1)
  done;
  for i = 0 to n - 1 do
    let r = Array.unsafe_get src i in
    let k = key r in
    Array.unsafe_set dst (Array.unsafe_get counts k) r;
    Array.unsafe_set counts k (Array.unsafe_get counts k + 1)
  done

let radix_sort_perm ~n ~max_id ~key1 ~key2 ~key3 =
  let a = Array.init n Fun.id in
  let b = Array.make n 0 in
  counting_pass ~n ~max_id ~key:key3 a b;
  counting_pass ~n ~max_id ~key:key2 b a;
  counting_pass ~n ~max_id ~key:key1 a b;
  b

(* When every id fits in 21 bits (2M distinct terms) the three key
   components pack into one 63-bit int whose natural order is the
   lexicographic key order; larger ids compare three key arrays. *)
let packable_bits = 21

let comparison_sort_perm ~n ~max_id ~key1:k1f ~key2:k2f ~key3:k3f =
  let perm = Array.init n Fun.id in
  if max_id < 1 lsl packable_bits then begin
    let packed =
      Array.init n (fun i ->
          (k1f i lsl (2 * packable_bits)) lor (k2f i lsl packable_bits)
          lor k3f i)
    in
    Array.sort (fun i j -> Int.compare packed.(i) packed.(j)) perm
  end
  else begin
    let k1 = Array.init n k1f and k2 = Array.init n k2f
    and k3 = Array.init n k3f in
    Array.sort
      (fun i j ->
        let c = Int.compare k1.(i) k1.(j) in
        if c <> 0 then c
        else
          let c = Int.compare k2.(i) k2.(j) in
          if c <> 0 then c else Int.compare k3.(i) k3.(j))
      perm
  end;
  perm

let sort_perm ~n ~max_id ~key1 ~key2 ~key3 =
  if radix_pays ~n ~max_id then radix_sort_perm ~n ~max_id ~key1 ~key2 ~key3
  else comparison_sort_perm ~n ~max_id ~key1 ~key2 ~key3

let build ?(mode = Column.Delta) order table =
  let n = Array.length table.s in
  let max_id = ref 0 in
  for i = 0 to n - 1 do
    if table.s.(i) > !max_id then max_id := table.s.(i);
    if table.p.(i) > !max_id then max_id := table.p.(i);
    if table.o.(i) > !max_id then max_id := table.o.(i)
  done;
  let perm =
    sort_perm ~n ~max_id:!max_id ~key1:(key1 order table)
      ~key2:(key2 order table) ~key3:(key3 order table)
  in
  of_sorted order ~mode ~n
    ~key1:(fun i -> key1 order table perm.(i))
    ~key2:(fun i -> key2 order table perm.(i))
    ~key3:(fun i -> key3 order table perm.(i))

(* --- lookups ----------------------------------------------------------- *)

let n1 t = Column.length t.l1_keys
let n2 t = Column.length t.l2_keys

(* First global row of l1 group [g] (or [t.n] past the last group). *)
let pos_of_l1 t g = Column.get t.l2_pos (Column.get t.l1_grp g)

(* Group containing (or starting at) a position, by binary search on the
   strictly increasing Raw offset columns. *)
let l2_of_pos t pos =
  Column.lower_bound t.l2_pos ~lo:0 ~hi:(n2 t + 1) (pos + 1) - 1

let l1_of_l2 t j =
  Column.lower_bound t.l1_grp ~lo:0 ~hi:(n1 t + 1) (j + 1) - 1

(* Locate key [a] among the l1 keys: [Ok g] on a hit, [Err p] with the
   row position where [a]'s rows would start on a miss. *)
let find_l1 t a =
  let g = Column.lower_bound t.l1_keys ~lo:0 ~hi:(n1 t) a in
  if g < n1 t && Column.get t.l1_keys g = a then Ok g
  else Error (pos_of_l1 t g)

let find_l2 t g b cur =
  let j_lo = Column.get t.l1_grp g and j_hi = Column.get t.l1_grp (g + 1) in
  let j = Column.lower_bound t.l2_keys ~cursor:cur ~lo:j_lo ~hi:j_hi b in
  if j < j_hi && Column.read t.l2_keys cur j = b then Ok j
  else Error (Column.get t.l2_pos j)

let range t ?a ?b ?c () =
  match (a, b, c) with
  | None, None, None -> (0, t.n)
  | Some ka, None, None -> (
      match find_l1 t ka with
      | Ok g -> (pos_of_l1 t g, pos_of_l1 t (g + 1))
      | Error p -> (p, p))
  | Some ka, Some kb, None -> (
      match find_l1 t ka with
      | Error p -> (p, p)
      | Ok g -> (
          let cur = Column.cursor t.l2_keys in
          match find_l2 t g kb cur with
          | Ok j -> (Column.get t.l2_pos j, Column.get t.l2_pos (j + 1))
          | Error p -> (p, p)))
  | Some ka, Some kb, Some kc -> (
      match find_l1 t ka with
      | Error p -> (p, p)
      | Ok g -> (
          let cur = Column.cursor t.l2_keys in
          match find_l2 t g kb cur with
          | Error p -> (p, p)
          | Ok j ->
              let r_lo = Column.get t.l2_pos j
              and r_hi = Column.get t.l2_pos (j + 1) in
              let kcur = Column.cursor t.k3 in
              let i =
                Column.lower_bound t.k3 ~cursor:kcur ~lo:r_lo ~hi:r_hi kc
              in
              if i < r_hi && Column.read t.k3 kcur i = kc then (i, i + 1)
              else (i, i)))
  | _ -> invalid_arg "Index.range: non-prefix key combination"

(* --- views -------------------------------------------------------------- *)

(* A view is either a window onto a column (third key column of one
   (key1, key2) group, or the l1 key column itself) carrying its own
   decode cursor, or a materialized array (snapshot base/delta merges).
   Values are strictly increasing in both cases. The embedded cursor
   makes a view single-reader mutable state — exactly how the engine
   uses them (one view per pattern per probe row, inside one domain). *)
type view =
  | Slice of { col : Column.t; cur : Column.cursor; lo : int; len : int }
  | Arr of int array

let slice col ~lo ~len = Slice { col; cur = Column.cursor col; lo; len }

let column_view t ~a ~b =
  match find_l1 t a with
  | Error _ -> Arr [||]
  | Ok g -> (
      let cur = Column.cursor t.l2_keys in
      match find_l2 t g b cur with
      | Error _ -> Arr [||]
      | Ok j ->
          let lo = Column.get t.l2_pos j in
          slice t.k3 ~lo ~len:(Column.get t.l2_pos (j + 1) - lo))

(* The strictly increasing distinct first-key values — distinct subjects
   (SPO) or objects (OSP) for the statistics pass. *)
let firsts_view t = slice t.l1_keys ~lo:0 ~len:(n1 t)

let view_of_sorted_array vals = Arr vals

let view_length = function Slice { len; _ } -> len | Arr a -> Array.length a

let view_get v i =
  match v with
  | Slice { col; cur; lo; _ } -> Column.read col cur (lo + i)
  | Arr a -> Array.unsafe_get a i

(* First view index [>= from] whose value is [>= value], or the view
   length — the intersection kernel's gallop probe, answered on
   compressed slices by a skip-sample search that decodes at most one
   block. *)
let view_lower_bound v ~from value =
  match v with
  | Slice { col; cur; lo; len } ->
      Column.lower_bound col ~cursor:cur ~lo:(lo + from) ~hi:(lo + len) value
      - lo
  | Arr a ->
      let l = ref from and h = ref (Array.length a) in
      while !l < !h do
        let mid = (!l + !h) / 2 in
        if Array.unsafe_get a mid < value then l := mid + 1 else h := mid
      done;
      !l

(* --- scans -------------------------------------------------------------- *)

let iter t ~lo ~hi ~f =
  if hi > lo then begin
    let j = ref (l2_of_pos t lo) in
    let g = ref (l1_of_l2 t !j) in
    let j_end = ref (Column.get t.l2_pos (!j + 1)) in
    let g_end = ref (Column.get t.l1_grp (!g + 1)) in
    let l2cur = Column.cursor t.l2_keys in
    let k1 = ref (Column.get t.l1_keys !g) in
    let k2 = ref (Column.read t.l2_keys l2cur !j) in
    let pos = ref lo in
    Column.iter t.k3 ~lo ~hi ~f:(fun v ->
        if !pos >= !j_end then begin
          incr j;
          j_end := Column.get t.l2_pos (!j + 1);
          if !j >= !g_end then begin
            incr g;
            g_end := Column.get t.l1_grp (!g + 1);
            k1 := Column.get t.l1_keys !g
          end;
          k2 := Column.read t.l2_keys l2cur !j
        end;
        incr pos;
        let s, p, o = spo_of_keys t.order !k1 !k2 v in
        f ~s ~p ~o)
  end

(* Positional access. A cursor carries the decode state of the two
   packed columns, so a run of nearby positions (a strided sample)
   decodes each touched block once. *)
type cursor = { l2cur : Column.cursor; k3cur : Column.cursor }

let cursor t = { l2cur = Column.cursor t.l2_keys; k3cur = Column.cursor t.k3 }

let row t cur pos =
  let j = l2_of_pos t pos in
  let g = l1_of_l2 t j in
  spo_of_keys t.order
    (Column.get t.l1_keys g)
    (Column.read t.l2_keys cur.l2cur j)
    (Column.read t.k3 cur.k3cur pos)

(* Rows ordered before (s, p, o) in this index: the triple's position
   when present. *)
let rank t ~s ~p ~o =
  let a, b, c = keys_of_spo t.order s p o in
  fst (range t ~a ~b ~c ())

(* [iter_firsts t ~f] — every distinct first-key value with its global
   row range, in key order: the per-predicate statistics walk on PSO. *)
let iter_firsts t ~f =
  let groups = n1 t in
  let cur = Column.cursor t.l1_keys in
  for g = 0 to groups - 1 do
    f (Column.read t.l1_keys cur g) ~lo:(pos_of_l1 t g)
      ~hi:(pos_of_l1 t (g + 1))
  done

(* Distinct counts over a row range collapse to group-id arithmetic on
   the Raw offset columns — no scan, free at any scale. *)
let distinct_firsts t ~lo ~hi =
  if hi <= lo then 0 else l1_of_l2 t (l2_of_pos t (hi - 1)) - l1_of_l2 t (l2_of_pos t lo) + 1

let distinct_seconds t ~lo ~hi =
  if hi <= lo then 0 else l2_of_pos t (hi - 1) - l2_of_pos t lo + 1
