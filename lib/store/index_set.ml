(* A deduplicated triple set with all six permutation indexes — the
   unit of immutability in the snapshot store. The base of every
   snapshot is one (large) index set; each frozen delta generation
   carries two more (small) ones for its inserts and deletes. All
   pattern access below is read-only, so a built index set may be shared
   freely across domains; the index payload itself lives off-heap in
   {!Column} storage.

   Builds run in two stages:
     1. sort a permutation of the raw (s, p, o) columns in SPO order and
        dedup into exact columns;
     2. fan the six per-order builds out over the injected {!Bulk}
        runner — each task sorts its own permutation over the
        deduplicated columns and streams it into {!Index.of_sorted}
        (single-pass encode, no materialized key arrays).
   Every sort is {!Index.sort_perm}, which picks radix or comparison by
   cost: bulk loads and checkpoints radix-sort, while a delta's few rows
   take the comparison sort instead of sweeping the dictionary's id
   range. *)

type t = {
  n : int;
  spo : Index.t;
  sop : Index.t;
  pso : Index.t;
  pos : Index.t;
  osp : Index.t;
  ops : Index.t;
}

(* Key accessors for each order over three raw columns. *)
let keys_of_order (cs : int array) cp co = function
  | Index.Spo -> ((fun i -> cs.(i)), (fun i -> cp.(i)), fun i -> co.(i))
  | Index.Sop -> ((fun i -> cs.(i)), (fun i -> co.(i)), fun i -> cp.(i))
  | Index.Pso -> ((fun i -> cp.(i)), (fun i -> cs.(i)), fun i -> co.(i))
  | Index.Pos -> ((fun i -> cp.(i)), (fun i -> co.(i)), fun i -> cs.(i))
  | Index.Osp -> ((fun i -> co.(i)), (fun i -> cs.(i)), fun i -> cp.(i))
  | Index.Ops -> ((fun i -> co.(i)), (fun i -> cp.(i)), fun i -> cs.(i))

let all_orders =
  [| Index.Spo; Index.Sop; Index.Pso; Index.Pos; Index.Osp; Index.Ops |]

(* Build all six indexes over exact, deduplicated columns, in parallel
   when a runner is installed. [sorted_spo] marks the columns as already
   strictly increasing in SPO order, letting that task skip its sort. *)
let build_indexes ~mode ~max_id ~sorted_spo ds dp dob =
  let n = Array.length ds in
  let slots = Array.make 6 None in
  Bulk.run ~ntasks:6 (fun task ->
      let order = all_orders.(task) in
      let k1, k2, k3 = keys_of_order ds dp dob order in
      let idx =
        if order = Index.Spo && sorted_spo then
          Index.of_sorted order ~mode ~n ~key1:k1 ~key2:k2 ~key3:k3
        else begin
          let perm = Index.sort_perm ~n ~max_id ~key1:k1 ~key2:k2 ~key3:k3 in
          Index.of_sorted order ~mode ~n
            ~key1:(fun i -> k1 perm.(i))
            ~key2:(fun i -> k2 perm.(i))
            ~key3:(fun i -> k3 perm.(i))
        end
      in
      slots.(task) <- Some idx);
  let slot i = Option.get slots.(i) in
  {
    n;
    spo = slot 0;
    sop = slot 1;
    pso = slot 2;
    pos = slot 3;
    osp = slot 4;
    ops = slot 5;
  }

let max_id_of ~len cols =
  let m = ref 0 in
  List.iter
    (fun (c : int array) ->
      for i = 0 to len - 1 do
        if Array.unsafe_get c i > !m then m := Array.unsafe_get c i
      done)
    cols;
  !m

let of_columns ?mode ?len ~s ~p ~o () =
  let mode = Option.value mode ~default:Column.Delta in
  let n0 = Option.value len ~default:(Array.length s) in
  let max_id = max_id_of ~len:n0 [ s; p; o ] in
  let sk i = Array.unsafe_get s i
  and pk i = Array.unsafe_get p i
  and ok i = Array.unsafe_get o i in
  let perm = Index.sort_perm ~n:n0 ~max_id ~key1:sk ~key2:pk ~key3:ok in
  (* Dedup into exact columns; the possibly-oversized inputs are dropped
     here and never reach the indexes. *)
  let distinct = ref 0 in
  let prev_s = ref (-1) and prev_p = ref (-1) and prev_o = ref (-1) in
  for i = 0 to n0 - 1 do
    let r = perm.(i) in
    if s.(r) <> !prev_s || p.(r) <> !prev_p || o.(r) <> !prev_o then begin
      prev_s := s.(r);
      prev_p := p.(r);
      prev_o := o.(r);
      incr distinct
    end
  done;
  let n = !distinct in
  let ds = Array.make n 0 and dp = Array.make n 0 and dob = Array.make n 0 in
  let k = ref 0 in
  prev_s := -1;
  prev_p := -1;
  prev_o := -1;
  for i = 0 to n0 - 1 do
    let r = perm.(i) in
    if s.(r) <> !prev_s || p.(r) <> !prev_p || o.(r) <> !prev_o then begin
      prev_s := s.(r);
      prev_p := p.(r);
      prev_o := o.(r);
      ds.(!k) <- s.(r);
      dp.(!k) <- p.(r);
      dob.(!k) <- o.(r);
      incr k
    end
  done;
  build_indexes ~mode ~max_id ~sorted_spo:true ds dp dob

(* Trusted path for the snapshot loader: columns already strictly
   increasing in SPO order (validated during decode), so the sort and
   dedup stages vanish. *)
let of_sorted_columns ?mode ~s ~p ~o () =
  let mode = Option.value mode ~default:Column.Delta in
  let max_id = max_id_of ~len:(Array.length s) [ s; p; o ] in
  build_indexes ~mode ~max_id ~sorted_spo:true s p o

let of_rows rows =
  let n = Array.length rows in
  let s = Array.make n 0 and p = Array.make n 0 and o = Array.make n 0 in
  Array.iteri
    (fun i (si, pi, oi) ->
      s.(i) <- si;
      p.(i) <- pi;
      o.(i) <- oi)
    rows;
  of_columns ~len:n ~s ~p ~o ()

let empty = of_rows [||]

let size t = t.n

let is_empty t = t.n = 0

let mem_bytes t =
  Index.mem_bytes t.spo + Index.mem_bytes t.sop + Index.mem_bytes t.pso
  + Index.mem_bytes t.pos + Index.mem_bytes t.osp + Index.mem_bytes t.ops

let index t = function
  | Index.Spo -> t.spo
  | Index.Sop -> t.sop
  | Index.Pso -> t.pso
  | Index.Pos -> t.pos
  | Index.Osp -> t.osp
  | Index.Ops -> t.ops

(* Pick the index whose component order puts the bound positions first, and
   return it along with the (a, b, c) key prefix. *)
let plan_lookup t ?s ?p ?o () =
  match (s, p, o) with
  | None, None, None -> (t.spo, None, None, None)
  | Some s, None, None -> (t.spo, Some s, None, None)
  | None, Some p, None -> (t.pso, Some p, None, None)
  | None, None, Some o -> (t.osp, Some o, None, None)
  | Some s, Some p, None -> (t.spo, Some s, Some p, None)
  | Some s, None, Some o -> (t.sop, Some s, Some o, None)
  | None, Some p, Some o -> (t.pos, Some p, Some o, None)
  | Some s, Some p, Some o -> (t.spo, Some s, Some p, Some o)

let pattern_range t ?s ?p ?o () =
  let idx, a, b, c = plan_lookup t ?s ?p ?o () in
  let lo, hi = Index.range idx ?a ?b ?c () in
  (idx, lo, hi)

let count t ?s ?p ?o () =
  let _, lo, hi = pattern_range t ?s ?p ?o () in
  hi - lo

let iter t ?s ?p ?o ~f () =
  let idx, lo, hi = pattern_range t ?s ?p ?o () in
  Index.iter idx ~lo ~hi ~f

let contains t ~s ~p ~o = count t ~s ~p ~o () > 0

let third_column_view t ?s ?p ?o () =
  match (s, p, o) with
  | Some s, Some p, None -> Index.column_view t.spo ~a:s ~b:p
  | Some s, None, Some o -> Index.column_view t.sop ~a:s ~b:o
  | None, Some p, Some o -> Index.column_view t.pos ~a:p ~b:o
  | _ ->
      invalid_arg "Index_set.third_column_view: exactly two bound positions"

let iter_all t ~f = Index.iter t.spo ~lo:0 ~hi:t.n ~f

(* Every triple as encoded rows, in SPO order — the commit path folds a
   transaction's writes over these. *)
let rows t =
  let n = size t in
  let out = Array.make n (0, 0, 0) in
  let i = ref 0 in
  iter_all t ~f:(fun ~s ~p ~o ->
      out.(!i) <- (s, p, o);
      incr i);
  out

(* Within a single-predicate range of PSO, distinct (p, s) pairs coincide
   with distinct subjects. *)
let distinct_subjects t ~p =
  let lo, hi = Index.range t.pso ~a:p () in
  Index.distinct_seconds t.pso ~lo ~hi

let distinct_objects t ~p =
  let lo, hi = Index.range t.pos ~a:p () in
  Index.distinct_seconds t.pos ~lo ~hi

(* The skip level of PSO lists every predicate with its row range — no
   walk over triples. *)
let predicates t =
  let acc = ref [] in
  Index.iter_firsts t.pso ~f:(fun p ~lo ~hi -> acc := (p, hi - lo) :: !acc);
  List.rev !acc
