(* Candidate sets carry one of two physical representations, picked by
   density at construction time:

   - [Dense]: a bitset over the dictionary-id universe. Membership is one
     byte load plus a mask, and the multiway intersection kernel applies it
     to each probe without changing its asymptotics. Chosen exactly when
     the bitset (universe/8 bytes) is no larger than the sorted array it
     replaces (8 bytes per element).
   - [Sorted]: a strictly increasing int array. Sparse sets keep memory
     proportional to their cardinality, and the intersection kernel
     consumes them directly as an operand, so a small set drives the
     intersection instead of being tested against every value. *)

type set =
  | Dense of { bits : Bytes.t; universe : int; card : int }
  | Sorted of int array

type t = (int * set) list

(* Dense wins when universe/8 bytes <= card * 8 bytes, i.e. universe <=
   64 * card. *)
let dense_factor = 64
let dense ~universe ~card = universe > 0 && universe <= dense_factor * card

let mem set id =
  match set with
  | Dense { bits; universe; _ } ->
      id >= 0 && id < universe
      && Char.code (Bytes.unsafe_get bits (id lsr 3)) land (1 lsl (id land 7))
         <> 0
  | Sorted arr ->
      let lo = ref 0 and hi = ref (Array.length arr) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if arr.(mid) < id then lo := mid + 1 else hi := mid
      done;
      !lo < Array.length arr && arr.(!lo) = id

let cardinal = function
  | Dense { card; _ } -> card
  | Sorted arr -> Array.length arr

let iter_values set ~f =
  match set with
  | Sorted arr -> Array.iter f arr
  | Dense { bits; universe; _ } ->
      for byte = 0 to Bytes.length bits - 1 do
        let b = Char.code (Bytes.get bits byte) in
        if b <> 0 then
          for bit = 0 to 7 do
            if b land (1 lsl bit) <> 0 then begin
              let id = (byte lsl 3) lor bit in
              if id < universe then f id
            end
          done
      done

let as_sorted = function
  | Sorted arr -> Some arr
  | Dense _ -> None

let of_hashtbl ~universe tbl =
  let card = Hashtbl.length tbl in
  if dense ~universe ~card then begin
    let bits = Bytes.make ((universe + 7) lsr 3) '\000' in
    Hashtbl.iter
      (fun id () ->
        if id >= 0 && id < universe then
          Bytes.set bits (id lsr 3)
            (Char.chr
               (Char.code (Bytes.get bits (id lsr 3)) lor (1 lsl (id land 7)))))
      tbl;
    Dense { bits; universe; card }
  end
  else begin
    let arr = Array.make card 0 in
    let i = ref 0 in
    Hashtbl.iter
      (fun id () ->
        arr.(!i) <- id;
        incr i)
      tbl;
    Array.sort Int.compare arr;
    Sorted arr
  end

let of_sorted_array arr = Sorted arr

(* Build a candidate set straight from an index view — the sorted,
   duplicate-free third column of a two-bound pattern, read sequentially
   off the compressed blocks. Same density rule as [of_hashtbl]. *)
let of_view ~universe view =
  let card = Rdf_store.Index.view_length view in
  if dense ~universe ~card then begin
    let bits = Bytes.make ((universe + 7) lsr 3) '\000' in
    for i = 0 to card - 1 do
      let id = Rdf_store.Index.view_get view i in
      if id >= 0 && id < universe then
        Bytes.set bits (id lsr 3)
          (Char.chr
             (Char.code (Bytes.get bits (id lsr 3)) lor (1 lsl (id land 7))))
    done;
    Dense { bits; universe; card }
  end
  else Sorted (Array.init card (Rdf_store.Index.view_get view))

(* The LBR-style index-level prefilter: a compiled pattern with two bound
   positions names — via the store's sorted third-column view — the exact
   value set of its single variable, built straight off the compressed
   index blocks without materializing a row. [None] when the pattern does
   not have exactly two bound positions. Shared by the LBR baseline's
   prefilter pass and the adaptive executor. *)
let of_two_bound store (c : Compiled.t) =
  let universe = Rdf_store.Snapshot.dict_size store in
  let view s p o = Rdf_store.Snapshot.third_column_view store ?s ?p ?o () in
  match (c.Compiled.cs, c.Compiled.cp, c.Compiled.co) with
  | Compiled.Cvar col, Cterm p, Cterm o ->
      Some (col, of_view ~universe (view None (Some p) (Some o)))
  | Cterm s, Cvar col, Cterm o ->
      Some (col, of_view ~universe (view (Some s) None (Some o)))
  | Cterm s, Cterm p, Cvar col ->
      Some (col, of_view ~universe (view (Some s) (Some p) None))
  | _ -> None

(* Membership-test telemetry for prefilter hit rates, charged to the
   scanning execution's ticket: [Prefilter_checks] counts candidate-set
   consultations during scans, [Prefilter_rejects] the rows filtered
   out. *)
type counters = { checks : int; rejects : int }

let of_counts c =
  {
    checks = Sparql.Governor.get c Prefilter_checks;
    rejects = Sparql.Governor.get c Prefilter_rejects;
  }

(* [noted_mem] is {!mem} plus counting — the membership test scans use. *)
let noted_mem gov set id =
  Sparql.Governor.count gov Prefilter_checks 1;
  let ok = mem set id in
  if not ok then Sparql.Governor.count gov Prefilter_rejects 1;
  ok

let empty = []

let set cands ~col s = (col, s) :: List.filter (fun (c, _) -> c <> col) cands

let find cands ~col = List.assoc_opt col cands

let allows gov cands ~col value =
  match List.assoc_opt col cands with
  | None -> true
  | Some s -> noted_mem gov s value

let is_empty = function [] -> true | _ :: _ -> false

let restrict cands ~cols = List.filter (fun (c, _) -> List.mem c cols) cands

let columns cands = List.map fst cands
