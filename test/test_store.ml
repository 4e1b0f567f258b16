(* Tests for the rdf_store library: dictionary, permutation indexes, the
   triple store's pattern access, and statistics. Includes qcheck
   properties checking index lookups against naive scans. *)

let iri i = Rdf.Term.iri (Printf.sprintf "http://t/%d" i)

let triple s p o = Rdf.Triple.make (iri s) (iri (100 + p)) (iri (200 + o))

(* --- Dictionary ----------------------------------------------------------- *)

let test_dictionary_bijection () =
  let dict = Rdf_store.Dictionary.create () in
  let terms = List.init 100 iri in
  let ids = List.map (Rdf_store.Dictionary.encode dict) terms in
  Alcotest.(check int) "dense ids" 100 (Rdf_store.Dictionary.size dict);
  List.iteri
    (fun i id ->
      Alcotest.(check int) "ids are dense and in insertion order" i id;
      Alcotest.(check bool) "decode inverts encode" true
        (Rdf.Term.equal (List.nth terms i) (Rdf_store.Dictionary.decode dict id)))
    ids

let test_dictionary_idempotent_encode () =
  let dict = Rdf_store.Dictionary.create () in
  let id1 = Rdf_store.Dictionary.encode dict (iri 1) in
  let id2 = Rdf_store.Dictionary.encode dict (iri 1) in
  Alcotest.(check int) "same id" id1 id2;
  Alcotest.(check int) "size 1" 1 (Rdf_store.Dictionary.size dict)

let test_dictionary_find_and_bounds () =
  let dict = Rdf_store.Dictionary.create ~initial_capacity:1 () in
  ignore (Rdf_store.Dictionary.encode dict (iri 1));
  Alcotest.(check (option int)) "find hit" (Some 0)
    (Rdf_store.Dictionary.find dict (iri 1));
  Alcotest.(check (option int)) "find miss" None
    (Rdf_store.Dictionary.find dict (iri 2));
  Alcotest.check_raises "decode out of range"
    (Invalid_argument "Dictionary.decode: id 5 out of range") (fun () ->
      ignore (Rdf_store.Dictionary.decode dict 5))

(* --- Index ------------------------------------------------------------------ *)

let mk_table rows =
  {
    Rdf_store.Index.s = Array.of_list (List.map (fun (s, _, _) -> s) rows);
    Rdf_store.Index.p = Array.of_list (List.map (fun (_, p, _) -> p) rows);
    Rdf_store.Index.o = Array.of_list (List.map (fun (_, _, o) -> o) rows);
  }

let all_orders =
  [ Rdf_store.Index.Spo; Sop; Pso; Pos; Osp; Ops ]

let test_index_full_range () =
  let table = mk_table [ (1, 2, 3); (0, 5, 1); (1, 2, 2); (4, 0, 0) ] in
  List.iter
    (fun order ->
      let idx = Rdf_store.Index.build order table in
      let lo, hi = Rdf_store.Index.range idx () in
      Alcotest.(check (pair int int)) "full range" (0, 4) (lo, hi))
    all_orders

let test_index_sorted_and_prefix () =
  let rows = [ (1, 2, 3); (0, 5, 1); (1, 2, 2); (1, 3, 0); (0, 5, 0) ] in
  let table = mk_table rows in
  let idx = Rdf_store.Index.build Rdf_store.Index.Spo table in
  (* SPO order: (0,5,0) (0,5,1) (1,2,2) (1,2,3) (1,3,0) *)
  let collected = ref [] in
  let lo, hi = Rdf_store.Index.range idx () in
  Rdf_store.Index.iter idx ~lo ~hi ~f:(fun ~s ~p ~o ->
      collected := (s, p, o) :: !collected);
  let sorted = List.rev !collected in
  Alcotest.(check bool) "sorted lexicographically" true
    (sorted = [ (0, 5, 0); (0, 5, 1); (1, 2, 2); (1, 2, 3); (1, 3, 0) ]);
  let lo, hi = Rdf_store.Index.range idx ~a:1 () in
  Alcotest.(check int) "s=1 has 3 rows" 3 (hi - lo);
  let lo, hi = Rdf_store.Index.range idx ~a:1 ~b:2 () in
  Alcotest.(check int) "s=1,p=2 has 2 rows" 2 (hi - lo);
  let lo, hi = Rdf_store.Index.range idx ~a:1 ~b:2 ~c:3 () in
  Alcotest.(check int) "exact row" 1 (hi - lo);
  let lo, hi = Rdf_store.Index.range idx ~a:9 () in
  Alcotest.(check int) "absent key" 0 (hi - lo)

let test_index_distincts () =
  let table = mk_table [ (1, 2, 3); (1, 2, 4); (1, 3, 3); (2, 2, 3) ] in
  let idx = Rdf_store.Index.build Rdf_store.Index.Spo table in
  let lo, hi = Rdf_store.Index.range idx () in
  Alcotest.(check int) "distinct subjects" 2
    (Rdf_store.Index.distinct_firsts idx ~lo ~hi);
  Alcotest.(check int) "distinct (s,p)" 3
    (Rdf_store.Index.distinct_seconds idx ~lo ~hi)

let test_index_bad_prefix () =
  let table = mk_table [ (1, 2, 3) ] in
  let idx = Rdf_store.Index.build Rdf_store.Index.Spo table in
  Alcotest.check_raises "b without a"
    (Invalid_argument "Index.range: non-prefix key combination") (fun () ->
      ignore (Rdf_store.Index.range idx ~b:2 ()))

(* One cost-chosen sort builds every index: whichever of radix and the
   packed-key comparison sort [Index.radix_pays] picks, an index set
   holds the distinct rows in each of the six orders and answers every
   bound-position combination like a naive filter. Dense draws (many
   rows over ids 0..7) take radix; sparse ones (ids up to 2^30, past the
   21-bit packing limit half the time) take the comparison sort; both
   repeat rows. *)
let keys_in order (s, p, o) =
  match order with
  | Rdf_store.Index.Spo -> (s, p, o)
  | Sop -> (s, o, p)
  | Pso -> (p, s, o)
  | Pos -> (p, o, s)
  | Osp -> (o, s, p)
  | Ops -> (o, p, s)

let gen_sort_case =
  QCheck2.Gen.(
    let* dense = bool in
    if dense then
      let* rows =
        list_size (int_range 64 300)
          (triple (int_range 0 7) (int_range 0 7) (int_range 0 7))
      in
      return (true, rows)
    else
      let* wide = bool in
      let top = if wide then 1 lsl 30 else 1 lsl 20 in
      let* pool = list_size (int_range 1 12) (int_range 4096 top) in
      let pool = Array.of_list pool in
      let pick = map (fun i -> pool.(i mod Array.length pool)) nat in
      let* rows = list_size (int_range 1 60) (triple pick pick pick) in
      return (false, rows))

let prop_one_sort_same_indexes =
  QCheck2.Test.make ~name:"cost-chosen sort: same rows and counts" ~count:300
    gen_sort_case (fun (dense, rows) ->
      let n = List.length rows in
      let max_id =
        List.fold_left (fun m (s, p, o) -> max m (max s (max p o))) 0 rows
      in
      if Rdf_store.Index.radix_pays ~n ~max_id <> dense then
        QCheck2.Test.fail_reportf "cost rule: dense=%b but radix_pays=%b" dense
          (not dense);
      let set = Rdf_store.Index_set.of_rows (Array.of_list rows) in
      let distinct = List.sort_uniq compare rows in
      let orders_ok =
        List.for_all
          (fun order ->
            let idx = Rdf_store.Index_set.index set order in
            let got = ref [] in
            let lo, hi = Rdf_store.Index.range idx () in
            Rdf_store.Index.iter idx ~lo ~hi ~f:(fun ~s ~p ~o ->
                got := (s, p, o) :: !got);
            let expected =
              List.sort
                (fun a b -> compare (keys_in order a) (keys_in order b))
                distinct
            in
            List.rev !got = expected)
          all_orders
      in
      let probes =
        (0, 0, 0) :: (max_id + 1, 1, max_id) :: List.filteri (fun i _ -> i < 40) rows
      in
      let counts_ok =
        List.for_all
          (fun (ps, pp, po) ->
            List.for_all
              (fun mask ->
                let pick bit v = if mask land bit <> 0 then Some v else None in
                let s = pick 1 ps and p = pick 2 pp and o = pick 4 po in
                let matches k = function None -> true | Some v -> v = k in
                let expected =
                  List.length
                    (List.filter
                       (fun (a, b, c) -> matches a s && matches b p && matches c o)
                       distinct)
                in
                Rdf_store.Index_set.count set ?s ?p ?o () = expected)
              [ 0; 1; 2; 3; 4; 5; 6; 7 ])
          probes
      in
      orders_ok && counts_ok)

(* --- Triple store ------------------------------------------------------------- *)

let test_store_dedup () =
  let triples = [ triple 1 1 1; triple 1 1 1; triple 1 1 2 ] in
  let store = Rdf_store.Triple_store.of_triples triples in
  Alcotest.(check int) "duplicates removed" 2 (Rdf_store.Triple_store.size store)

let test_store_pattern_counts () =
  let triples =
    [ triple 1 1 1; triple 1 1 2; triple 1 2 1; triple 2 1 1; triple 2 2 2 ]
  in
  let store = Rdf_store.Triple_store.of_triples triples in
  let id t = Option.get (Rdf_store.Triple_store.encode_term store t) in
  let s1 = id (iri 1) and p1 = id (iri 101) and o1 = id (iri 201) in
  Alcotest.(check int) "count all" 5 (Rdf_store.Triple_store.count store ());
  Alcotest.(check int) "count s" 3 (Rdf_store.Triple_store.count store ~s:s1 ());
  Alcotest.(check int) "count p" 3 (Rdf_store.Triple_store.count store ~p:p1 ());
  Alcotest.(check int) "count o" 3 (Rdf_store.Triple_store.count store ~o:o1 ());
  Alcotest.(check int) "count sp" 2
    (Rdf_store.Triple_store.count store ~s:s1 ~p:p1 ());
  Alcotest.(check int) "count so" 2
    (Rdf_store.Triple_store.count store ~s:s1 ~o:o1 ());
  Alcotest.(check int) "count po" 2
    (Rdf_store.Triple_store.count store ~p:p1 ~o:o1 ());
  Alcotest.(check int) "count spo" 1
    (Rdf_store.Triple_store.count store ~s:s1 ~p:p1 ~o:o1 ());
  Alcotest.(check bool) "contains" true
    (Rdf_store.Triple_store.contains store ~s:s1 ~p:p1 ~o:o1)

let test_store_missing_term () =
  let store = Rdf_store.Triple_store.of_triples [ triple 1 1 1 ] in
  Alcotest.(check (option int)) "missing term" None
    (Rdf_store.Triple_store.encode_term store (iri 999))

(* qcheck: every pattern lookup agrees with a naive scan. *)
let prop_store_matches_naive =
  QCheck2.Test.make ~name:"pattern lookup = naive scan" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 60)
           (map3 (fun s p o -> (s, p, o)) (int_range 0 5) (int_range 0 3)
              (int_range 0 6)))
        (map3 (fun s p o -> (s, p, o)) (int_range (-1) 5) (int_range (-1) 3)
           (int_range (-1) 6)))
    (fun (rows, (qs, qp, qo)) ->
      let triples = List.map (fun (s, p, o) -> triple s p o) rows in
      let store = Rdf_store.Triple_store.of_triples triples in
      let enc t = Rdf_store.Triple_store.encode_term store t in
      let key q base = if q < 0 then None else enc (iri (base + q)) in
      let s = key qs 0 and p = key qp 100 and o = key qo 200 in
      (* If a queried constant is absent from the data, the count must be
         0 unless that position was a wildcard. *)
      let expected =
        let distinct = List.sort_uniq compare rows in
        List.length
          (List.filter
             (fun (rs, rp, ro) ->
               (qs < 0 || rs = qs) && (qp < 0 || rp = qp) && (qo < 0 || ro = qo))
             distinct)
      in
      let actual =
        match ((qs >= 0 && s = None), (qp >= 0 && p = None), (qo >= 0 && o = None)) with
        | false, false, false -> Rdf_store.Triple_store.count store ?s ?p ?o ()
        | _ -> 0 (* constant not in dictionary: trivially no matches *)
      in
      actual = expected)

(* --- Snapshot ---------------------------------------------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "repro" ".spuo" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_snapshot_roundtrip () =
  let triples =
    [
      Rdf.Triple.make (iri 1) (iri 100) (iri 2);
      Rdf.Triple.make (iri 1) (iri 100) (Rdf.Term.literal "plain \"quoted\"");
      Rdf.Triple.make (Rdf.Term.bnode "b0") (iri 101)
        (Rdf.Term.lang_literal "salut" ~lang:"fr");
      Rdf.Triple.make (iri 3) (iri 101) (Rdf.Term.int_literal 42);
    ]
  in
  let store = Rdf_store.Triple_store.of_triples triples in
  with_temp_file (fun path ->
      Rdf_store.Snapshot.save store path;
      let restored = Rdf_store.Snapshot.load path in
      Alcotest.(check int) "same size" (Rdf_store.Triple_store.size store)
        (Rdf_store.Triple_store.size restored);
      (* Every original triple is present, term-for-term. *)
      List.iter
        (fun { Rdf.Triple.s; p; o } ->
          let id term =
            Option.get (Rdf_store.Triple_store.encode_term restored term)
          in
          Alcotest.(check bool)
            (Rdf.Triple.to_ntriples (Rdf.Triple.make s p o))
            true
            (Rdf_store.Triple_store.contains restored ~s:(id s) ~p:(id p)
               ~o:(id o)))
        triples)

let test_snapshot_corruption () =
  let store = Rdf_store.Triple_store.of_triples [ triple 1 1 1; triple 2 1 2 ] in
  with_temp_file (fun path ->
      Rdf_store.Snapshot.save store path;
      (* Flip a byte in the middle: checksum must catch it. *)
      let content = In_channel.with_open_bin path In_channel.input_all in
      let mutated = Bytes.of_string content in
      let mid = Bytes.length mutated / 2 in
      Bytes.set mutated mid
        (Char.chr ((Char.code (Bytes.get mutated mid) + 1) land 0xFF));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc mutated);
      (match Rdf_store.Snapshot.load path with
      | exception Rdf_store.Snapshot.Corrupt _ -> ()
      | _ -> Alcotest.fail "expected Corrupt on bit flip");
      (* Truncation must also be caught. *)
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub content 0 (String.length content - 6)));
      (match Rdf_store.Snapshot.load path with
      | exception Rdf_store.Snapshot.Corrupt _ -> ()
      | _ -> Alcotest.fail "expected Corrupt on truncation");
      (* Wrong magic. *)
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc ("XXXX" ^ String.sub content 4 (String.length content - 4)));
      match Rdf_store.Snapshot.load path with
      | exception Rdf_store.Snapshot.Corrupt _ -> ()
      | _ -> Alcotest.fail "expected Corrupt on bad magic")

(* Each distinct corruption path must surface as [Corrupt] with its own
   diagnostic: a truncated file, a flipped checksum trailer, an unknown
   term tag, a triple id past the dictionary, and — in the v2 block
   format — a truncated skip index, an implausible block length and a
   block count that disagrees with the triple count. Most need
   handcrafted files — they cannot be produced by [save]. *)
let test_snapshot_corruption_paths () =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec at i = i + ln <= lh && (String.sub hay i ln = needle || at (i + 1)) in
    at 0
  in
  let expect_corrupt ~substring path =
    match Rdf_store.Snapshot.load path with
    | exception Rdf_store.Snapshot.Corrupt msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S raised for %s" substring msg)
          true (contains msg substring)
    | _ -> Alcotest.fail (Printf.sprintf "expected Corrupt (%s)" substring)
  in
  (* The loader reads 4-byte big-endian ints (output_binary_int). *)
  let handcrafted oc ints =
    output_string oc "SPUO";
    List.iter (output_binary_int oc) (2 :: ints)
  in
  let store = Rdf_store.Triple_store.of_triples [ triple 1 1 1; triple 2 1 2 ] in
  with_temp_file (fun path ->
      Rdf_store.Snapshot.save store path;
      let content = In_channel.with_open_bin path In_channel.input_all in
      (* Truncated mid-stream. *)
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub content 0 (String.length content / 2)));
      expect_corrupt ~substring:"truncated" path;
      (* Data intact, stored checksum flipped: only the final comparison
         can catch it. *)
      let mutated = Bytes.of_string content in
      let last = Bytes.length mutated - 1 in
      Bytes.set mutated last
        (Char.chr (Char.code (Bytes.get mutated last) lxor 1));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc mutated);
      expect_corrupt ~substring:"checksum mismatch" path;
      (* One term with tag 9: no such term kind. *)
      Out_channel.with_open_bin path (fun oc -> handcrafted oc [ 1; 9 ]);
      expect_corrupt ~substring:"unknown term tag" path;
      (* One IRI term ("ab"); one triple in one block whose skip-index
         sample references id 5 of a 1-term dictionary. *)
      Out_channel.with_open_bin path (fun oc ->
          handcrafted oc [ 1; 0; 2 ];
          output_string oc "ab";
          List.iter (output_binary_int oc) [ 1; 1; 0; 0; 5; 0 ]);
      expect_corrupt ~substring:"out of dictionary range" path;
      (* Block count disagreeing with the triple count. *)
      Out_channel.with_open_bin path (fun oc ->
          handcrafted oc [ 1; 0; 2 ];
          output_string oc "ab";
          List.iter (output_binary_int oc) [ 1; 5 ]);
      expect_corrupt ~substring:"block count mismatch" path;
      (* Skip index cut off mid-entry (two of four ints present). *)
      Out_channel.with_open_bin path (fun oc ->
          handcrafted oc [ 1; 0; 2 ];
          output_string oc "ab";
          List.iter (output_binary_int oc) [ 1; 1; 0; 0 ]);
      expect_corrupt ~substring:"truncated skip index" path;
      (* Payload length far beyond what a 4096-triple block can hold. *)
      Out_channel.with_open_bin path (fun oc ->
          handcrafted oc [ 1; 0; 2 ];
          output_string oc "ab";
          List.iter (output_binary_int oc) [ 1; 1; 0; 0; 0; 999_999_999 ]);
      expect_corrupt ~substring:"implausible block length" path)

(* Property: snapshots round-trip arbitrary encoded datasets and queries
   see identical results. *)
let prop_snapshot_roundtrip =
  QCheck2.Test.make ~name:"snapshot roundtrip preserves pattern counts"
    ~count:50
    QCheck2.Gen.(
      list_size (int_range 0 40)
        (map3 (fun s p o -> (s, p, o)) (int_range 0 5) (int_range 0 3)
           (int_range 0 6)))
    (fun rows ->
      let triples = List.map (fun (s, p, o) -> triple s p o) rows in
      let store = Rdf_store.Triple_store.of_triples triples in
      with_temp_file (fun path ->
          Rdf_store.Snapshot.save store path;
          let restored = Rdf_store.Snapshot.load path in
          Rdf_store.Triple_store.size restored = Rdf_store.Triple_store.size store
          && List.for_all
               (fun t ->
                 let present store =
                   match
                     ( Rdf_store.Triple_store.encode_term store t.Rdf.Triple.s,
                       Rdf_store.Triple_store.encode_term store t.Rdf.Triple.p,
                       Rdf_store.Triple_store.encode_term store t.Rdf.Triple.o )
                   with
                   | Some s, Some p, Some o ->
                       Rdf_store.Triple_store.contains store ~s ~p ~o
                   | _ -> false
                 in
                 present restored = present store)
               triples))

(* --- MVCC -------------------------------------------------------------------- *)

let snap_rows snap =
  let acc = ref [] in
  Rdf_store.Snapshot.iter_all snap ~f:(fun ~s ~p ~o -> acc := (s, p, o) :: !acc);
  List.sort compare !acc

let test_mvcc_visibility () =
  let store = Rdf_store.Triple_store.of_triples [ triple 1 1 1; triple 2 1 2 ] in
  let mvcc = Rdf_store.Mvcc.create store in
  let s0 = Rdf_store.Mvcc.snapshot mvcc in
  let txn = Rdf_store.Mvcc.begin_txn mvcc in
  Rdf_store.Mvcc.insert txn (triple 3 1 3);
  Rdf_store.Mvcc.delete txn (triple 1 1 1);
  (* Buffered, not published: the current snapshot is still s0's view. *)
  Alcotest.(check int) "uncommitted invisible" 2
    (Rdf_store.Snapshot.size (Rdf_store.Mvcc.snapshot mvcc));
  let s1 = Rdf_store.Mvcc.commit txn in
  Alcotest.(check int) "pre-commit snapshot untouched" 2
    (Rdf_store.Snapshot.size s0);
  Alcotest.(check int) "post-commit size" 2 (Rdf_store.Snapshot.size s1);
  Alcotest.(check bool) "distinct row sets" true (snap_rows s0 <> snap_rows s1);
  Alcotest.(check bool) "versions increase" true
    (Rdf_store.Snapshot.version s1 > Rdf_store.Snapshot.version s0);
  (* Deleting an unknown term is a no-op, not an error. *)
  let txn = Rdf_store.Mvcc.begin_txn mvcc in
  Rdf_store.Mvcc.delete txn (triple 8 8 8);
  let s2 = Rdf_store.Mvcc.commit txn in
  Alcotest.(check bool) "no-op delete preserves rows" true
    (snap_rows s1 = snap_rows s2)

(* The commit fold maintains adds ∩ base = ∅, dels ⊆ base, adds ∩ dels
   = ∅ across op orderings within and across transactions. *)
let test_mvcc_commit_fold () =
  let store = Rdf_store.Triple_store.of_triples [ triple 1 1 1 ] in
  let mvcc = Rdf_store.Mvcc.create store in
  (* Insert-then-delete of a fresh triple in one txn: net nothing. *)
  let txn = Rdf_store.Mvcc.begin_txn mvcc in
  Rdf_store.Mvcc.insert txn (triple 5 1 5);
  Rdf_store.Mvcc.delete txn (triple 5 1 5);
  let s = Rdf_store.Mvcc.commit txn in
  Alcotest.(check int) "insert-then-delete nets out" 1
    (Rdf_store.Snapshot.size s);
  (* Delete-then-reinsert of a base triple: still present, delta empty
     of it on both sides. *)
  let txn = Rdf_store.Mvcc.begin_txn mvcc in
  Rdf_store.Mvcc.delete txn (triple 1 1 1);
  Rdf_store.Mvcc.insert txn (triple 1 1 1);
  let s = Rdf_store.Mvcc.commit txn in
  Alcotest.(check int) "delete-then-reinsert keeps the row" 1
    (Rdf_store.Snapshot.size s);
  (* Re-inserting a base triple is absorbed (set semantics). *)
  let txn = Rdf_store.Mvcc.begin_txn mvcc in
  Rdf_store.Mvcc.insert txn (triple 1 1 1);
  let s = Rdf_store.Mvcc.commit txn in
  Alcotest.(check int) "duplicate insert absorbed" 1
    (Rdf_store.Snapshot.size s);
  Alcotest.(check int) "absorbed ops leave no delta" 0
    (Rdf_store.Mvcc.delta_rows mvcc)

let test_mvcc_auto_compaction () =
  let store = Rdf_store.Triple_store.of_triples [ triple 1 1 1 ] in
  let mvcc = Rdf_store.Mvcc.create ~compact_threshold:2 store in
  let base0 = Rdf_store.Mvcc.base mvcc in
  let pinned = Rdf_store.Mvcc.snapshot mvcc in
  let txn = Rdf_store.Mvcc.begin_txn mvcc in
  List.iter (Rdf_store.Mvcc.insert txn) [ triple 2 1 2; triple 3 1 3 ];
  let s = Rdf_store.Mvcc.commit txn in
  (* The 2-row delta crossed the threshold: folded into a fresh base. *)
  Alcotest.(check int) "delta folded" 0 (Rdf_store.Mvcc.delta_rows mvcc);
  Alcotest.(check bool) "base epoch advanced" true
    (Rdf_store.Triple_store.epoch (Rdf_store.Mvcc.base mvcc)
    <> Rdf_store.Triple_store.epoch base0);
  Alcotest.(check int) "compacted view complete" 3 (Rdf_store.Snapshot.size s);
  Alcotest.(check int) "pinned reader unaffected" 1
    (Rdf_store.Snapshot.size pinned)

(* A writer domain commits single-row transactions while reader domains
   hammer snapshot acquisition: every acquired view must be internally
   consistent (size = row count) and sizes must grow monotonically per
   reader. *)
let test_mvcc_concurrent_reader_writer () =
  let store = Rdf_store.Triple_store.of_triples [ triple 0 0 0 ] in
  let mvcc = Rdf_store.Mvcc.create ~compact_threshold:8 store in
  let total = 64 in
  let writer =
    Domain.spawn (fun () ->
        for i = 1 to total do
          let txn = Rdf_store.Mvcc.begin_txn mvcc in
          Rdf_store.Mvcc.insert txn (triple i 0 i);
          ignore (Rdf_store.Mvcc.commit txn)
        done)
  in
  let reader () =
    let ok = ref true in
    let last = ref 0 in
    while !last < total + 1 do
      let snap = Rdf_store.Mvcc.snapshot mvcc in
      let n = ref 0 in
      Rdf_store.Snapshot.iter_all snap ~f:(fun ~s:_ ~p:_ ~o:_ -> incr n);
      if !n <> Rdf_store.Snapshot.size snap then ok := false;
      if Rdf_store.Snapshot.size snap < !last then ok := false;
      last := max !last (Rdf_store.Snapshot.size snap)
    done;
    !ok
  in
  let readers = List.init 3 (fun _ -> Domain.spawn reader) in
  Domain.join writer;
  let all_ok = List.for_all Domain.join readers in
  Alcotest.(check bool) "every acquired view consistent and monotone" true
    all_ok;
  Alcotest.(check int) "final size" (total + 1)
    (Rdf_store.Snapshot.size (Rdf_store.Mvcc.snapshot mvcc))

(* Publishing a commit builds the delta's index sets; their sort must
   not sweep the dictionary's id range. A one-triple commit whose terms
   are the newest (largest) ids allocates about the same on stores
   whose dictionaries differ 16x. *)
let test_mvcc_commit_cost_independent_of_dictionary () =
  let commit_words terms =
    let store =
      Rdf_store.Triple_store.of_triples
        (List.init (terms / 2) (fun i ->
             Rdf.Triple.make (iri (2 * i)) (iri 100) (iri ((2 * i) + 1))))
    in
    let mvcc = Rdf_store.Mvcc.create store in
    let commit_fresh k =
      let txn = Rdf_store.Mvcc.begin_txn mvcc in
      Rdf_store.Mvcc.insert txn
        (Rdf.Triple.make (iri (terms + (2 * k))) (iri 100)
           (iri (terms + (2 * k) + 1)));
      Qgen.words_allocated (fun () -> ignore (Rdf_store.Mvcc.commit txn))
    in
    ignore (commit_fresh 0);
    commit_fresh 1
  in
  let small = commit_words 2_000 and large = commit_words 32_000 in
  if large > 2. *. small then
    Alcotest.failf "commit allocated %.0f words at 32k terms vs %.0f at 2k"
      large small

(* --- Stats ----------------------------------------------------------------------- *)

let test_stats_counts () =
  let triples =
    [
      Rdf.Triple.make (iri 1) (iri 100) (iri 2);
      Rdf.Triple.make (iri 1) (iri 100) (Rdf.Term.literal "x");
      Rdf.Triple.make (iri 2) (iri 101) (Rdf.Term.literal "y");
      Rdf.Triple.make (iri 3) (iri 100) (iri 2);
    ]
  in
  let store = Rdf_store.Triple_store.of_triples triples in
  let stats = Rdf_store.Stats.compute store in
  Alcotest.(check int) "triples" 4 (Rdf_store.Stats.num_triples stats);
  (* Entities: iri1, iri2, iri3 (iri100/101 only appear as predicates). *)
  Alcotest.(check int) "entities" 3 (Rdf_store.Stats.num_entities stats);
  Alcotest.(check int) "predicates" 2 (Rdf_store.Stats.num_predicates stats);
  Alcotest.(check int) "literals" 2 (Rdf_store.Stats.num_literals stats)

let test_stats_predicate () =
  let triples =
    [
      Rdf.Triple.make (iri 1) (iri 100) (iri 10);
      Rdf.Triple.make (iri 1) (iri 100) (iri 11);
      Rdf.Triple.make (iri 2) (iri 100) (iri 10);
    ]
  in
  let store = Rdf_store.Triple_store.of_triples triples in
  let stats = Rdf_store.Stats.compute store in
  let p = Option.get (Rdf_store.Triple_store.encode_term store (iri 100)) in
  let ps = Rdf_store.Stats.predicate stats ~p in
  Alcotest.(check int) "triples" 3 ps.Rdf_store.Stats.triples;
  Alcotest.(check int) "distinct subjects" 2 ps.Rdf_store.Stats.distinct_subjects;
  Alcotest.(check int) "distinct objects" 2 ps.Rdf_store.Stats.distinct_objects;
  Alcotest.(check (float 0.001)) "avg out" 1.5 ps.Rdf_store.Stats.avg_out_degree;
  Alcotest.(check (float 0.001)) "avg in" 1.5 ps.Rdf_store.Stats.avg_in_degree;
  let absent = Rdf_store.Stats.predicate stats ~p:99999 in
  Alcotest.(check int) "absent predicate zero" 0 absent.Rdf_store.Stats.triples

let () =
  Alcotest.run "rdf_store"
    [
      ( "dictionary",
        [
          Alcotest.test_case "bijection" `Quick test_dictionary_bijection;
          Alcotest.test_case "idempotent encode" `Quick test_dictionary_idempotent_encode;
          Alcotest.test_case "find and bounds" `Quick test_dictionary_find_and_bounds;
        ] );
      ( "index",
        [
          Alcotest.test_case "full range" `Quick test_index_full_range;
          Alcotest.test_case "sorted + prefix ranges" `Quick test_index_sorted_and_prefix;
          Alcotest.test_case "distinct counters" `Quick test_index_distincts;
          Alcotest.test_case "non-prefix rejected" `Quick test_index_bad_prefix;
          QCheck_alcotest.to_alcotest prop_one_sort_same_indexes;
        ] );
      ( "triple_store",
        [
          Alcotest.test_case "dedup" `Quick test_store_dedup;
          Alcotest.test_case "pattern counts" `Quick test_store_pattern_counts;
          Alcotest.test_case "missing term" `Quick test_store_missing_term;
          QCheck_alcotest.to_alcotest prop_store_matches_naive;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "corruption detected" `Quick test_snapshot_corruption;
          Alcotest.test_case "corruption paths each raise Corrupt" `Quick
            test_snapshot_corruption_paths;
          QCheck_alcotest.to_alcotest prop_snapshot_roundtrip;
        ] );
      ( "mvcc",
        [
          Alcotest.test_case "commit visibility" `Quick test_mvcc_visibility;
          Alcotest.test_case "commit fold invariants" `Quick
            test_mvcc_commit_fold;
          Alcotest.test_case "auto-compaction" `Quick test_mvcc_auto_compaction;
          Alcotest.test_case "concurrent readers under a writer" `Quick
            test_mvcc_concurrent_reader_writer;
          Alcotest.test_case "commit cost independent of dictionary size"
            `Quick test_mvcc_commit_cost_independent_of_dictionary;
        ] );
      ( "stats",
        [
          Alcotest.test_case "dataset counts" `Quick test_stats_counts;
          Alcotest.test_case "per-predicate" `Quick test_stats_predicate;
        ] );
    ]
