(* Tests for the off-heap column storage: block-boundary unit cases,
   Delta/Raw equivalence properties, and end-to-end equality of index
   views and query results between compressed and uncompressed store
   builds across engines and domain counts. *)

module Column = Rdf_store.Column

let both_modes f =
  f Column.Raw;
  f Column.Delta

let check_roundtrip name arr mode =
  let name = Printf.sprintf "%s [%s]" name (Column.mode_name mode) in
  let c = Column.of_array mode arr in
  Alcotest.(check int) (name ^ " length") (Array.length arr) (Column.length c);
  Alcotest.(check (array int)) (name ^ " to_array") arr (Column.to_array c);
  (* Cold random access. *)
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "%s get %d" name i) v (Column.get c i))
    arr;
  (* Cursor access in a scattered order exercises block-cache reuse and
     invalidation. *)
  let cur = Column.cursor c in
  let n = Array.length arr in
  for k = 0 to (2 * n) - 1 do
    let i = (k * 7) mod n in
    Alcotest.(check int) (Printf.sprintf "%s read %d" name i) arr.(i)
      (Column.read c cur i)
  done;
  (* iter over the full range and a strict sub-range. *)
  let seen = ref [] in
  Column.iter c ~lo:0 ~hi:n ~f:(fun v -> seen := v :: !seen);
  Alcotest.(check (list int)) (name ^ " iter") (Array.to_list arr)
    (List.rev !seen);
  if n > 2 then begin
    let seen = ref [] in
    Column.iter c ~lo:1 ~hi:(n - 1) ~f:(fun v -> seen := v :: !seen);
    Alcotest.(check (list int)) (name ^ " iter sub")
      (Array.to_list (Array.sub arr 1 (n - 2)))
      (List.rev !seen)
  end

let test_empty () = both_modes (check_roundtrip "empty" [||])

let test_single () = both_modes (check_roundtrip "single" [| 42 |])

let test_one_block () =
  (* Exactly [block_size] values: the encoder must not emit a phantom
     trailing block. *)
  let arr = Array.init Column.block_size (fun i -> (i * 3) + 1) in
  both_modes (check_roundtrip "one block" arr)

let test_block_straddle () =
  (* One value past the block boundary. *)
  let arr = Array.init (Column.block_size + 1) (fun i -> i * i) in
  both_modes (check_roundtrip "block+1" arr)

let test_int32_guard () =
  (* Values straddling the int32 limit force the 8-byte raw width; the
     delta path must survive >31-bit deltas in both directions. *)
  let m = 1 lsl 31 in
  let arr = [| 0; m - 2; m - 1; m; m + 5; 1 lsl 45; 7; m + 9 |] in
  both_modes (check_roundtrip "int32 straddle" arr);
  let below = Column.of_array Column.Raw [| m - 1; 0; 17 |] in
  let above = Column.of_array Column.Raw [| m; 0; 17 |] in
  Alcotest.(check bool) "width grows past int32" true
    (Column.mem_bytes above > Column.mem_bytes below)

let test_bitset_block () =
  (* A dense strictly increasing run compresses as a span bitset:
     128 unit-step deltas need 127 varint bytes, the bitset 16. *)
  let arr = Array.init 1024 (fun i -> 100 + i) in
  check_roundtrip "dense increasing" arr Column.Delta;
  let delta = Column.of_array Column.Delta arr in
  let raw = Column.of_array Column.Raw arr in
  Alcotest.(check bool) "bitset beats raw" true
    (Column.mem_bytes delta * 2 < Column.mem_bytes raw)

let test_compression_wins () =
  (* Sorted id-like data (the index columns' shape) must compress well
     below the raw fixed-width layout. *)
  let rng = Workload.Rng.create ~seed:99 in
  let arr = Array.init 50_000 (fun _ -> Workload.Rng.int rng 5_000_000) in
  Array.sort Int.compare arr;
  let delta = Column.of_array Column.Delta arr in
  let raw = Column.of_array Column.Raw arr in
  check_roundtrip "sorted ids" arr Column.Delta;
  Alcotest.(check bool)
    (Printf.sprintf "delta %d B < 60%% of raw %d B" (Column.mem_bytes delta)
       (Column.mem_bytes raw))
    true
    (float_of_int (Column.mem_bytes delta)
    < 0.6 *. float_of_int (Column.mem_bytes raw))

let reference_lower_bound arr ~lo ~hi v =
  let i = ref lo in
  while !i < hi && arr.(!i) < v do incr i done;
  !i

let test_lower_bound () =
  both_modes (fun mode ->
      let rng = Workload.Rng.create ~seed:3 in
      let arr =
        Array.init 700 (fun _ -> Workload.Rng.int rng 10_000)
        |> Array.to_list |> List.sort_uniq Int.compare |> Array.of_list
      in
      let c = Column.of_array mode arr in
      let n = Array.length arr in
      let cur = Column.cursor c in
      for _ = 1 to 500 do
        let v = Workload.Rng.int rng 11_000 in
        let lo = Workload.Rng.int rng n in
        let hi = lo + Workload.Rng.int rng (n - lo + 1) in
        let expect = reference_lower_bound arr ~lo ~hi v in
        Alcotest.(check int)
          (Printf.sprintf "lower_bound %d in [%d,%d) [%s]" v lo hi
             (Column.mode_name mode))
          expect
          (Column.lower_bound c ~cursor:cur ~lo ~hi v)
      done)

let nonneg_list =
  QCheck2.Gen.(list_size (int_range 0 400) (int_range 0 1_000_000))

let prop_modes_equivalent =
  QCheck2.Test.make ~name:"Delta and Raw decode identically" ~count:200
    nonneg_list (fun vs ->
      let arr = Array.of_list vs in
      Column.to_array (Column.of_array Column.Delta arr) = arr
      && Column.to_array (Column.of_array Column.Raw arr) = arr)

let prop_lower_bound_equivalent =
  QCheck2.Test.make ~name:"lower_bound agrees across modes" ~count:200
    QCheck2.Gen.(pair nonneg_list (int_range 0 1_000_000))
    (fun (vs, probe) ->
      let arr = Array.of_list (List.sort_uniq Int.compare vs) in
      let n = Array.length arr in
      let d = Column.of_array Column.Delta arr in
      let r = Column.of_array Column.Raw arr in
      Column.lower_bound d ~lo:0 ~hi:n probe
      = Column.lower_bound r ~lo:0 ~hi:n probe
      && Column.lower_bound d ~lo:0 ~hi:n probe
        = reference_lower_bound arr ~lo:0 ~hi:n probe)

(* --- compressed vs uncompressed stores ------------------------------- *)

let triple s p o =
  Rdf.Triple.make
    (Rdf.Term.iri (Printf.sprintf "http://x/s%d" s))
    (Rdf.Term.iri (Printf.sprintf "http://x/p%d" p))
    (Rdf.Term.iri (Printf.sprintf "http://x/o%d" o))

let store_of_triples mode triples =
  Rdf_store.Triple_store.of_iter ~mode (fun emit -> List.iter emit triples)

let view_list v =
  List.init (Rdf_store.Index.view_length v) (Rdf_store.Index.view_get v)

(* Every third-column view — each (s,p), (s,o) and (p,o) pair of each
   dataset triple — must decode to the same value list from a compressed
   build as from an uncompressed one, and all pattern counts must agree. *)
let prop_store_views_equivalent =
  QCheck2.Test.make ~name:"store views identical across compression modes"
    ~count:30
    QCheck2.Gen.(
      list_size (int_range 0 60)
        (map3 (fun s p o -> (s, p, o)) (int_range 0 6) (int_range 0 3)
           (int_range 0 8)))
    (fun rows ->
      let triples = List.map (fun (s, p, o) -> triple s p o) rows in
      let raw = store_of_triples Column.Raw triples in
      let delta = store_of_triples Column.Delta triples in
      let sr = Rdf_store.Snapshot.of_store raw in
      let sd = Rdf_store.Snapshot.of_store delta in
      let ids st t =
        ( Rdf_store.Snapshot.encode_term st t.Rdf.Triple.s,
          Rdf_store.Snapshot.encode_term st t.Rdf.Triple.p,
          Rdf_store.Snapshot.encode_term st t.Rdf.Triple.o )
      in
      Rdf_store.Triple_store.size raw = Rdf_store.Triple_store.size delta
      && List.for_all
           (fun t ->
             match (ids sr t, ids sd t) with
             | (Some s1, Some p1, Some o1), (Some s2, Some p2, Some o2) ->
                 let vr = Rdf_store.Snapshot.third_column_view sr in
                 let vd = Rdf_store.Snapshot.third_column_view sd in
                 view_list (vr ~s:s1 ~p:p1 ()) = view_list (vd ~s:s2 ~p:p2 ())
                 && view_list (vr ~s:s1 ~o:o1 ())
                    = view_list (vd ~s:s2 ~o:o2 ())
                 && view_list (vr ~p:p1 ~o:o1 ())
                    = view_list (vd ~p:p2 ~o:o2 ())
                 && Rdf_store.Snapshot.count sr ~s:s1 ()
                    = Rdf_store.Snapshot.count sd ~s:s2 ()
                 && Rdf_store.Snapshot.count sr ~p:p1 ~o:o1 ()
                    = Rdf_store.Snapshot.count sd ~p:p2 ~o:o2 ()
             | _ -> false)
           triples)

(* The full query path: both engines at 1 and 4 domains must return the
   same bags from a compressed store as from an uncompressed one, on the
   complete LUBM benchmark workload. *)
let test_query_bags_across_modes () =
  let triples = Workload.Lubm.generate Workload.Lubm.tiny in
  let raw = store_of_triples Column.Raw triples in
  let delta = store_of_triples Column.Delta triples in
  List.iter
    (fun (entry : Workload.Queries.entry) ->
      List.iter
        (fun engine ->
          List.iter
            (fun domains ->
              let solutions store =
                let report =
                  Sparql_uo.Executor.run ~engine ~domains store entry.text
                in
                List.sort compare (Sparql_uo.Executor.solutions store report)
              in
              let label =
                Printf.sprintf "%s %s x%d" entry.id
                  (Engine.Bgp_eval.engine_name engine)
                  domains
              in
              Alcotest.(check bool) label true
                (solutions raw = solutions delta))
            [ 1; 4 ])
        [ Engine.Bgp_eval.Wco; Engine.Bgp_eval.Hash_join ])
    (Workload.Queries.all Workload.Queries.Lubm)

(* A snapshot file written from a Raw-column build loads (into the
   default Delta build) with the same triples: the file format carries
   triples, not column modes. *)
let test_raw_snapshot_loads () =
  let triples = Workload.Lubm.generate Workload.Lubm.tiny in
  let raw = store_of_triples Column.Raw triples in
  let path = Filename.temp_file "raw_snapshot" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Rdf_store.Snapshot.save raw path;
      let loaded = Rdf_store.Snapshot.load path in
      let decoded store =
        let acc = ref [] in
        Rdf_store.Triple_store.iter_all store ~f:(fun ~s ~p ~o ->
            let term = Rdf_store.Triple_store.decode_term store in
            acc := (term s, term p, term o) :: !acc);
        List.sort compare !acc
      in
      Alcotest.(check bool) "same triples" true (decoded raw = decoded loaded))

let () =
  Alcotest.run "column"
    [
      ( "blocks",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "single element" `Quick test_single;
          Alcotest.test_case "exactly one block" `Quick test_one_block;
          Alcotest.test_case "block boundary straddle" `Quick test_block_straddle;
          Alcotest.test_case "int32 width guard" `Quick test_int32_guard;
          Alcotest.test_case "bitset blocks" `Quick test_bitset_block;
          Alcotest.test_case "compression ratio" `Quick test_compression_wins;
          Alcotest.test_case "lower_bound windows" `Quick test_lower_bound;
          QCheck_alcotest.to_alcotest prop_modes_equivalent;
          QCheck_alcotest.to_alcotest prop_lower_bound_equivalent;
        ] );
      ( "stores",
        [
          QCheck_alcotest.to_alcotest prop_store_views_equivalent;
          Alcotest.test_case "query bags mode x engine x domains" `Quick
            test_query_bags_across_modes;
          Alcotest.test_case "Raw-build snapshot loads" `Quick
            test_raw_snapshot_loads;
        ] );
    ]
