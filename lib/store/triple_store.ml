type load_stats = {
  triples : int;  (* distinct triples indexed *)
  elapsed_s : float;  (* encode + sort + index build wall time *)
  triples_per_sec : float;
  parallel_tasks : int;  (* runner domains the build fanned out over *)
}

type t = {
  dict : Dictionary.t;
  base : Index_set.t;
  (* Version stamp read by plan/statistics caches: any value observed
     before a rebuild differs from every value observed after it. *)
  epoch : int;
  load : load_stats;
}

(* Epochs are drawn from one process-global counter so they stay
   monotonic across store rebuilds: the store a compaction returns
   carries a strictly larger epoch than the store it replaced. Snapshot
   versions are drawn from the same counter, so a base epoch and a
   snapshot version are comparable stamps. *)
let epoch_counter = Atomic.make 0

let fresh_epoch () = Atomic.fetch_and_add epoch_counter 1

let epoch store = store.epoch

let dictionary store = store.dict

let indexes store = store.base

let size store = Index_set.size store.base

let mem_bytes store = Index_set.mem_bytes store.base

let load_stats store = store.load

let encode_term store term = Dictionary.find store.dict term

(* The one dictionary write evaluation performs: materializing a VALUES
   block interns its constants. Ids are append-only and the dictionary
   is internally synchronized, so this is safe under concurrent readers
   and does NOT invalidate existing plans — only plans that compiled a
   constant to [Missing] care about dictionary growth, and those are
   re-validated against the dictionary size (see {!Session}). *)
let intern_term store term = Dictionary.encode store.dict term

let decode_term store id = Dictionary.decode store.dict id

let index store order = Index_set.index store.base order

let stats_of ~t0 base =
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let triples = Index_set.size base in
  {
    triples;
    elapsed_s;
    triples_per_sec =
      (if elapsed_s > 0. then float_of_int triples /. elapsed_s else 0.);
    parallel_tasks = Bulk.domains ();
  }

let make ~t0 dict base =
  { dict; base; epoch = fresh_epoch (); load = stats_of ~t0 base }

let of_encoded_rows dict rows =
  let t0 = Unix.gettimeofday () in
  make ~t0 dict (Index_set.of_rows rows)

let of_sorted_columns ?mode dict ~s ~p ~o () =
  let t0 = Unix.gettimeofday () in
  make ~t0 dict (Index_set.of_sorted_columns ?mode ~s ~p ~o ())

let iter_all store ~f = Index_set.iter_all store.base ~f

(* The bulk-load entry point: encode the streamed triples into three
   growable id columns (no per-triple boxing beyond the parse itself),
   then hand the columns to the parallel sort/encode pipeline. *)
let of_iter ?mode produce =
  let t0 = Unix.gettimeofday () in
  let dict = Dictionary.create () in
  let cap = ref 1024 in
  let s = ref (Array.make !cap 0)
  and p = ref (Array.make !cap 0)
  and o = ref (Array.make !cap 0) in
  let len = ref 0 in
  let push a b c =
    if !len = !cap then begin
      let cap' = 2 * !cap in
      let grow old =
        let fresh = Array.make cap' 0 in
        Array.blit old 0 fresh 0 !len;
        fresh
      in
      s := grow !s;
      p := grow !p;
      o := grow !o;
      cap := cap'
    end;
    !s.(!len) <- a;
    !p.(!len) <- b;
    !o.(!len) <- c;
    incr len
  in
  produce (fun { Rdf.Triple.s; p; o } ->
      push (Dictionary.encode dict s) (Dictionary.encode dict p)
        (Dictionary.encode dict o));
  make ~t0 dict (Index_set.of_columns ?mode ~len:!len ~s:!s ~p:!p ~o:!o ())

let of_seq triples = of_iter (fun emit -> Seq.iter emit triples)

let of_triples triples = of_iter (fun emit -> List.iter emit triples)

let load_ntriples path = of_triples (Rdf.Ntriples.parse_file path)

let third_column_view store ?s ?p ?o () =
  Index_set.third_column_view store.base ?s ?p ?o ()

let count store ?s ?p ?o () = Index_set.count store.base ?s ?p ?o ()

let iter store ?s ?p ?o ~f () = Index_set.iter store.base ?s ?p ?o ~f ()

let contains store ~s ~p ~o = Index_set.contains store.base ~s ~p ~o

let distinct_subjects store ~p = Index_set.distinct_subjects store.base ~p

let distinct_objects store ~p = Index_set.distinct_objects store.base ~p

let predicates store = Index_set.predicates store.base
