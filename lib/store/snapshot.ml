(* A snapshot is the readers' whole world: an immutable base store plus
   one frozen delta generation, bundled with a version stamp. Acquiring
   one is O(1) (an atomic load in {!Mvcc}); once held, nothing about it
   ever changes — commits and compactions publish *new* snapshots.

   Reads are expressed as base/delta arithmetic, leaning on the delta
   invariants (adds ∩ base = ∅, dels ⊆ base, adds ∩ dels = ∅):

     count   = base − dels + adds
     member  = (base ∧ ¬del) ∨ add
     iterate = base \ dels, then adds
     column  = merge(base \ dels, adds)   (strictly increasing)

   The empty-delta case — the common one for read-mostly serving, and
   the only one after a compaction — short-circuits to the plain base
   path everywhere, so a quiescent store pays nothing for MVCC.

   This module also owns the checksummed binary persistence format
   (save/load), unchanged from before the MVCC refactor: a saved file
   always describes a full base (save a compacted store). *)

type t = {
  base : Triple_store.t;
  delta : Delta.t;
  version : int;
}

let of_store store =
  { base = store; delta = Delta.empty; version = Triple_store.epoch store }

let make ~base ~delta ~version = { base; delta; version }

let base t = t.base
let delta t = t.delta
let version t = t.version
let base_epoch t = Triple_store.epoch t.base

let dictionary t = Triple_store.dictionary t.base
let dict_size t = Dictionary.size (Triple_store.dictionary t.base)

let encode_term t term = Triple_store.encode_term t.base term
let decode_term t id = Triple_store.decode_term t.base id
let intern_term t term = Triple_store.intern_term t.base term

let size t =
  Triple_store.size t.base
  + Index_set.size (Delta.adds t.delta)
  - Index_set.size (Delta.dels t.delta)

let count t ?s ?p ?o () =
  let base = Triple_store.count t.base ?s ?p ?o () in
  if Delta.is_empty t.delta then base
  else
    base
    + Index_set.count (Delta.adds t.delta) ?s ?p ?o ()
    - Index_set.count (Delta.dels t.delta) ?s ?p ?o ()

let contains t ~s ~p ~o =
  if Delta.is_empty t.delta then Triple_store.contains t.base ~s ~p ~o
  else
    Index_set.contains (Delta.adds t.delta) ~s ~p ~o
    || (Triple_store.contains t.base ~s ~p ~o
        && not (Index_set.contains (Delta.dels t.delta) ~s ~p ~o))

let iter t ?s ?p ?o ~f () =
  if Delta.is_empty t.delta then Triple_store.iter t.base ?s ?p ?o ~f ()
  else begin
    let dels = Delta.dels t.delta in
    (* One range count decides whether any deletion can hit this
       pattern; only then does each base row pay a membership probe. *)
    if Index_set.is_empty dels || Index_set.count dels ?s ?p ?o () = 0 then
      Triple_store.iter t.base ?s ?p ?o ~f ()
    else
      Triple_store.iter t.base ?s ?p ?o
        ~f:(fun ~s ~p ~o ->
          if not (Index_set.contains dels ~s ~p ~o) then f ~s ~p ~o)
        ();
    Index_set.iter (Delta.adds t.delta) ?s ?p ?o ~f ()
  end

let iter_all t ~f = iter t ~f ()

(* The rows [iter] would visit at positions 0, stride, 2·stride, …, read
   by position instead of by scan. The visible stream is the base range
   minus its deleted rows, then the adds range. Deletions lie inside
   the base range (dels ⊆ base) and are sorted in the same order, so
   the walk over them locates each deleted base position (a rank lookup)
   only when a sampled position reaches it: the cost is O(#samples +
   #deletions passed) lookups, not O(range). *)
let iter_strided t ?s ?p ?o ~stride ~f () =
  if stride < 1 then invalid_arg "Snapshot.iter_strided: stride < 1";
  let idx, lo, hi =
    Index_set.pattern_range (Triple_store.indexes t.base) ?s ?p ?o ()
  in
  let didx, dlo, dhi = Index_set.pattern_range (Delta.dels t.delta) ?s ?p ?o () in
  let aidx, alo, ahi = Index_set.pattern_range (Delta.adds t.delta) ?s ?p ?o () in
  let nbase = hi - lo - (dhi - dlo) in
  let total = nbase + (ahi - alo) in
  let cur = Index.cursor idx in
  let dcur = lazy (Index.cursor didx) and acur = lazy (Index.cursor aidx) in
  (* [next_del] is the first deletion not yet skipped; [del_pos] its base
     position once located (-1 before). *)
  let next_del = ref dlo and del_pos = ref (-1) in
  let rec visit v =
    if v < total then begin
      let s, p, o =
        if v < nbase then begin
          let pos = ref (lo + v + (!next_del - dlo)) in
          let continue = ref true in
          while !continue && !next_del < dhi do
            if !del_pos < 0 then begin
              let s, p, o = Index.row didx (Lazy.force dcur) !next_del in
              del_pos := Index.rank idx ~s ~p ~o
            end;
            if !del_pos <= !pos then begin
              incr next_del;
              del_pos := -1;
              incr pos
            end
            else continue := false
          done;
          Index.row idx cur !pos
        end
        else Index.row aidx (Lazy.force acur) (alo + v - nbase)
      in
      if f ~s ~p ~o then visit (v + stride)
    end
  in
  visit 0

(* The multiway intersection kernel wants a strictly increasing third
   column for a (key1, key2) prefix. When the delta is silent for this
   prefix the base view passes through untouched (zero copy); otherwise
   merge base \ dels with adds into a materialized array. *)
let third_column_view t ?s ?p ?o () =
  if Delta.is_empty t.delta then
    Triple_store.third_column_view t.base ?s ?p ?o ()
  else begin
    let bv = Triple_store.third_column_view t.base ?s ?p ?o () in
    let av = Index_set.third_column_view (Delta.adds t.delta) ?s ?p ?o () in
    let dv = Index_set.third_column_view (Delta.dels t.delta) ?s ?p ?o () in
    let na = Index.view_length av and nd = Index.view_length dv in
    if na = 0 && nd = 0 then bv
    else begin
      let nb = Index.view_length bv in
      let out = Array.make (nb + na) 0 in
      let k = ref 0 and i = ref 0 and j = ref 0 and d = ref 0 in
      let deleted v =
        while !d < nd && Index.view_get dv !d < v do
          incr d
        done;
        !d < nd && Index.view_get dv !d = v
      in
      while !i < nb || !j < na do
        let bval = if !i < nb then Index.view_get bv !i else max_int in
        let aval = if !j < na then Index.view_get av !j else max_int in
        if bval < aval then begin
          if not (deleted bval) then begin
            out.(!k) <- bval;
            incr k
          end;
          incr i
        end
        else if aval < bval then begin
          out.(!k) <- aval;
          incr k;
          incr j
        end
        else begin
          (* adds ∩ base = ∅ makes this unreachable for one snapshot;
             emit once to stay strictly increasing regardless. *)
          if not (deleted bval) then begin
            out.(!k) <- bval;
            incr k
          end;
          incr i;
          incr j
        end
      done;
      Index.view_of_sorted_array (Array.sub out 0 !k)
    end
  end

(* Exact predicate -> triple count for the whole view (base adjusted by
   delta); feeds {!Stats.of_snapshot}. *)
let predicates t =
  if Delta.is_empty t.delta then Triple_store.predicates t.base
  else begin
    let counts = Hashtbl.create 64 in
    let bump w (p, n) =
      Hashtbl.replace counts p (Option.value (Hashtbl.find_opt counts p) ~default:0 + (w * n))
    in
    List.iter (bump 1) (Triple_store.predicates t.base);
    List.iter (bump 1) (Index_set.predicates (Delta.adds t.delta));
    List.iter (bump (-1)) (Index_set.predicates (Delta.dels t.delta));
    Hashtbl.fold (fun p n acc -> if n > 0 then (p, n) :: acc else acc) counts []
    |> List.sort compare
  end

(* --- persistence ------------------------------------------------------- *)

exception Corrupt of string

let magic = "SPUO"

(* Version 2: the triple section is block-compressed. Triples (strictly
   increasing in SPO lexicographic order) are split into blocks of
   [triples_per_block]; an up-front skip index holds each block's first
   triple uncompressed plus its payload byte length, and each payload
   encodes the remaining triples as an unsigned-varint subject delta and
   zigzag-varint predicate/object deltas. The loader validates shape
   (block count, skip samples, payload lengths and exact consumption,
   id ranges, strict ordering) before the checksum, and rebuilds the
   store through the sort-free trusted-columns path. *)
let version_tag = 2

let triples_per_block = 4096

(* Worst case ~10 bytes per varint, three per triple. *)
let max_block_payload = 30 * triples_per_block

(* A cheap rolling additive digest, enough to catch truncation and bit
   rot (this is an integrity check, not an authenticity one). *)
module Digest_acc = struct
  type t = { mutable value : int }

  let create () = { value = 0x1505 }

  let add_int acc n =
    acc.value <- ((acc.value * 33) + n) land 0x3FFFFFFF

  let add_string acc s =
    String.iter (fun c -> add_int acc (Char.code c)) s

  let value acc = acc.value
end

(* --- writing ----------------------------------------------------------- *)

let write_int oc digest n =
  if n < 0 then raise (Corrupt "negative integer during save");
  output_binary_int oc n;
  Digest_acc.add_int digest n

let write_string oc digest s =
  write_int oc digest (String.length s);
  output_string oc s;
  Digest_acc.add_string digest s

let term_tag = function
  | Rdf.Term.Iri _ -> 0
  | Rdf.Term.Bnode _ -> 1
  | Rdf.Term.Literal { kind = Rdf.Term.Plain; _ } -> 2
  | Rdf.Term.Literal { kind = Rdf.Term.Lang _; _ } -> 3
  | Rdf.Term.Literal { kind = Rdf.Term.Typed _; _ } -> 4

let write_term oc digest term =
  write_int oc digest (term_tag term);
  match term with
  | Rdf.Term.Iri s | Rdf.Term.Bnode s -> write_string oc digest s
  | Rdf.Term.Literal { value; kind = Rdf.Term.Plain } ->
      write_string oc digest value
  | Rdf.Term.Literal { value; kind = Rdf.Term.Lang lang } ->
      write_string oc digest value;
      write_string oc digest lang
  | Rdf.Term.Literal { value; kind = Rdf.Term.Typed dt } ->
      write_string oc digest value;
      write_string oc digest dt

(* zigzag keeps small negative deltas small; varints are 7-bit LE. *)
let zig n = (n lsl 1) lxor (n asr 62)
let unzig u = (u lsr 1) lxor (- (u land 1))

let buffer_varint buf u =
  let u = ref u in
  while !u >= 0x80 do
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!u land 0x7f)));
    u := !u lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !u)

(* Crash-atomic: the bytes go to [path ^ ".tmp"], are fsynced, and only
   then renamed over [path] — a kill at any instant leaves either the
   old file intact or the new one complete, never a torn blend. The
   term count is captured once up front and the (append-only, possibly
   concurrently growing) dictionary iteration is capped at it, so a
   VALUES intern racing the save cannot make the file declare fewer
   terms than it writes. [dict_terms] lets the WAL checkpoint pin the
   exact count its log accounting continues from. *)
let save ?dict_terms store path =
  let dict = Triple_store.dictionary store in
  let nterms =
    match dict_terms with Some n -> n | None -> Dictionary.size dict
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  let committed = ref false in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      if not !committed then try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let digest = Digest_acc.create () in
      output_string oc magic;
      output_binary_int oc version_tag;
      write_int oc digest nterms;
      Dictionary.iter dict ~f:(fun id term ->
          if id < nterms then write_term oc digest term);
      Failpoint.hit "snapshot.save";
      let ntriples = Triple_store.size store in
      write_int oc digest ntriples;
      let nblocks = (ntriples + triples_per_block - 1) / triples_per_block in
      write_int oc digest nblocks;
      (* Encode payloads block by block (samples + lengths must precede
         them on disk, so blocks buffer in memory — a few bytes per
         triple). *)
      let samples = Array.make nblocks (0, 0, 0) in
      let payloads = Array.make nblocks "" in
      let buf = Buffer.create 4096 in
      let blk = ref (-1) in
      let fill = ref 0 in
      let prev_s = ref 0 and prev_p = ref 0 and prev_o = ref 0 in
      let flush () =
        if !blk >= 0 then payloads.(!blk) <- Buffer.contents buf;
        Buffer.clear buf
      in
      Triple_store.iter_all store ~f:(fun ~s ~p ~o ->
          if !fill mod triples_per_block = 0 then begin
            flush ();
            incr blk;
            samples.(!blk) <- (s, p, o)
          end
          else begin
            buffer_varint buf (s - !prev_s);
            buffer_varint buf (zig (p - !prev_p));
            buffer_varint buf (zig (o - !prev_o))
          end;
          prev_s := s;
          prev_p := p;
          prev_o := o;
          incr fill);
      flush ();
      Array.iteri
        (fun b (s, p, o) ->
          write_int oc digest s;
          write_int oc digest p;
          write_int oc digest o;
          write_int oc digest (String.length payloads.(b)))
        samples;
      Array.iter
        (fun payload ->
          output_string oc payload;
          Digest_acc.add_string digest payload)
        payloads;
      output_binary_int oc (Digest_acc.value digest);
      Stdlib.flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc);
      close_out oc;
      Failpoint.hit "snapshot.rename";
      Sys.rename tmp path;
      committed := true;
      (* Make the rename itself durable (best-effort where directory
         fsync is unsupported). *)
      match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
      | fd ->
          (try Unix.fsync fd with Unix.Unix_error _ -> ());
          Unix.close fd
      | exception Unix.Unix_error _ -> ())

(* --- reading ----------------------------------------------------------- *)

let read_int ic digest =
  match input_binary_int ic with
  | n ->
      Digest_acc.add_int digest n;
      n
  | exception End_of_file -> raise (Corrupt "truncated file")

let read_string ic digest =
  let n = read_int ic digest in
  if n < 0 || n > 100_000_000 then raise (Corrupt "implausible string length");
  match really_input_string ic n with
  | s ->
      Digest_acc.add_string digest s;
      s
  | exception End_of_file -> raise (Corrupt "truncated string")

let read_term ic digest =
  match read_int ic digest with
  | 0 -> Rdf.Term.iri (read_string ic digest)
  | 1 -> Rdf.Term.bnode (read_string ic digest)
  | 2 -> Rdf.Term.literal (read_string ic digest)
  | 3 ->
      let value = read_string ic digest in
      Rdf.Term.lang_literal value ~lang:(read_string ic digest)
  | 4 ->
      let value = read_string ic digest in
      Rdf.Term.typed_literal value ~datatype:(read_string ic digest)
  | tag -> raise (Corrupt (Printf.sprintf "unknown term tag %d" tag))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let file_magic =
        try really_input_string ic 4
        with End_of_file -> raise (Corrupt "missing magic")
      in
      if file_magic <> magic then raise (Corrupt "bad magic");
      let file_version =
        try input_binary_int ic with End_of_file -> raise (Corrupt "no version")
      in
      if file_version <> version_tag then
        raise (Corrupt (Printf.sprintf "unsupported version %d" file_version));
      let digest = Digest_acc.create () in
      let nterms = read_int ic digest in
      if nterms < 0 then raise (Corrupt "negative term count");
      let dict = Dictionary.create ~initial_capacity:(max 16 nterms) () in
      for expected = 0 to nterms - 1 do
        let id = Dictionary.encode dict (read_term ic digest) in
        if id <> expected then raise (Corrupt "duplicate term in dictionary")
      done;
      let ntriples = read_int ic digest in
      if ntriples < 0 then raise (Corrupt "negative triple count");
      let nblocks = read_int ic digest in
      if nblocks <> (ntriples + triples_per_block - 1) / triples_per_block
      then raise (Corrupt "block count mismatch");
      let check_id id =
        if id < 0 || id >= nterms then
          raise (Corrupt "triple id out of dictionary range")
      in
      let skip =
        Array.init nblocks (fun _ ->
            let entry =
              try
                let s = read_int ic digest in
                let p = read_int ic digest in
                let o = read_int ic digest in
                let paylen = read_int ic digest in
                (s, p, o, paylen)
              with Corrupt "truncated file" ->
                raise (Corrupt "truncated skip index")
            in
            let s, p, o, paylen = entry in
            check_id s;
            check_id p;
            check_id o;
            if paylen < 0 || paylen > max_block_payload then
              raise (Corrupt "implausible block length");
            entry)
      in
      let cs = Array.make ntriples 0
      and cp = Array.make ntriples 0
      and co = Array.make ntriples 0 in
      let prev_s = ref (-1) and prev_p = ref (-1) and prev_o = ref (-1) in
      let emit i s p o =
        check_id s;
        check_id p;
        check_id o;
        if
          s < !prev_s
          || (s = !prev_s
              && (p < !prev_p || (p = !prev_p && o <= !prev_o)))
        then raise (Corrupt "unsorted or duplicate triple");
        prev_s := s;
        prev_p := p;
        prev_o := o;
        cs.(i) <- s;
        cp.(i) <- p;
        co.(i) <- o
      in
      Array.iteri
        (fun b (s0, p0, o0, paylen) ->
          let payload =
            try really_input_string ic paylen
            with End_of_file -> raise (Corrupt "truncated block payload")
          in
          Digest_acc.add_string digest payload;
          let base = b * triples_per_block in
          let k = min triples_per_block (ntriples - base) in
          emit base s0 p0 o0;
          let pos = ref 0 in
          let read_varint () =
            let u = ref 0 and shift = ref 0 in
            let continue = ref true in
            while !continue do
              if !pos >= paylen || !shift > 63 then
                raise (Corrupt "block payload overrun");
              let byte = Char.code (String.unsafe_get payload !pos) in
              incr pos;
              u := !u lor ((byte land 0x7f) lsl !shift);
              shift := !shift + 7;
              continue := byte land 0x80 <> 0
            done;
            !u
          in
          for i = 1 to k - 1 do
            let s = !prev_s + read_varint () in
            let p = !prev_p + unzig (read_varint ()) in
            let o = !prev_o + unzig (read_varint ()) in
            emit (base + i) s p o
          done;
          if !pos <> paylen then
            raise (Corrupt "block payload length mismatch"))
        skip;
      let stored_checksum =
        try input_binary_int ic
        with End_of_file -> raise (Corrupt "missing checksum")
      in
      if stored_checksum <> Digest_acc.value digest then
        raise (Corrupt "checksum mismatch");
      Triple_store.of_sorted_columns dict ~s:cs ~p:cp ~o:co ())
