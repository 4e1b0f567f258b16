(* Off-heap integer columns: the physical storage behind every
   permutation index. Values live in one [char] Bigarray outside the
   OCaml heap — the GC never scans index data, and reads assemble ints
   from unboxed byte loads (int32/int64 Bigarray kinds would box every
   element read; bytes do not).

   Two representations, chosen per column at build time:

   - [Raw]: fixed-width little-endian integers, 4 bytes when every value
     fits in 31 bits and 8 otherwise. O(1) random access; used for the
     small offset/grouping columns that back every lookup, and for whole
     indexes built with an explicit [Raw] mode (tests, the scale bench,
     older snapshot files).
   - [Delta]: values split into blocks of 128. The first value of each
     block is kept uncompressed in a fixed-width sample array (the skip
     index); the rest of the block is encoded adaptively:
       tag 0  zigzag-varint deltas from the predecessor (works for any
              value sequence — per-group columns reset between groups,
              so deltas can be negative);
       tag 1  a bitset over the block's span (only for strictly
              increasing blocks, chosen when the bitmap is smaller than
              the varints — the dense-range case, mirroring the
              Candidates dense/sparse split).
     Point reads decode one block into a 128-int scratch; sequential
     readers carry a [cursor] so each block decodes once. Searches over
     sorted ranges gallop on the samples and decode only the one
     candidate block. *)

type bytes_ba =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type mode = Raw | Delta

let mode_name = function Raw -> "none" | Delta -> "delta"

let block_size = 128
let block_shift = 7
let block_mask = block_size - 1

(* --- fixed-width storage ----------------------------------------------- *)

type fixed = { data : bytes_ba; width : int }

let empty_ba : bytes_ba = Bigarray.Array1.create Bigarray.char Bigarray.c_layout 0

let empty_fixed = { data = empty_ba; width = 4 }

let byte ba i = Char.code (Bigarray.Array1.unsafe_get ba i)

(* Values are nonnegative by construction (dictionary ids, offsets), so
   4-byte cells need no sign extension and 8-byte cells never set bit 63. *)
let fget f i =
  let base = i * f.width in
  let d = f.data in
  if f.width = 4 then
    byte d base
    lor (byte d (base + 1) lsl 8)
    lor (byte d (base + 2) lsl 16)
    lor (byte d (base + 3) lsl 24)
  else
    byte d base
    lor (byte d (base + 1) lsl 8)
    lor (byte d (base + 2) lsl 16)
    lor (byte d (base + 3) lsl 24)
    lor (byte d (base + 4) lsl 32)
    lor (byte d (base + 5) lsl 40)
    lor (byte d (base + 6) lsl 48)
    lor (byte d (base + 7) lsl 56)

let fset f i v =
  let base = i * f.width in
  let d = f.data in
  Bigarray.Array1.unsafe_set d base (Char.unsafe_chr (v land 0xff));
  Bigarray.Array1.unsafe_set d (base + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bigarray.Array1.unsafe_set d (base + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bigarray.Array1.unsafe_set d (base + 3) (Char.unsafe_chr ((v lsr 24) land 0xff));
  if f.width = 8 then begin
    Bigarray.Array1.unsafe_set d (base + 4) (Char.unsafe_chr ((v lsr 32) land 0xff));
    Bigarray.Array1.unsafe_set d (base + 5) (Char.unsafe_chr ((v lsr 40) land 0xff));
    Bigarray.Array1.unsafe_set d (base + 6) (Char.unsafe_chr ((v lsr 48) land 0xff));
    Bigarray.Array1.unsafe_set d (base + 7) (Char.unsafe_chr ((v lsr 56) land 0xff))
  end

(* The int32 guard: values at or above 2^31 take 8-byte cells. *)
let width_for max_value = if max_value < 1 lsl 31 then 4 else 8

let fixed_of_values n get =
  if n = 0 then empty_fixed
  else begin
    let maxv = ref 0 in
    for i = 0 to n - 1 do
      let v = get i in
      if v > !maxv then maxv := v
    done;
    let width = width_for !maxv in
    let data =
      Bigarray.Array1.create Bigarray.char Bigarray.c_layout (n * width)
    in
    let f = { data; width } in
    for i = 0 to n - 1 do
      fset f i (get i)
    done;
    f
  end

(* --- growable off-heap byte buffer ------------------------------------- *)

module Bb = struct
  type t = { mutable data : bytes_ba; mutable len : int }

  let create capacity =
    {
      data = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (max 64 capacity);
      len = 0;
    }

  let ensure b extra =
    let cap = Bigarray.Array1.dim b.data in
    if b.len + extra > cap then begin
      let cap' = max (b.len + extra) (2 * cap) in
      let data' = Bigarray.Array1.create Bigarray.char Bigarray.c_layout cap' in
      Bigarray.Array1.blit
        (Bigarray.Array1.sub b.data 0 b.len)
        (Bigarray.Array1.sub data' 0 b.len);
      b.data <- data'
    end

  let add_byte b c =
    ensure b 1;
    Bigarray.Array1.unsafe_set b.data b.len (Char.unsafe_chr c);
    b.len <- b.len + 1

  (* Shrink to exact size so a built column holds no slack. *)
  let contents b : bytes_ba =
    let out = Bigarray.Array1.create Bigarray.char Bigarray.c_layout b.len in
    Bigarray.Array1.blit (Bigarray.Array1.sub b.data 0 b.len) out;
    out
end

(* --- packed (block-compressed) storage --------------------------------- *)

type packed = {
  blocks : bytes_ba;  (* tag byte + payload per block, concatenated *)
  samples : fixed;  (* first value of each block, uncompressed *)
  offsets : fixed;  (* nblocks+1 byte offsets into [blocks] *)
}

type repr = Raw_r of fixed | Packed_r of packed

type t = { repr : repr; len : int }

let length t = t.len

let mem_bytes t =
  match t.repr with
  | Raw_r f -> Bigarray.Array1.dim f.data
  | Packed_r p ->
      Bigarray.Array1.dim p.blocks
      + Bigarray.Array1.dim p.samples.data
      + Bigarray.Array1.dim p.offsets.data

let mode t = match t.repr with Raw_r _ -> Raw | Packed_r _ -> Delta

(* zigzag maps signed deltas onto unsigned varint space *)
let zig n = (n lsl 1) lxor (n asr 62)
let unzig u = (u lsr 1) lxor (- (u land 1))

let add_varint bb u =
  let u = ref u in
  while !u >= 0x80 do
    Bb.add_byte bb (0x80 lor (!u land 0x7f));
    u := !u lsr 7
  done;
  Bb.add_byte bb !u

let varint_size u =
  let u = ref u and n = ref 1 in
  while !u >= 0x80 do
    incr n;
    u := !u lsr 7
  done;
  !n

(* Encode values[0..k-1] (k >= 1) as one block appended to [bb]. The
   first value is NOT in the payload — it lives in the sample array. *)
let encode_block bb values k =
  let v0 = values.(0) in
  (* Varint cost of the delta chain, and whether a bitset is possible. *)
  let vsize = ref 0 in
  let increasing = ref true in
  for i = 1 to k - 1 do
    let d = values.(i) - values.(i - 1) in
    if d <= 0 then increasing := false;
    vsize := !vsize + varint_size (zig d)
  done;
  let span = values.(k - 1) - v0 in
  let bitset_bytes = if !increasing && k > 1 then (span + 7) lsr 3 else max_int in
  if bitset_bytes < !vsize then begin
    Bb.add_byte bb 1;
    (* bit (v - v0 - 1) set for each value after the first *)
    let bytes = Bytes.make bitset_bytes '\000' in
    for i = 1 to k - 1 do
      let bit = values.(i) - v0 - 1 in
      Bytes.unsafe_set bytes (bit lsr 3)
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get bytes (bit lsr 3))
           lor (1 lsl (bit land 7))))
    done;
    for i = 0 to bitset_bytes - 1 do
      Bb.add_byte bb (Char.code (Bytes.unsafe_get bytes i))
    done
  end
  else begin
    Bb.add_byte bb 0;
    for i = 1 to k - 1 do
      add_varint bb (zig (values.(i) - values.(i - 1)))
    done
  end

(* Decode block [b] into [scratch]; returns the value count. *)
let decode_block p ~len b scratch =
  let base = fget p.offsets b in
  let limit = fget p.offsets (b + 1) in
  let k = min block_size (len - (b lsl block_shift)) in
  let v0 = fget p.samples b in
  scratch.(0) <- v0;
  (match byte p.blocks base with
  | 1 ->
      let filled = ref 1 in
      let pos = ref (base + 1) in
      let v = ref v0 in
      while !filled < k do
        let b8 = byte p.blocks !pos in
        if b8 <> 0 then
          for bit = 0 to 7 do
            if b8 land (1 lsl bit) <> 0 then begin
              scratch.(!filled) <- !v + ((!pos - base - 1) lsl 3) + bit + 1;
              incr filled
            end
          done;
        incr pos
      done
  | _ ->
      let pos = ref (base + 1) in
      let prev = ref v0 in
      for i = 1 to k - 1 do
        let u = ref 0 and shift = ref 0 in
        let continue = ref true in
        while !continue do
          let b8 = byte p.blocks !pos in
          incr pos;
          u := !u lor ((b8 land 0x7f) lsl !shift);
          shift := !shift + 7;
          continue := b8 land 0x80 <> 0
        done;
        prev := !prev + unzig !u;
        scratch.(i) <- !prev
      done;
      ignore limit);
  k

(* --- cursors ------------------------------------------------------------ *)

type cursor = { mutable blk : int; scratch : int array }

let cursor _t = { blk = -1; scratch = Array.make block_size 0 }

let load_block t p cur b =
  if cur.blk <> b then begin
    ignore (decode_block p ~len:t.len b cur.scratch);
    cur.blk <- b
  end

let read t cur i =
  match t.repr with
  | Raw_r f -> fget f i
  | Packed_r p ->
      let b = i lsr block_shift in
      load_block t p cur b;
      Array.unsafe_get cur.scratch (i land block_mask)

(* Cold random access: samples answer block-aligned reads for free;
   anything else decodes a throwaway block. Hot paths use cursors. *)
let get t i =
  match t.repr with
  | Raw_r f -> fget f i
  | Packed_r p ->
      if i land block_mask = 0 then fget p.samples (i lsr block_shift)
      else begin
        let scratch = Array.make block_size 0 in
        ignore (decode_block p ~len:t.len (i lsr block_shift) scratch);
        scratch.(i land block_mask)
      end

let iter t ~lo ~hi ~f =
  if hi > lo then
    match t.repr with
    | Raw_r fx -> for i = lo to hi - 1 do f (fget fx i) done
    | Packed_r p ->
        let scratch = Array.make block_size 0 in
        let b = ref (lo lsr block_shift) in
        let last_b = (hi - 1) lsr block_shift in
        while !b <= last_b do
          let k = decode_block p ~len:t.len !b scratch in
          let start = max lo (!b lsl block_shift) - (!b lsl block_shift) in
          let stop = min k (hi - (!b lsl block_shift)) in
          for i = start to stop - 1 do
            f (Array.unsafe_get scratch i)
          done;
          incr b
        done

(* First index in [lo, hi) whose value is >= v, assuming values are
   increasing over that range; [hi] when none is. For packed columns the
   search runs over the uncompressed block samples and decodes exactly
   one candidate block. *)
let lower_bound t ?cursor ~lo ~hi v =
  if lo >= hi then hi
  else
    match t.repr with
    | Raw_r f ->
        let l = ref lo and h = ref hi in
        while !l < !h do
          let mid = (!l + !h) / 2 in
          if fget f mid < v then l := mid + 1 else h := mid
        done;
        !l
    | Packed_r p ->
        let b_lo = lo lsr block_shift and b_hi = (hi - 1) lsr block_shift in
        (* Samples of blocks (b_lo, b_hi] sit at in-range positions and
           are increasing: binary search the first with sample >= v. *)
        let l = ref (b_lo + 1) and h = ref (b_hi + 1) in
        while !l < !h do
          let mid = (!l + !h) / 2 in
          if fget p.samples mid < v then l := mid + 1 else h := mid
        done;
        let bf = !l in
        (* The answer, if below bf's sample position, is inside block
           bf - 1: decode it and binary search the clamped window. *)
        let bc = bf - 1 in
        let cur =
          match cursor with
          | Some c -> c
          | None -> { blk = -1; scratch = Array.make block_size 0 }
        in
        load_block t p cur bc;
        let base = bc lsl block_shift in
        let wl = ref (max lo base - base)
        and wh = ref (min hi (base + block_size) - base) in
        let found_hi = !wh in
        while !wl < !wh do
          let mid = (!wl + !wh) / 2 in
          if Array.unsafe_get cur.scratch mid < v then wl := mid + 1
          else wh := mid
        done;
        if !wl < found_hi then base + !wl
        else if bf lsl block_shift < hi then bf lsl block_shift
        else hi

(* --- builders ----------------------------------------------------------- *)

module Builder = struct
  type col = t

  type t = {
    (* Raw: values spill straight into an 8-byte-wide growable buffer,
       compacted to 4 bytes at finish when they all fit. *)
    raw : Bb.t option;
    (* Delta: a 128-value staging block plus growable compressed bytes,
       samples and offsets. *)
    block : int array;
    mutable fill : int;
    bb : Bb.t;
    mutable samples : int array;
    mutable offsets : int array;
    mutable nblocks : int;
    mutable maxv : int;
    mutable total : int;
  }

  let create bmode =
    {
      raw = (match bmode with Raw -> Some (Bb.create 1024) | Delta -> None);
      block = Array.make block_size 0;
      fill = 0;
      bb = Bb.create 256;
      samples = Array.make 16 0;
      offsets = Array.make 17 0;
      nblocks = 0;
      maxv = 0;
      total = 0;
    }

  let push_block b =
    if b.nblocks = Array.length b.samples then begin
      let samples' = Array.make (2 * b.nblocks) 0 in
      Array.blit b.samples 0 samples' 0 b.nblocks;
      b.samples <- samples';
      let offsets' = Array.make ((2 * b.nblocks) + 1) 0 in
      Array.blit b.offsets 0 offsets' 0 (b.nblocks + 1);
      b.offsets <- offsets'
    end;
    b.samples.(b.nblocks) <- b.block.(0);
    encode_block b.bb b.block b.fill;
    b.nblocks <- b.nblocks + 1;
    b.offsets.(b.nblocks) <- b.bb.Bb.len;
    b.fill <- 0

  let add b v =
    if v > b.maxv then b.maxv <- v;
    b.total <- b.total + 1;
    match b.raw with
    | Some bb ->
        Bb.ensure bb 8;
        let base = bb.Bb.len in
        let d = bb.Bb.data in
        Bigarray.Array1.unsafe_set d base (Char.unsafe_chr (v land 0xff));
        Bigarray.Array1.unsafe_set d (base + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
        Bigarray.Array1.unsafe_set d (base + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
        Bigarray.Array1.unsafe_set d (base + 3) (Char.unsafe_chr ((v lsr 24) land 0xff));
        Bigarray.Array1.unsafe_set d (base + 4) (Char.unsafe_chr ((v lsr 32) land 0xff));
        Bigarray.Array1.unsafe_set d (base + 5) (Char.unsafe_chr ((v lsr 40) land 0xff));
        Bigarray.Array1.unsafe_set d (base + 6) (Char.unsafe_chr ((v lsr 48) land 0xff));
        Bigarray.Array1.unsafe_set d (base + 7) (Char.unsafe_chr ((v lsr 56) land 0xff));
        bb.Bb.len <- base + 8
    | None ->
        b.block.(b.fill) <- v;
        b.fill <- b.fill + 1;
        if b.fill = block_size then push_block b

  let finish b =
    match b.raw with
    | Some bb ->
        let n = b.total in
        let width = if b.maxv < 1 lsl 31 then 4 else 8 in
        let wide = { data = bb.Bb.data; width = 8 } in
        let repr =
          if width = 8 then Raw_r { wide with data = Bb.contents bb }
          else begin
            let data =
              Bigarray.Array1.create Bigarray.char Bigarray.c_layout (n * 4)
            in
            let narrow = { data; width = 4 } in
            for i = 0 to n - 1 do
              fset narrow i (fget wide i)
            done;
            Raw_r narrow
          end
        in
        { repr; len = n }
    | None ->
        if b.fill > 0 then push_block b;
        if b.nblocks = 0 then { repr = Raw_r empty_fixed; len = 0 }
        else begin
          let nb = b.nblocks in
          let samples = fixed_of_values nb (fun i -> b.samples.(i)) in
          let offsets = fixed_of_values (nb + 1) (fun i -> b.offsets.(i)) in
          let packed =
            { blocks = Bb.contents b.bb; samples; offsets }
          in
          { repr = Packed_r packed; len = b.total }
        end
end

let of_array bmode arr =
  let b = Builder.create bmode in
  Array.iter (Builder.add b) arr;
  Builder.finish b

let to_array t =
  let out = Array.make t.len 0 in
  let i = ref 0 in
  iter t ~lo:0 ~hi:t.len ~f:(fun v ->
      out.(!i) <- v;
      incr i);
  out
