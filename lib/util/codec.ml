exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

module Enc = struct
  type t = Buffer.t

  let create ?(size = 256) () = Buffer.create size
  let length = Buffer.length
  let contents = Buffer.contents
  let clear = Buffer.clear
  let blit = Buffer.blit
  let raw = Buffer.add_string

  let u8 t v =
    if v < 0 || v > 255 then invalid_arg "Codec.Enc.u8: out of range";
    Buffer.add_char t (Char.unsafe_chr v)

  let u32 t v =
    Buffer.add_char t (Char.chr (Int32.to_int (Int32.logand v 0xFFl)));
    Buffer.add_char t
      (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical v 8) 0xFFl)));
    Buffer.add_char t
      (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical v 16) 0xFFl)));
    Buffer.add_char t
      (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical v 24) 0xFFl)))

  (* Every byte written here is below 0x100 by construction. *)
  let rec leb128 t z =
    if z land lnot 0x7F = 0 then Buffer.add_char t (Char.unsafe_chr z)
    else begin
      Buffer.add_char t (Char.unsafe_chr (0x80 lor (z land 0x7F)));
      leb128 t (z lsr 7)
    end

  (* Zig-zag then LEB128 so negative ints stay short. [leb128] is a
     top-level loop, not a closure, so encoding allocates nothing; the
     one-byte case, most lengths and tags, is written inline. *)
  let varint t v =
    let z = (v lsl 1) lxor (v asr (Sys.int_size - 1)) in
    if z land lnot 0x7F = 0 then Buffer.add_char t (Char.unsafe_chr z) else leb128 t z

  let bool t b = u8 t (if b then 1 else 0)

  let string t s =
    varint t (String.length s);
    Buffer.add_string t s

  let option f t = function
    | None -> u8 t 0
    | Some v ->
        u8 t 1;
        f t v

  let list f t l =
    varint t (List.length l);
    List.iter (f t) l

  let array f t a =
    varint t (Array.length a);
    Array.iter (f t) a

  let pair fa fb t (a, b) =
    fa t a;
    fb t b
end

module Dec = struct
  type t = { src : string; stop : int; mutable pos : int }

  let of_string ?(off = 0) ?len src =
    let stop = match len with Some l -> off + l | None -> String.length src in
    if off < 0 || stop > String.length src || off > stop then
      invalid_arg "Codec.Dec.of_string: out of bounds";
    { src; stop; pos = off }

  let remaining t = t.stop - t.pos
  let finished t = t.pos >= t.stop
  let expect_end t = if not (finished t) then error "trailing bytes (%d left)" (remaining t)

  let byte t =
    if t.pos >= t.stop then error "unexpected end of input";
    let c = Char.code (String.unsafe_get t.src t.pos) in
    t.pos <- t.pos + 1;
    c

  let u8 = byte

  let skip t n =
    if n < 0 || n > remaining t then error "skip: %d bytes requested, %d remain" n (remaining t);
    t.pos <- t.pos + n

  let u32 t =
    let b0 = byte t and b1 = byte t and b2 = byte t and b3 = byte t in
    Int32.logor
      (Int32.of_int (b0 lor (b1 lsl 8) lor (b2 lsl 16)))
      (Int32.shift_left (Int32.of_int b3) 24)

  let rec leb128 t shift acc =
    if shift > Sys.int_size then error "varint too long";
    let b = byte t in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc else leb128 t (shift + 7) acc

  let varint t =
    let z = leb128 t 0 0 in
    (z lsr 1) lxor (-(z land 1))

  let bool t =
    match u8 t with
    | 0 -> false
    | 1 -> true
    | n -> error "bad bool tag %d" n

  let string t =
    let len = varint t in
    if len < 0 || len > remaining t then error "bad string length %d" len;
    let s = String.sub t.src t.pos len in
    t.pos <- t.pos + len;
    s

  let option f t =
    match u8 t with
    | 0 -> None
    | 1 -> Some (f t)
    | n -> error "bad option tag %d" n

  let list f t =
    let n = varint t in
    if n < 0 || n > remaining t then error "bad list length %d" n;
    List.init n (fun _ -> f t)

  let array f t =
    let n = varint t in
    if n < 0 || n > remaining t then error "bad array length %d" n;
    Array.init n (fun _ -> f t)

  let pair fa fb t =
    let a = fa t in
    let b = fb t in
    (a, b)
end
