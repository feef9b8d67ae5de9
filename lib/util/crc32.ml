(* Slicing-by-8 over native ints: table [k] advances a byte that has [k]
   more bytes after it in an 8-byte block, so one block costs eight
   lookups and no per-byte shift chain. The CRC lives in the low 32 bits of
   an unboxed int; only the result is boxed. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let[@inline] byte b i = Char.code (Bytes.unsafe_get b i)

let bytes ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Crc32.bytes: out of bounds";
  let t = tables in
  let crc = ref 0xFFFFFFFF in
  let i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    let p = !i and c = !crc in
    crc :=
      Array.unsafe_get t ((7 * 256) + (byte b p lxor (c land 0xFF)))
      lxor Array.unsafe_get t ((6 * 256) + (byte b (p + 1) lxor ((c lsr 8) land 0xFF)))
      lxor Array.unsafe_get t ((5 * 256) + (byte b (p + 2) lxor ((c lsr 16) land 0xFF)))
      lxor Array.unsafe_get t ((4 * 256) + (byte b (p + 3) lxor (c lsr 24)))
      lxor Array.unsafe_get t ((3 * 256) + byte b (p + 4))
      lxor Array.unsafe_get t ((2 * 256) + byte b (p + 5))
      lxor Array.unsafe_get t (256 + byte b (p + 6))
      lxor Array.unsafe_get t (byte b (p + 7));
    i := p + 8
  done;
  while !i < stop do
    let c = !crc in
    crc := (c lsr 8) lxor Array.unsafe_get t ((c lxor byte b !i) land 0xFF);
    incr i
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let string ?off ?len s = bytes ?off ?len (Bytes.unsafe_of_string s)
