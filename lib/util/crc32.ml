(* The kernels live in crc32_stubs.c; this side checks bounds and boxes the
   result. *)
external init : unit -> unit = "rs_crc32_init" [@@noalloc]

external crc : bytes -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "rs_crc32_bytes_byte" "rs_crc32_bytes"
[@@noalloc]

let () = init ()

let bytes ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  (* [off + len] could wrap past max_int; this form cannot. *)
  if off < 0 || len < 0 || len > Bytes.length b - off then
    invalid_arg "Crc32.bytes: out of bounds";
  Int32.of_int (crc b off len)

let string ?off ?len s = bytes ?off ?len (Bytes.unsafe_of_string s)
