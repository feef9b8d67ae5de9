(* Unit and property tests for rs_util: codec, crc, vec, rng, id
   generators. *)

module Codec = Rs_util.Codec
module Crc32 = Rs_util.Crc32
module Vec = Rs_util.Vec
module Rng = Rs_util.Rng
module Uid = Rs_util.Uid
module Aid = Rs_util.Aid
module Gid = Rs_util.Gid

let test_varint_roundtrip () =
  let cases = [ 0; 1; -1; 127; 128; -128; 300; -300; max_int; min_int; 1 lsl 40 ] in
  List.iter
    (fun v ->
      let e = Codec.Enc.create () in
      Codec.Enc.varint e v;
      let d = Codec.Dec.of_string (Codec.Enc.contents e) in
      Alcotest.(check int) (Printf.sprintf "varint %d" v) v (Codec.Dec.varint d);
      Codec.Dec.expect_end d)
    cases

let test_string_roundtrip () =
  let cases = [ ""; "a"; String.make 5000 'x'; "\x00\xff\x80 binary" ] in
  List.iter
    (fun s ->
      let e = Codec.Enc.create () in
      Codec.Enc.string e s;
      let d = Codec.Dec.of_string (Codec.Enc.contents e) in
      Alcotest.(check string) "string roundtrip" s (Codec.Dec.string d))
    cases

let test_composites () =
  let e = Codec.Enc.create () in
  Codec.Enc.list Codec.Enc.varint e [ 1; 2; 3 ];
  Codec.Enc.option Codec.Enc.string e (Some "hi");
  Codec.Enc.option Codec.Enc.string e None;
  Codec.Enc.pair Codec.Enc.bool Codec.Enc.varint e (true, 42);
  Codec.Enc.array Codec.Enc.varint e [| 9; 8 |];
  let d = Codec.Dec.of_string (Codec.Enc.contents e) in
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Codec.Dec.list Codec.Dec.varint d);
  Alcotest.(check (option string)) "some" (Some "hi") (Codec.Dec.option Codec.Dec.string d);
  Alcotest.(check (option string)) "none" None (Codec.Dec.option Codec.Dec.string d);
  let b, v = Codec.Dec.pair Codec.Dec.bool Codec.Dec.varint d in
  Alcotest.(check bool) "pair fst" true b;
  Alcotest.(check int) "pair snd" 42 v;
  Alcotest.(check (array int)) "array" [| 9; 8 |] (Codec.Dec.array Codec.Dec.varint d);
  Codec.Dec.expect_end d

let test_decode_errors () =
  let truncated = Codec.Dec.of_string "" in
  Alcotest.check_raises "empty u8" (Codec.Error "unexpected end of input") (fun () ->
      ignore (Codec.Dec.u8 truncated));
  let bad_bool = Codec.Dec.of_string "\x07" in
  Alcotest.check_raises "bad bool" (Codec.Error "bad bool tag 7") (fun () ->
      ignore (Codec.Dec.bool bad_bool));
  (* A string whose declared length exceeds the remaining input. *)
  let e = Codec.Enc.create () in
  Codec.Enc.varint e 100;
  let d = Codec.Dec.of_string (Codec.Enc.contents e ^ "abc") in
  (match Codec.Dec.string d with
  | _ -> Alcotest.fail "expected decode error"
  | exception Codec.Error _ -> ())

let test_crc32_known () =
  (* Standard test vector: CRC32("123456789") = 0xCBF43926. *)
  Alcotest.(check int32) "crc32 vector" 0xCBF43926l (Crc32.string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.string "");
  Alcotest.(check bool) "substring" true
    (Crc32.string ~off:1 ~len:3 "x123y" = Crc32.string "123")

(* Bit-at-a-time reference: the textbook reflected CRC-32 the table
   kernel must agree with on every input. *)
let crc32_reference ?(off = 0) ?len s =
  let len = Option.value len ~default:(String.length s - off) in
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

(* Every length from 0 to 17 at every offset within one 8-byte stride,
   then the seams of the folding kernel (64 bytes and up, in 16-byte
   blocks, the rest through the table) at every offset within one block:
   either side of 64, of a 64-byte round, of a 16-byte block, a page's
   1030-byte frame and a multi-page run. *)
let test_crc32_strides () =
  let src = String.init 4200 (fun i -> Char.chr (((i * 97) + 13 + (i lsr 8)) land 0xFF)) in
  let check ~off ~len =
    let expect = crc32_reference ~off ~len src in
    Alcotest.(check int32)
      (Printf.sprintf "off %d len %d" off len)
      expect (Crc32.string ~off ~len src);
    Alcotest.(check int32)
      (Printf.sprintf "bytes off %d len %d" off len)
      expect
      (Crc32.bytes ~off ~len (Bytes.of_string src))
  in
  for off = 0 to 8 do
    for len = 0 to 17 do
      check ~off ~len
    done
  done;
  List.iter
    (fun len ->
      for off = 0 to 15 do
        check ~off ~len
      done)
    [ 47; 48; 63; 64; 65; 79; 80; 81; 127; 128; 129; 1023; 1024; 1030; 4103 ];
  (* 64 KiB from a fixed seed, pinned by the slicing-by-8 code in OCaml
     that the C kernels replaced. *)
  let rng = Rng.create 27 in
  let big = Bytes.init 65536 (fun _ -> Char.chr (Rng.int rng 256)) in
  Alcotest.(check int32) "64 KiB pinned" 0x5b15f15el (Crc32.bytes big);
  let out_of_bounds = Invalid_argument "Crc32.bytes: out of bounds" in
  Alcotest.check_raises "out of bounds" out_of_bounds (fun () ->
      ignore (Crc32.string ~off:4190 ~len:11 src));
  (* [off + len] wraps negative here; the range must still be refused. *)
  Alcotest.check_raises "off + len wraps" out_of_bounds (fun () ->
      ignore (Crc32.string ~off:1 ~len:max_int "abc"));
  Alcotest.check_raises "off past the end" out_of_bounds (fun () ->
      ignore (Crc32.string ~off:max_int ~len:1 "abc"))

let prop_crc32_reference =
  QCheck.Test.make ~name:"crc32 equals bit-at-a-time reference" ~count:500
    QCheck.(triple (string_of_size Gen.(0 -- 3000)) small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let off = a mod (n + 1) in
      let len = b mod (n - off + 1) in
      Crc32.string s = crc32_reference s
      && Crc32.string ~off ~len s = crc32_reference ~off ~len s
      && Crc32.string ~off s = crc32_reference ~off s)

(* Trace payloads and the benchmark's aid join key on these spellings. *)
let prop_id_rendering =
  QCheck.Test.make ~name:"id to_string matches the G%d and T%d.%d forms" ~count:500
    QCheck.(pair (int_bound max_int) (int_bound max_int))
    (fun (g, seq) ->
      let gid = Gid.of_int g in
      let aid = Aid.make ~coordinator:gid ~seq in
      Gid.to_string gid = Printf.sprintf "G%d" g
      && Gid.to_string gid = Format.asprintf "%a" Gid.pp gid
      && Aid.to_string aid = Printf.sprintf "T%d.%d" g seq
      && Aid.to_string aid = Format.asprintf "%a" Aid.pp aid)

let test_vec () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "len" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 42);
  Alcotest.(check int) "last" 99 (Vec.last v);
  Alcotest.(check int) "pop" 99 (Vec.pop v);
  Alcotest.(check int) "len after pop" 99 (Vec.length v);
  Vec.truncate v 10;
  Alcotest.(check int) "truncate" 10 (Vec.length v);
  Alcotest.(check (list int)) "to_list" [ 0; 1; 2 ]
    (let v = Vec.of_list [ 0; 1; 2 ] in
     Vec.to_list v);
  Alcotest.(check int) "fold" 45 (Vec.fold_left ( + ) 0 (Vec.of_list [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]));
  Alcotest.check_raises "oob" (Invalid_argument "Vec.get: index 10 out of bounds (len 10)")
    (fun () -> ignore (Vec.get v 10))

(* Dropping elements must not leave them reachable from the vector's
   spare slots: a cleared pending buffer once kept a whole batch alive. *)
let test_vec_drops_elements () =
  let tracked = Weak.create 4 in
  let[@inline never] push v i =
    let x = ref i in
    Weak.set tracked i (Some x);
    Vec.push v x
  in
  let popped = Vec.create () and truncated = Vec.create () and cleared = Vec.create () in
  Vec.push popped (ref (-1));
  push popped 0;
  ignore (Vec.pop popped);
  Vec.push truncated (ref (-1));
  push truncated 1;
  push truncated 2;
  Vec.truncate truncated 1;
  push cleared 3;
  Vec.clear cleared;
  Gc.full_major ();
  List.iteri
    (fun i op -> Alcotest.(check bool) (op ^ " drops the element") false (Weak.check tracked i))
    [ "pop"; "truncate"; "truncate"; "clear" ];
  Alcotest.(check (list int)) "kept elements survive" [ -1; -1 ]
    (List.map ( ! ) (Vec.to_list popped @ Vec.to_list truncated));
  Vec.push cleared (ref 4);
  Alcotest.(check int) "a cleared vector grows again" 1 (Vec.length cleared)

let test_vec_grow_forces_no_minor () =
  let v = Vec.create () in
  Helpers.check_no_minor "grow to 1000 boxes" (fun () ->
      for i = 1 to 1000 do
        Vec.push v (ref i)
      done);
  Alcotest.(check (list int)) "elements kept in order" (List.init 1000 (fun i -> i + 1))
    (List.map ( ! ) (Vec.to_list v));
  Alcotest.(check int) "to_array" 1000 !((Vec.to_array v).(999))

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.create 8 in
  let diff = ref false in
  for _ = 1 to 20 do
    if Rng.int a 1000 <> Rng.int c 1000 then diff := true
  done;
  Alcotest.(check bool) "different seeds differ" true !diff

let test_rng_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7);
    let f = Rng.float r 2.5 in
    Alcotest.(check bool) "float range" true (f >= 0.0 && f < 2.5)
  done;
  let arr = [| 1; 2; 3 |] in
  Rng.shuffle r arr;
  Alcotest.(check int) "shuffle preserves sum" 6 (Array.fold_left ( + ) 0 arr)

let test_uid_gen () =
  let g = Uid.Gen.create () in
  let a = Uid.Gen.fresh g in
  let b = Uid.Gen.fresh g in
  Alcotest.(check bool) "fresh distinct" true (not (Uid.equal a b));
  Alcotest.(check bool) "after stable_vars" true (Uid.compare a Uid.stable_vars > 0);
  Uid.Gen.reset_past g (Uid.of_int 100);
  Alcotest.(check bool) "reset past" true (Uid.compare (Uid.Gen.fresh g) (Uid.of_int 100) > 0);
  Uid.Gen.reset_past g (Uid.of_int 5);
  Alcotest.(check bool) "never backwards" true (Uid.compare (Uid.Gen.fresh g) (Uid.of_int 100) > 0)

let test_aid_gen () =
  let g = Aid.Gen.create (Gid.of_int 3) in
  let a = Aid.Gen.fresh g in
  Alcotest.(check int) "coordinator" 3 (Gid.to_int (Aid.coordinator a));
  let b = Aid.Gen.fresh g in
  Alcotest.(check bool) "distinct" true (not (Aid.equal a b));
  Aid.Gen.reset_past g (Aid.make ~coordinator:(Gid.of_int 3) ~seq:50);
  Alcotest.(check bool) "reset" true (Aid.seq (Aid.Gen.fresh g) > 50);
  (* Other guardians' aids do not disturb the counter. *)
  Aid.Gen.reset_past g (Aid.make ~coordinator:(Gid.of_int 9) ~seq:1000);
  Alcotest.(check bool) "foreign aid ignored" true (Aid.seq (Aid.Gen.fresh g) < 1000)

let test_lru_eviction_order () =
  let module Lru = Rs_util.Lru in
  let c = Lru.create ~capacity:3 () in
  Alcotest.(check int) "capacity" 3 (Lru.capacity c);
  Alcotest.(check (option (pair string int))) "no eviction below capacity" None
    (Lru.put c "a" 1);
  ignore (Lru.put c "b" 2);
  ignore (Lru.put c "c" 3);
  Alcotest.(check (list string)) "MRU first" [ "c"; "b"; "a" ] (Lru.keys c);
  (* find bumps recency; mem does not. *)
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find c "a");
  Alcotest.(check bool) "mem b" true (Lru.mem c "b");
  Alcotest.(check (list string)) "a bumped, b not" [ "a"; "c"; "b" ] (Lru.keys c);
  (* The insert past capacity drops the least recently used: b. *)
  Alcotest.(check (option (pair string int))) "b evicted" (Some ("b", 2)) (Lru.put c "d" 4);
  Alcotest.(check (list string)) "post-eviction order" [ "d"; "a"; "c" ] (Lru.keys c);
  Alcotest.(check int) "length capped" 3 (Lru.length c);
  (* Overwrite bumps without evicting. *)
  Alcotest.(check (option (pair string int))) "overwrite c" None (Lru.put c "c" 33);
  Alcotest.(check (option int)) "new value" (Some 33) (Lru.find c "c");
  Alcotest.(check (list string)) "overwrite bumped c" [ "c"; "d"; "a" ] (Lru.keys c);
  Lru.remove c "d";
  Alcotest.(check (list string)) "removed" [ "c"; "a" ] (Lru.keys c);
  Alcotest.(check (option (pair string int))) "room again" None (Lru.put c "e" 5);
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c);
  Alcotest.(check (list string)) "cleared keys" [] (Lru.keys c);
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Lru.create: capacity must be >= 1") (fun () ->
      ignore (Lru.create ~capacity:0 ()))

(* Edge cases around the capacity boundary and the list ends. *)
let test_lru_edge_cases () =
  let module Lru = Rs_util.Lru in
  (* Overwriting an existing key at full capacity is not an insert: it
     must bump, not evict. *)
  let c = Lru.create ~capacity:2 () in
  ignore (Lru.put c "a" 1);
  ignore (Lru.put c "b" 2);
  Alcotest.(check (option (pair string int))) "overwrite at capacity evicts nothing" None
    (Lru.put c "a" 11);
  Alcotest.(check int) "still full, not over" 2 (Lru.length c);
  Alcotest.(check (option int)) "overwritten value" (Some 11) (Lru.find c "a");
  Alcotest.(check bool) "b survived" true (Lru.mem c "b");
  (* Touch-via-find of the LRU tail makes the other key the next victim. *)
  ignore (Lru.find c "b");
  Alcotest.(check (list string)) "find reordered" [ "b"; "a" ] (Lru.keys c);
  Alcotest.(check (option (pair string int))) "a is now the victim" (Some ("a", 11))
    (Lru.put c "z" 3);
  (* Removing the first (MRU) and last (LRU) nodes must keep the chain
     intact in both directions. *)
  let c = Lru.create ~capacity:4 () in
  List.iter (fun (k, v) -> ignore (Lru.put c k v)) [ ("a", 1); ("b", 2); ("c", 3); ("d", 4) ];
  Lru.remove c "d" (* MRU head *);
  Alcotest.(check (list string)) "head removed" [ "c"; "b"; "a" ] (Lru.keys c);
  Lru.remove c "a" (* LRU tail *);
  Alcotest.(check (list string)) "tail removed" [ "c"; "b" ] (Lru.keys c);
  Lru.remove c "nope" (* absent key is a no-op *);
  Alcotest.(check int) "absent remove is a no-op" 2 (Lru.length c);
  (* The chain still evicts correctly after surgery at both ends. *)
  ignore (Lru.put c "e" 5);
  ignore (Lru.put c "f" 6);
  Alcotest.(check (option (pair string int))) "evicts the true LRU" (Some ("b", 2))
    (Lru.put c "g" 7);
  Alcotest.(check (list string)) "final order" [ "g"; "f"; "e"; "c" ] (Lru.keys c);
  (* Capacity one: every put of a new key evicts the previous sole
     occupant; remove of the only node empties both ends. *)
  let c1 = Lru.create ~capacity:1 () in
  ignore (Lru.put c1 "x" 1);
  Alcotest.(check (option (pair string int))) "sole occupant evicted" (Some ("x", 1))
    (Lru.put c1 "y" 2);
  Lru.remove c1 "y";
  Alcotest.(check int) "empty after removing the only node" 0 (Lru.length c1);
  ignore (Lru.put c1 "z" 3);
  Alcotest.(check (list string)) "usable after emptying" [ "z" ] (Lru.keys c1)

(* Property: varint roundtrips for arbitrary ints. *)
let prop_varint =
  QCheck.Test.make ~name:"varint roundtrip" ~count:1000 QCheck.int (fun v ->
      let e = Codec.Enc.create () in
      Codec.Enc.varint e v;
      let d = Codec.Dec.of_string (Codec.Enc.contents e) in
      Codec.Dec.varint d = v)

let prop_string =
  QCheck.Test.make ~name:"string roundtrip" ~count:500 QCheck.string (fun s ->
      let e = Codec.Enc.create () in
      Codec.Enc.string e s;
      let d = Codec.Dec.of_string (Codec.Enc.contents e) in
      String.equal (Codec.Dec.string d) s)

let suite =
  [
    Alcotest.test_case "varint roundtrip" `Quick test_varint_roundtrip;
    Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
    Alcotest.test_case "composite codecs" `Quick test_composites;
    Alcotest.test_case "decode errors" `Quick test_decode_errors;
    Alcotest.test_case "crc32 vectors" `Quick test_crc32_known;
    Alcotest.test_case "crc32 strides" `Quick test_crc32_strides;
    Alcotest.test_case "vec operations" `Quick test_vec;
    Alcotest.test_case "vec drops elements" `Quick test_vec_drops_elements;
    Alcotest.test_case "vec growth forces no minor collection" `Quick test_vec_grow_forces_no_minor;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "uid generator" `Quick test_uid_gen;
    Alcotest.test_case "aid generator" `Quick test_aid_gen;
    Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "lru edge cases" `Quick test_lru_edge_cases;
    QCheck_alcotest.to_alcotest prop_varint;
    QCheck_alcotest.to_alcotest prop_string;
    QCheck_alcotest.to_alcotest prop_crc32_reference;
    QCheck_alcotest.to_alcotest prop_id_rendering;
  ]
