module Metrics = Rs_obs.Metrics
module Trace = Rs_obs.Trace

type t = { a : Disk.t; b : Disk.t; mutable armed : int option }

let m_phys_writes = Metrics.counter "stable_store.physical_writes"
let m_repairs = Metrics.counter "stable_store.repairs"

let m_write_rounds = Metrics.counter "stable_store.write_rounds"
(* One overlapped write+verify round per logical put (mirror cost paid
   once, not twice); extra rounds only on decay/torn retries. *)

(* Values are framed with a CRC so a torn physical page that the disk model
   happens to keep readable would still be rejected; with our disk model
   torn pages already read as Bad, so the CRC guards decode bugs. The
   frame is the codec's [u32 crc ++ string data] (a zig-zag LEB128 length,
   then the bytes), built in one exact-size allocation. *)
let frame data =
  let n = String.length data in
  let rec varint_len z = if z < 0x80 then 1 else 1 + varint_len (z lsr 7) in
  let vlen = varint_len (n lsl 1) in
  let b = Bytes.create (4 + vlen + n) in
  Bytes.set_int32_le b 0 (Rs_util.Crc32.string data);
  let rec put_varint i z =
    if z < 0x80 then Bytes.set b i (Char.chr z)
    else begin
      Bytes.set b i (Char.chr (0x80 lor (z land 0x7F)));
      put_varint (i + 1) (z lsr 7)
    end
  in
  put_varint 4 (n lsl 1);
  Bytes.blit_string data 0 b (4 + vlen) n;
  Bytes.unsafe_to_string b

let unframe s =
  match
    let dec = Rs_util.Codec.Dec.of_string s in
    let crc = Rs_util.Codec.Dec.u32 dec in
    let data = Rs_util.Codec.Dec.string dec in
    Rs_util.Codec.Dec.expect_end dec;
    if Rs_util.Crc32.string data = crc then Some data else None
  with
  | v -> v
  | exception Rs_util.Codec.Error _ -> None

let create ?rng ?decay_prob ~pages () =
  let mk () = Disk.create ?rng ?decay_prob ~pages () in
  { a = mk (); b = mk (); armed = None }

let pages t = max (Disk.pages t.a) (Disk.pages t.b)

let check _t p name =
  if p < 0 then invalid_arg (Printf.sprintf "Stable_store.%s: negative page %d" name p)

(* One checksum per page: a careful read unframes each replica that it
   must trust on its own, but two byte-equal framed pages carry the same
   payload and the same verdict, so the common case of agreeing replicas
   is unframed once. *)
let read_pair t p =
  let ra = Disk.read t.a p in
  let rb = Disk.read t.b p in
  match (ra, rb) with
  | Some fa, Some fb when String.equal fa fb ->
      let v = unframe fa in
      (v, v)
  | _ -> (Option.bind ra unframe, Option.bind rb unframe)

(* Repair, by a careful get or by [recover]: a get that had to fall back
   to one replica rewrites the unreadable partner on the spot (decay would
   otherwise accumulate until only the periodic [recover] pass stood
   between the page and catastrophe). Repairs write the disk directly —
   they are not part of any careful-put write budget, so an armed crash
   countdown is unaffected. *)
let repair disk p data =
  Metrics.incr m_repairs;
  Trace.emit (Trace.Store_repair { page = p });
  Disk.write disk p (frame data)

(* The one repair rule, shared by [get] and [recover]: read both
   replicas, mend whichever is bad or stale from its partner, and return
   the surviving value. A crash between the two careful writes leaves B
   readable but stale; A is written first, so A is never older. *)
let mend t p =
  match read_pair t p with
  | Some va, Some vb ->
      if not (String.equal va vb) then repair t.b p va;
      Some va
  | Some va, None ->
      repair t.b p va;
      Some va
  | None, Some vb ->
      repair t.a p vb;
      Some vb
  | None, None -> None

let get t p =
  check t p "get";
  mend t p

(* Crash arming is coordinated across the two disks: a single countdown of
   physical writes, decremented here, delegated to whichever disk performs
   the fatal write. *)
let countdown t =
  match t.armed with
  | None -> false
  | Some 0 ->
      t.armed <- None;
      true
  | Some n ->
      t.armed <- Some (n - 1);
      false

let write_phys t disk p data =
  Metrics.incr m_phys_writes;
  if countdown t then begin
    Disk.set_crash_after disk 0;
    Disk.write disk p data (* raises Disk.Crash, tearing the page *)
  end
  else Disk.write disk p data

let put t p data =
  check t p "put";
  let framed = frame data in
  (* Careful put, mirrors overlapped: issue the write to A then to B
     back-to-back, then verify both re-reads — one round instead of two
     fully serialized write+verify cycles (the verify re-read models the
     Lampson–Sturgis careful write that retries until the page reads back;
     with our deterministic disks one round suffices unless decay
     intervenes, in which case only the failed replica retries).

     The recovery invariant "when both replicas are readable, A is never
     older than B" is preserved: within every round the write to A is
     issued before the write to B, so a crash mid-round can tear B with A
     already new, but never the reverse.

     The verify re-read compares the page with the framed bytes just
     written: byte equality implies a valid CRC and the same payload, so
     it is at least as strict as unframing, and a round costs the one CRC
     [frame] computed. *)
  let ok disk = match Disk.read disk p with Some s -> String.equal s framed | None -> false in
  let rec round need_a need_b attempts =
    if attempts = 0 then failwith "Stable_store.put: persistent device failure";
    if need_a then write_phys t t.a p framed;
    if need_b then write_phys t t.b p framed;
    Metrics.incr m_write_rounds;
    let a_ok = (not need_a) || ok t.a in
    let b_ok = (not need_b) || ok t.b in
    if not (a_ok && b_ok) then round (not a_ok) (not b_ok) (attempts - 1)
  in
  round true true 5

let recover t =
  for p = 0 to pages t - 1 do
    ignore (mend t p)
  done

let arm_crash t ~after_writes =
  if after_writes < 0 then invalid_arg "Stable_store.arm_crash: negative";
  t.armed <- Some after_writes

let clear_crash t =
  t.armed <- None;
  Disk.clear_crash t.a;
  Disk.clear_crash t.b

let physical_writes t = (Disk.stats t.a).writes + (Disk.stats t.b).writes
let physical_reads t = (Disk.stats t.a).reads + (Disk.stats t.b).reads
let disks t = (t.a, t.b)

let agreement_issues t =
  let issues = ref [] in
  for p = pages t - 1 downto 0 do
    match read_pair t p with
    | Some va, Some vb ->
        if not (String.equal va vb) then
          issues := (p, Printf.sprintf "replicas diverge (%d vs %d bytes)"
                       (String.length va) (String.length vb)) :: !issues
    | Some _, None -> issues := (p, "replica b unreadable") :: !issues
    | None, Some _ -> issues := (p, "replica a unreadable") :: !issues
    | None, None -> () (* never written: legitimately absent on both *)
  done;
  !issues

let decay_random_page t rng =
  let p = Rs_util.Rng.int rng (pages t) in
  let disk = if Rs_util.Rng.bool rng 0.5 then t.a else t.b in
  Disk.decay disk p
