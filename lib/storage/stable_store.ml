module Metrics = Rs_obs.Metrics
module Trace = Rs_obs.Trace

type t = { a : Disk.t; b : Disk.t }

let m_phys_writes = Metrics.counter "stable_store.physical_writes"
let m_repairs = Metrics.counter "stable_store.repairs"

let m_write_rounds = Metrics.counter "stable_store.write_rounds"
(* One overlapped write+verify round per logical put (mirror cost paid
   once, not twice); extra rounds only on decay/torn retries. *)

(* Each replica carries a CRC-32 beside its bytes, as a sector carries
   its check bits. With our disk model torn pages already read as Bad, so
   the checksum guards against bytes that change under it. *)
let checksum data = Int32.to_int (Rs_util.Crc32.string data)

(* The bytes of a replica that still match the checksum stored beside them. *)
let intact = function
  | Disk.Good { data; crc } when checksum data = crc -> Some data
  | Disk.Good _ | Disk.Bad -> None

let create ?rng ?decay_prob ~pages () =
  let mk () = Disk.create ?rng ?decay_prob ~pages () in
  { a = mk (); b = mk () }

let pages t = max (Disk.pages t.a) (Disk.pages t.b)

let check _t p name =
  if p < 0 then invalid_arg (Printf.sprintf "Stable_store.%s: negative page %d" name p)

(* Repair, by a careful get or by [recover]: a get that had to fall back
   to one replica rewrites the unreadable partner on the spot (decay would
   otherwise accumulate until only the periodic [recover] pass stood
   between the page and catastrophe). Repairs write the disk directly and
   are not counted as [stable_store.physical_writes]. *)
let repair disk p survivor =
  Metrics.incr m_repairs;
  Trace.emit (Trace.Store_repair { page = p });
  Disk.write disk p survivor

(* The one repair rule, shared by [get] and [recover]: read both
   replicas, mend whichever is bad or stale from its partner, and return
   the surviving value. A crash between the two careful writes leaves B
   readable but stale; A is written first, so A is never older. Agreeing
   replicas (the same bytes under the same checksum) carry one verdict,
   so they cost one checksum, and the get returns the stored string
   itself. *)
let mend t p =
  let ra = Disk.read t.a p in
  let rb = Disk.read t.b p in
  match (ra, rb) with
  | Disk.Good a, Disk.Good b when a.crc = b.crc && String.equal a.data b.data -> intact ra
  | _ -> (
      match intact ra with
      | Some _ as v ->
          repair t.b p ra;
          v
      | None -> (
          match intact rb with
          | Some _ as v ->
              repair t.a p rb;
              v
          | None -> None))

let get t p =
  check t p "get";
  mend t p

let write_phys disk p page =
  Metrics.incr m_phys_writes;
  Disk.write disk p page

let put t p data =
  check t p "put";
  let crc = checksum data in
  let page = Disk.Good { data; crc } in
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

     The verify re-read compares the page's bytes and checksum with the
     ones just written: equality with a page whose checksum was computed
     from its bytes is at least as strict as recomputing it, and a round
     costs the one CRC computed above. Both replicas receive the caller's
     string itself; nothing is copied. *)
  let ok disk =
    match Disk.read disk p with
    | Disk.Good g -> g.crc = crc && String.equal g.data data
    | Disk.Bad -> false
  in
  let rec round need_a need_b attempts =
    if attempts = 0 then failwith "Stable_store.put: persistent device failure";
    if need_a then write_phys t.a p page;
    if need_b then write_phys t.b p page;
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

let physical_writes t = (Disk.stats t.a).writes + (Disk.stats t.b).writes
let physical_reads t = (Disk.stats t.a).reads + (Disk.stats t.b).reads
let disks t = (t.a, t.b)
let is_write t = function Disk.Write d -> d == t.a || d == t.b | _ -> false

let agreement_issues t =
  let issues = ref [] in
  for p = pages t - 1 downto 0 do
    let va = intact (Disk.read t.a p) in
    match (va, intact (Disk.read t.b p)) with
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
