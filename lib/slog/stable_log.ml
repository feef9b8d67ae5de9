module Codec = Rs_util.Codec
module Vec = Rs_util.Vec
module Lru = Rs_util.Lru
module Store = Rs_storage.Stable_store
module Metrics = Rs_obs.Metrics
module Trace = Rs_obs.Trace
module Fault_hook = Rs_util.Fault_hook

let m_forces = Metrics.counter "slog.forces"
let m_cache_hits = Metrics.counter "slog.cache_hits"
let m_cache_misses = Metrics.counter "slog.cache_misses"
let h_force_bytes = Metrics.histogram "slog.force_bytes"

type addr = int

(* Frames are [u32 length ++ payload ++ u32 length]; an entry's address is
   the offset of its leading length word in the stream. *)
let frame_overhead = 8

(* Self-test mutation: [force] "forgets" the header write — the single
   atomic commit point of the force — so forced entries silently fail to
   survive a crash. Exists only so the Rs_explore oracle suite can prove
   it detects a recovery system whose forces lie ([argusctl explore
   --break-force] and the explore self-test). *)
type Fault_hook.mutation += Skip_header_write

(* ------------------------------------------------------------------ *)
(* Segments. A log spreads its stream pages over fixed-size segment
   stores obtained from a provider (Log_dir's shared pool); the anchor
   store holds only the header page. Stream page [g] lives in segment
   [g / segment_pages] at store page [1 + g mod segment_pages] (page 0 of
   every segment store is its self-describing header). *)

type provider = {
  alloc : unit -> int * Store.t;
  lookup : int -> Store.t option;
  release : int -> unit;
}

type segment_event = Seg_alloc of int | Seg_link | Seg_retire of int

(* Fault sites: after every completed force, and after a segment store is
   allocated and formatted (but before the log header links it), after a
   header write that changed the segment table or low-water mark (the
   chain-link/retirement commit point), and after each segment's pages are
   returned. A [Crash] verdict lands a crash exactly on that boundary. *)
type Fault_hook.site += Forced | Segment of segment_event

let boundary site =
  match Fault_hook.at site with
  | Fault_hook.Crash -> raise Rs_storage.Disk.Crash
  | Go | Drop | Delay _ -> ()

let seg_event ev = if Fault_hook.active () then boundary (Segment ev)

type segment_header = {
  seg_id : int;
  seg_index : int;
  seg_prev_id : int option; (* segment holding the preceding index at alloc time *)
  seg_base : addr; (* first stream byte this segment covers *)
  seg_page_size : int;
  seg_pages : int;
}

let encode_segment_header h =
  let enc = Codec.Enc.create ~size:24 () in
  Codec.Enc.varint enc h.seg_id;
  Codec.Enc.varint enc h.seg_index;
  Codec.Enc.option Codec.Enc.varint enc h.seg_prev_id;
  Codec.Enc.varint enc h.seg_base;
  Codec.Enc.varint enc h.seg_page_size;
  Codec.Enc.varint enc h.seg_pages;
  Codec.Enc.contents enc

let decode_segment_header s =
  let dec = Codec.Dec.of_string s in
  let seg_id = Codec.Dec.varint dec in
  let seg_index = Codec.Dec.varint dec in
  let seg_prev_id = Codec.Dec.option Codec.Dec.varint dec in
  let seg_base = Codec.Dec.varint dec in
  let seg_page_size = Codec.Dec.varint dec in
  let seg_pages = Codec.Dec.varint dec in
  Codec.Dec.expect_end dec;
  { seg_id; seg_index; seg_prev_id; seg_base; seg_page_size; seg_pages }

type t = {
  store : Store.t; (* the anchor: holds the header page *)
  page_size : int;
  provider : provider;
  segment_pages : int; (* data pages per segment *)
  mutable table : (int * int) list; (* index -> segment id, ascending index *)
  mutable forced_len : int; (* stable stream bytes *)
  mutable low_water : int; (* addresses below are retired: unreadable, unchained *)
  mutable forced_entries : int;
  mutable last_offset : int; (* address of the last forced entry; -1 if none *)
  pending : addr Vec.t; (* addresses of the buffered entries, ascending *)
  chunks : Bytes.t Vec.t;
      (* The pending region, framed in place: chunk [i] is stream page
         [forced_len / page_size + i]. Chunk 0 leaves room for the stable
         prefix of the partial last page, which [force] copies in. *)
  mutable pending_bytes : int;
  enc : Codec.Enc.t; (* the one encoder every write frames from *)
  pages : (int, string) Lru.t; (* bounded volatile page cache, page -> data *)
  mutable forces : int;
  mutable entry_reads : int;
  mutable bytes_read : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable alive : bool;
  mutable label : string; (* owner tag stamped on Log_force trace events *)
  mutable on_force : (force_batch -> unit) option;
      (* per-instance observer of every completed force — the replication
         ship point. Distinct from the fault hook's [Forced] site. *)
}

and force_batch = {
  fb_base : addr; (* stream length before the force *)
  fb_entries : (addr * string) list; (* covered entries, in address order *)
  fb_table : (int * int) list; (* segment table after the force *)
  fb_low_water : addr; (* low-water mark after the force *)
}

let check_alive t = if not t.alive then invalid_arg "Stable_log: destroyed handle"

let encode_header t =
  let enc = Codec.Enc.create ~size:48 () in
  Codec.Enc.varint enc t.forced_len;
  Codec.Enc.varint enc t.forced_entries;
  Codec.Enc.varint enc t.last_offset;
  Codec.Enc.varint enc t.page_size;
  Codec.Enc.varint enc t.low_water;
  Codec.Enc.varint enc t.segment_pages;
  Codec.Enc.list (Codec.Enc.pair Codec.Enc.varint Codec.Enc.varint) enc t.table;
  Codec.Enc.contents enc

let decode_header s =
  let dec = Codec.Dec.of_string s in
  let forced_len = Codec.Dec.varint dec in
  let forced_entries = Codec.Dec.varint dec in
  let last_offset = Codec.Dec.varint dec in
  let page_size = Codec.Dec.varint dec in
  let low_water = Codec.Dec.varint dec in
  let segment_pages = Codec.Dec.varint dec in
  let table = Codec.Dec.list (Codec.Dec.pair Codec.Dec.varint Codec.Dec.varint) dec in
  Codec.Dec.expect_end dec;
  (forced_len, forced_entries, last_offset, page_size, low_water, segment_pages, table)

let write_header t = Store.put t.store 0 (encode_header t)

let mk ~store ~page_size ~provider ~segment_pages ~table ~cache_pages ~forced_len ~low_water
    ~forced_entries ~last_offset =
  {
    store;
    page_size;
    provider;
    segment_pages;
    table;
    forced_len;
    low_water;
    forced_entries;
    last_offset;
    pending = Vec.create ();
    chunks = Vec.create ();
    pending_bytes = 0;
    enc = Codec.Enc.create ~size:page_size ();
    pages = Lru.create ~capacity:cache_pages ();
    forces = 0;
    entry_reads = 0;
    bytes_read = 0;
    cache_hits = 0;
    cache_misses = 0;
    alive = true;
    label = "";
    on_force = None;
  }

let set_label t s =
  t.label <- s;
  (* Every relabel is a legitimate stream restart/ownership change — the
     forgiveness point for the log-monotonicity spec monitor. *)
  if s <> "" then Trace.emit (Trace.Log_switch { log = s })
let label t = t.label
let set_on_force t h = t.on_force <- h

let create ?(page_size = 1024) ?(cache_pages = 128) ~segment_pages ~provider store =
  if page_size <= 0 then invalid_arg "Stable_log.create: page_size must be positive";
  if cache_pages <= 0 then invalid_arg "Stable_log.create: cache_pages must be positive";
  if segment_pages < 1 then invalid_arg "Stable_log.create: segment_pages must be >= 1";
  let t =
    mk ~store ~page_size ~provider ~segment_pages ~table:[] ~cache_pages ~forced_len:0
      ~low_water:0 ~forced_entries:0 ~last_offset:(-1)
  in
  write_header t;
  t

let open_ ?(cache_pages = 128) ~provider store =
  match Store.get store 0 with
  | None -> failwith "Stable_log.open_: no log header"
  | Some hdr ->
      let forced_len, forced_entries, last_offset, page_size, low_water, segment_pages, table
          =
        try decode_header hdr
        with Codec.Error msg -> failwith ("Stable_log.open_: bad header: " ^ msg)
      in
      if segment_pages < 1 then failwith "Stable_log.open_: bad header: no segment size";
      mk ~store ~page_size ~provider ~segment_pages ~table ~cache_pages ~forced_len ~low_water
        ~forced_entries ~last_offset

(* Byte access: stream byte [i] lives on stream page [i/page_size] —
   store page [1 + that mod segment_pages] of the covering segment. Pages
   are fetched on demand through a bounded LRU cache; absent bytes (never
   forced, or in the pending region) come from the pending buffer. *)

let segment_store t id =
  match t.provider.lookup id with
  | Some store -> store
  | None -> failwith (Printf.sprintf "Stable_log: segment %d not in the pool" id)

let fetch_page t p =
  match List.assoc_opt (p / t.segment_pages) t.table with
  | None -> failwith (Printf.sprintf "Stable_log: page %d has no live segment" p)
  | Some id -> (
      match Store.get (segment_store t id) (1 + (p mod t.segment_pages)) with
      | Some data -> data
      | None -> failwith (Printf.sprintf "Stable_log: lost data page %d" p))

let page_data t p =
  match Lru.find t.pages p with
  | Some data ->
      t.cache_hits <- t.cache_hits + 1;
      Metrics.incr m_cache_hits;
      data
  | None ->
      t.cache_misses <- t.cache_misses + 1;
      Metrics.incr m_cache_misses;
      let data = fetch_page t p in
      ignore (Lru.put t.pages p data);
      data

(* Read [len] stream bytes at [off]; the range must lie in the forced
   region or entirely in the pending region. *)
let read_forced_bytes t ~off ~len =
  let buf = Bytes.create len in
  let wrote = ref 0 in
  let pos = ref off in
  while !wrote < len do
    let p = !pos / t.page_size in
    let in_page = !pos mod t.page_size in
    let data = page_data t p in
    let n = min (len - !wrote) (String.length data - in_page) in
    if n <= 0 then failwith "Stable_log: short data page";
    Bytes.blit_string data in_page buf !wrote n;
    wrote := !wrote + n;
    pos := !pos + n
  done;
  Bytes.unsafe_to_string buf

let u32_of s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

(* The pending region. Stream byte [a >= forced_len] lives in chunk
   [(a - chunk_base) / page_size]; chunks are page-sized, so a full one
   is handed to the store as it stands. *)

let chunk_base t = t.forced_len - (t.forced_len mod t.page_size)

(* The chunk holding chunk offset [pos]; a write crossing into a new page
   adds it. *)
let chunk t pos =
  let i = pos / t.page_size in
  if i = Vec.length t.chunks then Vec.push t.chunks (Bytes.create t.page_size);
  Vec.get t.chunks i

(* [v] as a little-endian length word at chunk offset [pos]. *)
let put_u32 t pos v =
  for k = 0 to 3 do
    Bytes.set (chunk t (pos + k)) ((pos + k) mod t.page_size) (Char.chr ((v lsr (8 * k)) land 0xFF))
  done

(* Read [len] pending stream bytes at stream address [a] out of the
   chunks. *)
let chunk_read t a len =
  let buf = Bytes.create len in
  let at = a - chunk_base t in
  let copied = ref 0 in
  while !copied < len do
    let pos = at + !copied in
    let o = pos mod t.page_size in
    let n = min (len - !copied) (t.page_size - o) in
    Bytes.blit (Vec.get t.chunks (pos / t.page_size)) o buf !copied n;
    copied := !copied + n
  done;
  Bytes.unsafe_to_string buf

let pending_payload t a = chunk_read t (a + 4) (u32_of (chunk_read t a 4) 0)

(* Index of pending entry [a]: the pending addresses are ascending. *)
let find_pending t a =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let m = Vec.get t.pending mid in
      if m = a then Some mid else if m < a then go (mid + 1) hi else go lo mid
  in
  go 0 (Vec.length t.pending)

let read t a =
  check_alive t;
  if a < 0 then invalid_arg "Stable_log.read: negative address";
  if a < t.low_water then invalid_arg "Stable_log.read: address below the low-water mark";
  let payload =
    if a < t.forced_len then begin
      if a + 4 > t.forced_len then invalid_arg "Stable_log.read: bad address";
      let len = u32_of (read_forced_bytes t ~off:a ~len:4) 0 in
      if len < 0 || a + frame_overhead + len > t.forced_len then
        invalid_arg "Stable_log.read: not an entry boundary";
      read_forced_bytes t ~off:(a + 4) ~len
    end
    else
      match find_pending t a with
      | Some _ -> pending_payload t a
      | None -> invalid_arg "Stable_log.read: not an entry boundary"
  in
  t.entry_reads <- t.entry_reads + 1;
  t.bytes_read <- t.bytes_read + String.length payload;
  payload

(* Address of the entry preceding the one at [a], if any. The backward
   chain terminates at the low-water mark: everything below was retired
   by housekeeping. *)
let prev_addr t a =
  if a <= t.low_water then None
  else if a <= t.forced_len then begin
    if a < 4 then invalid_arg "Stable_log.prev_addr: not an entry boundary";
    (* The trailing length word comes off the (possibly corrupt) store:
       bound it before trusting it, like [read] does for leading words. *)
    let len_prev = u32_of (read_forced_bytes t ~off:(a - 4) ~len:4) 0 in
    let p = a - frame_overhead - len_prev in
    if len_prev < 0 || p < t.low_water then
      invalid_arg "Stable_log.prev_addr: not an entry boundary";
    Some p
  end
  else
    (* [a] is in the pending region: its predecessor is the pending entry
       before it, or for the oldest one the last forced entry. *)
    let before i =
      if i > 0 then Some (Vec.get t.pending (i - 1))
      else if t.last_offset >= t.low_water then Some t.last_offset
      else None
    in
    match find_pending t a with
    | Some i -> before i
    | None ->
        if a = t.forced_len + t.pending_bytes then before (Vec.length t.pending)
        else invalid_arg "Stable_log.prev_addr: not an entry boundary"

let read_backward t a =
  check_alive t;
  let rec seq a () =
    match a with
    | None -> Seq.Nil
    | Some a -> Seq.Cons ((a, read t a), seq (prev_addr t a))
  in
  seq (Some a)

let end_addr t =
  check_alive t;
  t.forced_len + t.pending_bytes

let read_forward t a =
  check_alive t;
  let rec seq a () =
    if a >= end_addr t then Seq.Nil
    else
      let payload = read t a in
      Seq.Cons ((a, payload), seq (a + frame_overhead + String.length payload))
  in
  seq a

type segment_scan = {
  scan_id : int;
  scan_base : addr;
  scan_len : int;
  scan_first : addr option;
  scan_frames : int;
}

(* Per-segment partitioned scan of the live forced stream. Each live
   segment's byte range is slurped in one bulk read (every page fetched
   exactly once) and framed forward in place; an entry straddling a
   segment boundary belongs to the segment its frame starts in, with the
   spilled suffix read from the neighbour's pages. The only cross-reader
   dependency is the first frame boundary inside each range, threaded
   from the previous reader's overshoot — everything else is
   self-contained, which is what makes the readers logically
   independent. *)
let scan_segments t f =
  check_alive t;
  let lo_all = t.low_water and hi_all = t.forced_len in
  let cap = t.segment_pages * t.page_size in
  let ranges =
    List.filter_map
      (fun (idx, id) ->
        let base = idx * cap in
        let lo = max base lo_all and hi = min (base + cap) hi_all in
        if hi > lo then Some (id, lo, hi) else None)
      t.table
  in
  let stats = ref [] in
  let pos = ref lo_all in
  (* next frame boundary, carried range to range *)
  List.iter
    (fun (id, lo, hi) ->
      let first = if !pos >= lo && !pos < hi then Some !pos else None in
      let frames = ref 0 in
      if first <> None then begin
        let data = read_forced_bytes t ~off:lo ~len:(hi - lo) in
        let bytes = ref 0 in
        while !pos < hi do
          let off = !pos - lo in
          let len =
            if off + 4 <= hi - lo then u32_of data off
            else u32_of (read_forced_bytes t ~off:!pos ~len:4) 0
          in
          if len < 0 || !pos + frame_overhead + len > hi_all then
            invalid_arg "Stable_log.scan_segments: bad frame";
          (* Hand the callback a view into the bulk buffer so it can peek
             (and skip) a frame without copying it; only a frame spilling
             past the range needs its own materialized read. *)
          if off + 4 + len <= hi - lo then f !pos data ~off:(off + 4) ~len
          else f !pos (read_forced_bytes t ~off:(!pos + 4) ~len) ~off:0 ~len;
          incr frames;
          bytes := !bytes + len;
          pos := !pos + frame_overhead + len
        done;
        t.entry_reads <- t.entry_reads + !frames;
        t.bytes_read <- t.bytes_read + !bytes
      end;
      stats :=
        { scan_id = id; scan_base = lo; scan_len = hi - lo; scan_first = first; scan_frames = !frames }
        :: !stats)
    ranges;
  List.rev !stats

(* Frame the encoder's contents straight into the chunks:
   [u32 length ++ payload ++ u32 length]. *)
let write_with t f =
  check_alive t;
  Codec.Enc.clear t.enc;
  f t.enc;
  let len = Codec.Enc.length t.enc in
  let a = t.forced_len + t.pending_bytes in
  let at = a - chunk_base t in
  put_u32 t at len;
  let copied = ref 0 in
  while !copied < len do
    let pos = at + 4 + !copied in
    let o = pos mod t.page_size in
    let n = min (len - !copied) (t.page_size - o) in
    Codec.Enc.blit t.enc !copied (chunk t pos) o n;
    copied := !copied + n
  done;
  put_u32 t (at + 4 + len) len;
  Vec.push t.pending a;
  t.pending_bytes <- t.pending_bytes + frame_overhead + len;
  Trace.emit (Trace.Log_write { log = t.label; addr = a; bytes = len });
  a

let write t entry = write_with t (fun enc -> Codec.Enc.raw enc entry)

(* The store (and the store page within it) backing stream page [p],
   allocating and formatting a fresh segment when the stream grows past
   the current tail. A new segment is an {e orphan} until the log header
   links it: a crash before that header write leaves it unreferenced, and
   [Log_dir.open_] sweeps it back into the pool. *)
let ensure_page_store t p =
  let idx = p / t.segment_pages in
  let store_page = 1 + (p mod t.segment_pages) in
  match List.assoc_opt idx t.table with
  | Some id -> (segment_store t id, store_page, false)
  | None ->
      let id, store = t.provider.alloc () in
      let hdr =
        {
          seg_id = id;
          seg_index = idx;
          seg_prev_id = List.assoc_opt (idx - 1) t.table;
          seg_base = idx * t.segment_pages * t.page_size;
          seg_page_size = t.page_size;
          seg_pages = t.segment_pages;
        }
      in
      Store.put store 0 (encode_segment_header hdr);
      t.table <- List.merge compare t.table [ (idx, id) ];
      if Trace.recording () then Trace.emit (Trace.Segment_alloc { id; index = idx })
      else Trace.skip ();
      seg_event (Seg_alloc id);
      (store, store_page, true)

(* Flush the pending entries: hand each chunk to the page cache and the
   store (only a partial last page is cut to length; full chunks go as
   they stand and are never written again), then commit by writing the
   header. The header write is also what links any segments allocated for
   the new pages into the chain — one atomic step commits both the bytes
   and the segment table. [write_around] sends full pages to the store
   only, dropping any cached copy; the partial tail page is cached either
   way, since the next force reads it back for its stable prefix. *)
let force ?(write_around = false) t =
  check_alive t;
  if not (Vec.is_empty t.pending) then begin
    let start = t.forced_len in
    let first_page = start / t.page_size in
    let prefix_len = start mod t.page_size in
    (* Prefix of the first dirty page that is already stable. *)
    if prefix_len > 0 then
      Bytes.blit_string (page_data t first_page) 0 (Vec.get t.chunks 0) 0 prefix_len;
    let total = prefix_len + t.pending_bytes in
    let linked = ref false in
    Vec.iteri
      (fun i bytes ->
        let len = min t.page_size (total - (i * t.page_size)) in
        let page =
          if len = t.page_size then Bytes.unsafe_to_string bytes else Bytes.sub_string bytes 0 len
        in
        let store, store_page, fresh = ensure_page_store t (first_page + i) in
        if fresh then linked := true;
        if write_around && len = t.page_size then Lru.remove t.pages (first_page + i)
        else ignore (Lru.put t.pages (first_page + i) page);
        Store.put store store_page page)
      t.chunks;
    let count = Vec.length t.pending in
    let last = Vec.last t.pending in
    (* Capture the covered batch before clearing — the ship observer gets
       exactly the entries this force made durable. *)
    let batch =
      match t.on_force with
      | None -> []
      | Some _ -> List.map (fun a -> (a, pending_payload t a)) (Vec.to_list t.pending)
    in
    t.forced_len <- start + t.pending_bytes;
    t.forced_entries <- t.forced_entries + count;
    t.last_offset <- last;
    Vec.clear t.pending;
    Vec.clear t.chunks;
    t.pending_bytes <- 0;
    if not (Fault_hook.mutated Skip_header_write) then write_header t;
    if !linked then seg_event Seg_link;
    t.forces <- t.forces + 1;
    Metrics.incr m_forces;
    Metrics.observe h_force_bytes (t.forced_len - start);
    Trace.emit (Trace.Log_force { log = t.label; entries = count; stream_bytes = t.forced_len });
    Option.iter
      (fun f ->
        f
          {
            fb_base = start;
            fb_entries = batch;
            fb_table = t.table;
            fb_low_water = t.low_water;
          })
      t.on_force;
    boundary Forced
  end

let force_write t entry =
  let a = write t entry in
  force t;
  a

(* Release one segment's pages back to the pool (volatile bookkeeping
   only — the commit point is whichever header/root write made the
   segment unreachable first). *)
let release_segment t id =
  t.provider.release id;
  if Trace.recording () then Trace.emit (Trace.Segment_retire { id }) else Trace.skip ();
  seg_event (Seg_retire id)

(* Online space reclamation: raise the low-water mark to [addr] (clamped
   to the forced stream — pending bytes are volatile, there is nothing to
   reclaim there) and retire every segment lying wholly below it. The
   header write naming the new mark and the shrunken table is the single
   atomic commit point; pages are returned only after it, so a crash
   between the two leaves unreferenced segments for [Log_dir.open_] to
   sweep. The segment containing the forced tail is never retired here —
   it still backs the read-modify-write prefix of the next force —
   [destroy] returns it when the whole log dies. *)
let retire_below t addr =
  check_alive t;
  if addr < 0 then invalid_arg "Stable_log.retire_below: negative address";
  let addr = min addr t.forced_len in
  if addr > t.low_water then begin
    t.low_water <- addr;
    let cap = t.segment_pages * t.page_size in
    let dead, live = List.partition (fun (idx, _) -> (idx + 1) * cap <= addr) t.table in
    t.table <- live;
    write_header t;
    seg_event Seg_link;
    List.iter (fun (_, id) -> release_segment t id) dead;
    if dead <> [] then Lru.clear t.pages
  end

let get_top t =
  check_alive t;
  if t.last_offset < t.low_water then None else Some t.last_offset

let entry_count t =
  check_alive t;
  t.forced_entries + Vec.length t.pending

let forced_count t =
  check_alive t;
  t.forced_entries

let is_forced t a =
  check_alive t;
  a >= 0 && a < t.forced_len

let stream_bytes t =
  check_alive t;
  t.forced_len

let low_water t =
  check_alive t;
  t.low_water

let live_bytes t =
  check_alive t;
  t.forced_len - t.low_water

let page_size t = t.page_size

let segment_pages t = t.segment_pages

let segment_table t = t.table

let forces t =
  check_alive t;
  t.forces

let entry_reads t =
  check_alive t;
  t.entry_reads

let bytes_read t =
  check_alive t;
  t.bytes_read

let cache_hits t = t.cache_hits
let cache_misses t = t.cache_misses
let store t = t.store

(* Invalidate the handle and return every live segment to the pool: once
   a log is destroyed (the old log after a [Log_dir.switch]) nothing can
   reference its pages again — the root no longer names its slot. *)
let destroy t =
  if t.alive then begin
    t.alive <- false;
    Lru.clear t.pages;
    let ids = List.map snd t.table in
    t.table <- [];
    List.iter (release_segment t) ids
  end
