module Codec = Rs_util.Codec
module Vec = Rs_util.Vec
module Lru = Rs_util.Lru
module Store = Rs_storage.Stable_store
module Metrics = Rs_obs.Metrics
module Trace = Rs_obs.Trace

let m_forces = Metrics.counter "slog.forces"
let m_cache_hits = Metrics.counter "slog.cache_hits"
let m_cache_misses = Metrics.counter "slog.cache_misses"
let h_force_bytes = Metrics.histogram "slog.force_bytes"

type addr = int

(* Frames are [u32 length ++ payload ++ u32 length]; an entry's address is
   the offset of its leading length word in the stream. *)
let frame_overhead = 8

(* Fault-point census hook (Rs_explore): observes every completed force on
   every log of the process. Raising from the hook models a crash landing
   on the force boundary — the force is stable, the caller's continuation
   is lost. One slot; the explorer installs/uninstalls it per run. *)
let force_hook : (unit -> unit) option ref = ref None

let set_force_hook h = force_hook := h

(* Self-test mutation switch: when set, [force] "forgets" the header
   write — the single atomic commit point of the force — so forced
   entries silently fail to survive a crash. Exists only so the
   Rs_explore oracle suite can prove it detects a recovery system whose
   forces lie ([argusctl explore --break-force] and the explore
   self-test). Never set outside those paths. *)
let skip_header_write = ref false

let set_skip_header_write b = skip_header_write := b

(* ------------------------------------------------------------------ *)
(* Segments. A segmented log spreads its stream pages over fixed-size
   segment stores obtained from a provider (Log_dir's shared pool); the
   anchor store then holds only the header page. Stream page [g] lives in
   segment [g / segment_pages] at store page [1 + g mod segment_pages]
   (page 0 of every segment store is its self-describing header). *)

type provider = {
  alloc : unit -> int * Store.t;
  lookup : int -> Store.t option;
  release : int -> unit;
}

type segment_event = Seg_alloc of int | Seg_link | Seg_retire of int

(* Segment-boundary census hook (Rs_explore): fires after a segment store
   is allocated and formatted (but before the log header links it), after
   a header write that changed the segment table or low-water mark (the
   chain-link/retirement commit point), and after each segment's pages
   are returned. Raising [Disk.Crash] from the hook lands a crash exactly
   on that boundary. One client at a time. *)
let segment_hook : (segment_event -> unit) option ref = ref None

let set_segment_hook h = segment_hook := h

let seg_event ev = match !segment_hook with Some f -> f ev | None -> ()

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

type segmentation = {
  provider : provider;
  segment_pages : int; (* data pages per segment *)
  mutable table : (int * int) list; (* index -> segment id, ascending index *)
}

type t = {
  store : Store.t; (* the anchor: holds the header page *)
  page_size : int;
  seg : segmentation option;
  mutable forced_len : int; (* stable stream bytes *)
  mutable low_water : int; (* addresses below are retired: unreadable, unchained *)
  mutable forced_entries : int;
  mutable last_offset : int; (* address of the last forced entry; -1 if none *)
  pending : (addr * string) Vec.t; (* buffered entries with assigned addresses *)
  pending_idx : (addr, string * addr option) Hashtbl.t;
      (* address -> (entry, predecessor address); mirrors [pending] so
         lookups over the unforced region are O(1) instead of a scan —
         group commit can grow this region to many entries per force. *)
  mutable last_pending : addr option; (* newest pending entry, if any *)
  mutable pending_bytes : int;
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
         ship point. Distinct from the process-wide explorer [force_hook]. *)
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
  Codec.Enc.varint enc (match t.seg with None -> 0 | Some s -> s.segment_pages);
  Codec.Enc.list
    (Codec.Enc.pair Codec.Enc.varint Codec.Enc.varint)
    enc
    (match t.seg with None -> [] | Some s -> s.table);
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

let mk ~store ~page_size ~seg ~cache_pages ~forced_len ~low_water ~forced_entries
    ~last_offset =
  {
    store;
    page_size;
    seg;
    forced_len;
    low_water;
    forced_entries;
    last_offset;
    pending = Vec.create ();
    pending_idx = Hashtbl.create 64;
    last_pending = None;
    pending_bytes = 0;
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

let create ?(page_size = 1024) ?(cache_pages = 128) ?segment_pages ?provider store =
  if page_size <= 0 then invalid_arg "Stable_log.create: page_size must be positive";
  if cache_pages <= 0 then invalid_arg "Stable_log.create: cache_pages must be positive";
  let seg =
    match (segment_pages, provider) with
    | (None | Some 0), _ -> None (* a provider alone leaves the log monolithic *)
    | Some n, _ when n < 0 -> invalid_arg "Stable_log.create: segment_pages must be >= 0"
    | Some _, None -> invalid_arg "Stable_log.create: segment_pages requires a provider"
    | Some n, Some provider -> Some { provider; segment_pages = n; table = [] }
  in
  let t =
    mk ~store ~page_size ~seg ~cache_pages ~forced_len:0 ~low_water:0 ~forced_entries:0
      ~last_offset:(-1)
  in
  write_header t;
  (* Reformatting returns any data pages a previous occupant provisioned:
     only the header page survives a [create]. Shrink strictly {e after}
     the header put commits the empty log — a crash during that put leaves
     the old header, which must still find its data pages. *)
  Store.shrink store 1;
  t

let open_ ?(cache_pages = 128) ?provider store =
  match Store.get store 0 with
  | None -> failwith "Stable_log.open_: no log header"
  | Some hdr ->
      let forced_len, forced_entries, last_offset, page_size, low_water, segment_pages, table
          =
        try decode_header hdr
        with Codec.Error msg -> failwith ("Stable_log.open_: bad header: " ^ msg)
      in
      let seg =
        if segment_pages = 0 then None
        else
          match provider with
          | Some provider -> Some { provider; segment_pages; table }
          | None -> failwith "Stable_log.open_: segmented log needs a provider"
      in
      mk ~store ~page_size ~seg ~cache_pages ~forced_len ~low_water ~forced_entries
        ~last_offset

(* Byte access: stream byte [i] lives on stream page [i/page_size] —
   store page [1 + that] of the anchor (monolithic) or of the covering
   segment. Pages are fetched on demand through a bounded LRU cache;
   absent bytes (never forced, or in the pending region) come from the
   pending buffer. *)

let fetch_page t p =
  match t.seg with
  | None -> (
      match Store.get t.store (1 + p) with
      | Some data -> data
      | None -> failwith (Printf.sprintf "Stable_log: lost data page %d" p))
  | Some s -> (
      let idx = p / s.segment_pages in
      match List.assoc_opt idx s.table with
      | None -> failwith (Printf.sprintf "Stable_log: page %d has no live segment" p)
      | Some id -> (
          match s.provider.lookup id with
          | None -> failwith (Printf.sprintf "Stable_log: segment %d not in the pool" id)
          | Some store -> (
              match Store.get store (1 + (p mod s.segment_pages)) with
              | Some data -> data
              | None -> failwith (Printf.sprintf "Stable_log: lost data page %d" p))))

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

let u32_to v =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr (v land 0xFF));
  Bytes.set b 1 (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b 2 (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b 3 (Char.chr ((v lsr 24) land 0xFF));
  Bytes.unsafe_to_string b

let frame entry = u32_to (String.length entry) ^ entry ^ u32_to (String.length entry)

let find_pending t a =
  match Hashtbl.find_opt t.pending_idx a with
  | Some (e, _) -> Some e
  | None -> None

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
      | Some e -> e
      | None -> invalid_arg "Stable_log.read: not an entry boundary"
  in
  t.entry_reads <- t.entry_reads + 1;
  t.bytes_read <- t.bytes_read + String.length payload;
  payload

(* Address of the entry preceding the one at [a], if any. The backward
   chain terminates at the low-water mark: everything below was retired
   by housekeeping. *)
let rec prev_addr t a =
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
    (* [a] is in the pending region; use the index. *)
    match Hashtbl.find_opt t.pending_idx a with
    | Some (_, prev) -> prev
    | None ->
        if a = t.forced_len + t.pending_bytes then
          (* One past the newest entry: the predecessor is the newest
             pending entry, or the last forced one. *)
          match t.last_pending with
          | Some pa -> Some pa
          | None -> if t.forced_len > t.low_water then prev_addr t t.forced_len else None
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
  let ranges =
    match t.seg with
    | None -> if hi_all > lo_all then [ (-1, lo_all, hi_all) ] else []
    | Some s ->
        let cap = s.segment_pages * t.page_size in
        List.filter_map
          (fun (idx, id) ->
            let base = idx * cap in
            let lo = max base lo_all and hi = min (base + cap) hi_all in
            if hi > lo then Some (id, lo, hi) else None)
          s.table
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

let write t entry =
  check_alive t;
  let a = t.forced_len + t.pending_bytes in
  let prev =
    match t.last_pending with
    | Some _ as p -> p
    | None -> if t.last_offset >= t.low_water then Some t.last_offset else None
  in
  Vec.push t.pending (a, entry);
  Hashtbl.replace t.pending_idx a (entry, prev);
  t.last_pending <- Some a;
  t.pending_bytes <- t.pending_bytes + frame_overhead + String.length entry;
  Trace.emit (Trace.Log_write { log = t.label; addr = a; bytes = String.length entry });
  a

(* The store (and the store page within it) backing stream page [p],
   allocating and formatting a fresh segment when the stream grows past
   the current tail. A new segment is an {e orphan} until the log header
   links it: a crash before that header write leaves it unreferenced, and
   [Log_dir.open_] sweeps it back into the pool. *)
let ensure_page_store t p =
  match t.seg with
  | None -> (t.store, 1 + p, false)
  | Some s -> (
      let idx = p / s.segment_pages in
      let store_page = 1 + (p mod s.segment_pages) in
      match List.assoc_opt idx s.table with
      | Some id -> (
          match s.provider.lookup id with
          | Some store -> (store, store_page, false)
          | None -> failwith (Printf.sprintf "Stable_log: segment %d not in the pool" id))
      | None ->
          let id, store = s.provider.alloc () in
          let hdr =
            {
              seg_id = id;
              seg_index = idx;
              seg_prev_id = List.assoc_opt (idx - 1) s.table;
              seg_base = idx * s.segment_pages * t.page_size;
              seg_page_size = t.page_size;
              seg_pages = s.segment_pages;
            }
          in
          Store.put store 0 (encode_segment_header hdr);
          s.table <- List.merge compare s.table [ (idx, id) ];
          Trace.emit (Trace.Segment_alloc { id; index = idx });
          seg_event (Seg_alloc id);
          (store, store_page, true))

(* Flush the pending entries: extend the stream, rewrite the dirty pages
   (read-modify-write of the partial last page via the cache), then commit
   by writing the header. The header write is also what links any segments
   allocated for the new pages into the chain — one atomic step commits
   both the bytes and the segment table. *)
let force t =
  check_alive t;
  if not (Vec.is_empty t.pending) then begin
    let start = t.forced_len in
    let buf = Buffer.create (t.pending_bytes + t.page_size) in
    (* Prefix of the first dirty page that is already stable. *)
    let first_page = start / t.page_size in
    let prefix_len = start mod t.page_size in
    if prefix_len > 0 then Buffer.add_string buf (String.sub (page_data t first_page) 0 prefix_len);
    Vec.iter (fun (_, e) -> Buffer.add_string buf (frame e)) t.pending;
    let data = Buffer.contents buf in
    let npages = (String.length data + t.page_size - 1) / t.page_size in
    let linked = ref false in
    for i = 0 to npages - 1 do
      let off = i * t.page_size in
      let len = min t.page_size (String.length data - off) in
      let page = String.sub data off len in
      let store, store_page, fresh = ensure_page_store t (first_page + i) in
      if fresh then linked := true;
      ignore (Lru.put t.pages (first_page + i) page);
      Store.put store store_page page
    done;
    let count = Vec.length t.pending in
    let last, _ = Vec.last t.pending in
    (* Capture the covered batch before clearing — the ship observer gets
       exactly the entries this force made durable. *)
    let batch =
      match t.on_force with
      | None -> None
      | Some _ ->
          let entries = ref [] in
          Vec.iter (fun e -> entries := e :: !entries) t.pending;
          Some (List.rev !entries)
    in
    t.forced_len <- start + t.pending_bytes;
    t.forced_entries <- t.forced_entries + count;
    t.last_offset <- last;
    Vec.clear t.pending;
    Hashtbl.reset t.pending_idx;
    t.last_pending <- None;
    t.pending_bytes <- 0;
    if not !skip_header_write then write_header t;
    if !linked then seg_event Seg_link;
    t.forces <- t.forces + 1;
    Metrics.incr m_forces;
    Metrics.observe h_force_bytes (t.forced_len - start);
    Trace.emit (Trace.Log_force { log = t.label; entries = count; stream_bytes = t.forced_len });
    (match (t.on_force, batch) with
    | Some f, Some entries ->
        f
          {
            fb_base = start;
            fb_entries = entries;
            fb_table = (match t.seg with None -> [] | Some s -> s.table);
            fb_low_water = t.low_water;
          }
    | _ -> ());
    match !force_hook with Some f -> f () | None -> ()
  end

let force_write t entry =
  let a = write t entry in
  force t;
  a

(* Release one segment's pages back to the pool (volatile bookkeeping
   only — the commit point is whichever header/root write made the
   segment unreachable first). *)
let release_segment s id =
  s.provider.release id;
  Trace.emit (Trace.Segment_retire { id });
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
    let dead =
      match t.seg with
      | None -> []
      | Some s ->
          let cap = s.segment_pages * t.page_size in
          let dead, live = List.partition (fun (idx, _) -> ((idx + 1) * cap) <= addr) s.table in
          s.table <- live;
          List.map snd dead
    in
    write_header t;
    seg_event Seg_link;
    (match t.seg with
    | Some s ->
        List.iter (release_segment s) dead;
        if dead <> [] then Lru.clear t.pages
    | None -> ())
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

let segment_pages t = match t.seg with None -> 0 | Some s -> s.segment_pages

let segment_table t = match t.seg with None -> [] | Some s -> s.table

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
    match t.seg with
    | None -> ()
    | Some s ->
        let ids = List.map snd s.table in
        s.table <- [];
        List.iter (release_segment s) ids
  end
