module Store = Rs_storage.Stable_store
module Codec = Rs_util.Codec
module Metrics = Rs_obs.Metrics
module Trace = Rs_obs.Trace

let m_swept = Metrics.counter "slog.orphan_segments_swept"

(* The segment pool shared by the two log generations. Stores are created
   lazily on [alloc] and dropped from the registry on [release]; a
   released store's I/O tallies and page count are folded into the
   [retired_*] accumulators so the directory-wide totals stay monotone.
   The pool is deliberately a separate record from [t]: the provider
   closures the logs hold capture only the pool, so [create] can build the
   first log before the directory record exists. *)
type pool = {
  mk : int -> Store.t;
  registry : (int, Store.t) Hashtbl.t;
  segment_pages : int;
  mutable next_id : int;
  mutable retired_writes : int;
  mutable retired_reads : int;
  mutable retired_count : int;
}

let pool_release pool id =
  match Hashtbl.find_opt pool.registry id with
  | None -> invalid_arg (Printf.sprintf "Log_dir: segment %d released twice" id)
  | Some store ->
      pool.retired_writes <- pool.retired_writes + Store.physical_writes store;
      pool.retired_reads <- pool.retired_reads + Store.physical_reads store;
      pool.retired_count <- pool.retired_count + 1;
      Hashtbl.remove pool.registry id

let provider_of pool : Stable_log.provider =
  {
    alloc =
      (fun () ->
        let id = pool.next_id in
        pool.next_id <- id + 1;
        let store = pool.mk (1 + pool.segment_pages) in
        Hashtbl.replace pool.registry id store;
        (id, store));
    lookup = (fun id -> Hashtbl.find_opt pool.registry id);
    release = (fun id -> pool_release pool id);
  }

type t = {
  root : Store.t;
  slots : Store.t array; (* two log-anchor slots *)
  page_size : int;
  pool : pool;
  mutable cur : int; (* index of the current slot, mirrored in [root] *)
  mutable cur_log : Stable_log.t;
  mutable pending : Stable_log.t option; (* new log under construction *)
  mutable label : string; (* owner tag, stamped on every log generation *)
  mutable on_switch : (unit -> unit) option;
      (* fires after a completed [switch] — replication re-seeds the
         standby from the new generation here *)
}

let encode_root cur =
  let enc = Codec.Enc.create ~size:4 () in
  Codec.Enc.varint enc cur;
  Codec.Enc.contents enc

let decode_root s =
  let dec = Codec.Dec.of_string s in
  let cur = Codec.Dec.varint dec in
  Codec.Dec.expect_end dec;
  if cur <> 0 && cur <> 1 then failwith "Log_dir: corrupt root";
  cur

let mk_log ~page_size pool store =
  Stable_log.create ~page_size ~segment_pages:pool.segment_pages ~provider:(provider_of pool)
    store

let create ?(page_size = 1024) ?(segment_pages = 8) () =
  if segment_pages < 1 then invalid_arg "Log_dir.create: segment_pages must be >= 1";
  let mk pages = Store.create ~pages () in
  let pool =
    {
      mk;
      registry = Hashtbl.create 16;
      segment_pages;
      next_id = 0;
      retired_writes = 0;
      retired_reads = 0;
      retired_count = 0;
    }
  in
  let root = mk 1 in
  let slots = [| mk 1; mk 1 |] in
  Store.put root 0 (encode_root 0);
  let cur_log = mk_log ~page_size pool slots.(0) in
  { root; slots; page_size; pool; cur = 0; cur_log; pending = None; label = ""; on_switch = None }

let scrub t =
  Store.recover t.root;
  Array.iter Store.recover t.slots;
  Hashtbl.iter (fun _ s -> Store.recover s) t.pool.registry

let open_ t =
  (* Only the root page and the current anchor's header are read here,
     each by a careful get that mends its pair; the log mends each segment
     page the same way when it reads it. No page is rewritten unmended: a
     full stream page is written once, and a force reads the tail page's
     stable prefix before rewriting it. *)
  let cur =
    match Store.get t.root 0 with
    | Some s -> decode_root s
    | None -> failwith "Log_dir.open_: lost root page"
  in
  let cur_log = Stable_log.open_ ~provider:(provider_of t.pool) t.slots.(cur) in
  (* Orphan sweep. A crash can strand segments no header reaches: a force
     died between allocating a segment and the header write linking it; a
     retirement or switch died between its commit write and the page
     release; or a pending log (whose slot the root never came to name)
     was simply abandoned. The current log's segment table is the sole
     source of truth — every registered id outside it goes back to the
     pool. Ids are never reused across the sweep: [next_id] is advanced
     past every registered id first. *)
  let pool = t.pool in
  pool.next_id <- Hashtbl.fold (fun id _ acc -> max acc (id + 1)) pool.registry pool.next_id;
  let live = List.map snd (Stable_log.segment_table cur_log) in
  let orphans =
    Hashtbl.fold (fun id _ acc -> if List.mem id live then acc else id :: acc) pool.registry []
  in
  List.iter
    (fun id ->
      pool_release pool id;
      Metrics.incr m_swept;
      if Trace.recording () then Trace.emit (Trace.Segment_retire { id }) else Trace.skip ())
    (List.sort compare orphans);
  Stable_log.set_label cur_log t.label;
  {
    root = t.root;
    slots = t.slots;
    page_size = t.page_size;
    pool = t.pool;
    cur;
    cur_log;
    pending = None;
    label = t.label;
    on_switch = None;
  }

let current t = t.cur_log

(* The pending log coexists with the current one during incremental
   checkpointing; a distinct label keeps their interleaved writes apart in
   the trace (the monotonicity monitor tracks per-label streams). *)
let pending_label t = if t.label = "" then "" else t.label ^ ":pending"

let set_label t s =
  t.label <- s;
  Stable_log.set_label t.cur_log s;
  match t.pending with
  | Some log -> Stable_log.set_label log (pending_label t)
  | None -> ()

let label t = t.label

let set_on_switch t h = t.on_switch <- h

let begin_new t =
  let spare = 1 - t.cur in
  let log = mk_log ~page_size:t.page_size t.pool t.slots.(spare) in
  Stable_log.set_label log (pending_label t);
  t.pending <- Some log;
  log

let switch t =
  match t.pending with
  | None -> invalid_arg "Log_dir.switch: no pending log"
  | Some log ->
      Stable_log.force log;
      let old = t.cur_log in
      (* The root write is the atomic switch: from here the new log is
         current and every page of the old generation is reclaimable. *)
      Store.put t.root 0 (encode_root (1 - t.cur));
      t.cur <- 1 - t.cur;
      t.cur_log <- log;
      t.pending <- None;
      (* Promote the pending log's trace stream to the owner label. *)
      Stable_log.set_label log t.label;
      (* Nothing reads the old anchor again: [open_] reads only the
         current slot and [begin_new] reformats the spare one. Destroying
         the handle returns every old segment to the pool; a crash before
         that leaves orphans for [open_] to sweep. *)
      Stable_log.destroy old;
      (match t.on_switch with Some f -> f () | None -> ())

let page_size t = t.page_size

let segment_pages t = t.pool.segment_pages

let segment_ids t =
  List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.pool.registry [])

let segment_store t id = Hashtbl.find_opt t.pool.registry id
let live_segments t = Hashtbl.length t.pool.registry
let segments_retired t = t.pool.retired_count

let live_pages t =
  let base = Store.pages t.root + Store.pages t.slots.(0) + Store.pages t.slots.(1) in
  Hashtbl.fold (fun _ s acc -> acc + Store.pages s) t.pool.registry base

let pending_log t = t.pending

let stores t =
  t.root :: t.slots.(0) :: t.slots.(1)
  :: List.filter_map (fun id -> segment_store t id) (segment_ids t)

let physical_writes t =
  let seg =
    Hashtbl.fold (fun _ s acc -> acc + Store.physical_writes s) t.pool.registry
      t.pool.retired_writes
  in
  Store.physical_writes t.root
  + Store.physical_writes t.slots.(0)
  + Store.physical_writes t.slots.(1)
  + seg

let physical_reads t =
  let seg =
    Hashtbl.fold (fun _ s acc -> acc + Store.physical_reads s) t.pool.registry
      t.pool.retired_reads
  in
  Store.physical_reads t.root
  + Store.physical_reads t.slots.(0)
  + Store.physical_reads t.slots.(1)
  + seg
