(** The {e stable log} abstraction of §3.1 [Raible 83]: the interface the
    recovery system uses for all stable storage traffic.

    A log is an append-only sequence of entries (opaque strings here; the
    recovery system layers its entry formats on top) addressed by
    {!type-addr} — the byte offset of the entry's frame in the log stream,
    the thesis's abstract [log_address]. [write] buffers; [force_write]
    makes the entry and every buffered predecessor stable before
    returning. After a crash the unforced suffix is gone — exactly the
    property two-phase commit relies on when it forces outcome entries.

    On-disk layout (over atomic {!Rs_storage.Stable_store}s): the {e
    anchor} store holds one page, the header [(stream_length,
    entry_count, last_offset, page_size, low_water, segment_pages,
    segment_table)]. The entry stream is spread over fixed-size {e
    segment} stores drawn from a {!type-provider}'s pool: with
    [segment_pages = n], stream page [g] lives in segment [g / n] at store
    page [1 + g mod n], and page 0 of each segment store carries a
    self-describing {!type-segment_header}. Each entry is framed as
    [u32 length ++ payload ++ u32 length] — the trailing length lets
    {!read_backward} walk the log without an index. A force writes the
    dirty data pages and then the header; the header update is the single
    atomic commit point, so a crash mid-force leaves the previous
    consistent state. The header's segment table is the chain spine: a
    segment exists only once a header write names it (allocation commits
    with the same force that commits the bytes), and {!retire_below}
    unlinks wholly-dead segments with one header write before returning
    their pages — online space reclamation with the header as the single
    commit point throughout.

    {b The pending region.} Buffered entries are framed straight into
    page-sized byte chunks as they are written: chunk [i] is stream page
    [stream_bytes / page_size + i], and the first one leaves room for the
    stable prefix of the partial last page, copied in by {!force}. A force
    hands every full chunk to the page cache (unless it writes around it)
    and the store as it stands (only a partial last page is cut to
    length), so an entry's bytes are
    copied once from the encoder into the page that stores them. A chunk
    is never written again once forced: the next force starts fresh
    chunks. Reads of buffered addresses are served from the chunks.

    Reads fetch pages {e on demand} through a bounded LRU page cache, so
    recovery pays I/O only for the entries it actually visits — the cost
    difference between the simple log (visits everything) and the hybrid
    log (visits the outcome chain) is real, measurable I/O. *)

type t

type addr = int
(** Byte offset of an entry frame; the [log_address] of the thesis.
    Addresses increase monotonically with write order. *)

type provider = {
  alloc : unit -> int * Rs_storage.Stable_store.t;
      (** Draw a fresh, unused segment store from the pool; returns its
          pool-wide id. *)
  lookup : int -> Rs_storage.Stable_store.t option;
      (** The store for a previously allocated id, if still in the pool. *)
  release : int -> unit;
      (** Return a segment's pages to the pool. Volatile bookkeeping: the
          durable commit is the header write that unlinked the segment. *)
}
(** Segment pool interface, implemented by {!Log_dir} over a pool shared
    between the two log generations. *)

type segment_header = {
  seg_id : int;  (** pool id of this segment store *)
  seg_index : int;  (** position in the stream: covers pages [index*n ..] *)
  seg_prev_id : int option;
      (** id of the segment holding index-1 when this one was formatted;
          the redundant back link the fsck checks against the table *)
  seg_base : addr;  (** first stream byte covered *)
  seg_page_size : int;
  seg_pages : int;  (** data pages per segment, as the log was configured *)
}
(** Contents of logical page 0 of every segment store, written when the
    segment is formatted and immutable thereafter. *)

val decode_segment_header : string -> segment_header
(** Decode a segment store's page 0. Raises {!Rs_util.Codec.Error} on
    malformed input — used by the segment-chain fsck. *)

type segment_event =
  | Seg_alloc of int
      (** a fresh segment store was drawn and formatted (not yet linked) *)
  | Seg_link
      (** a header write changed the segment table or low-water mark —
          the chain-link / retirement commit point *)
  | Seg_retire of int  (** a segment's pages were returned to the pool *)

type Rs_util.Fault_hook.site +=
  | Forced
        (** a force completed, on any log: a [Crash] verdict raises
            {!Rs_storage.Disk.Crash} with the force stable and everything
            volatile after it lost *)
  | Segment of segment_event
        (** a segment lifecycle boundary, on any log; a [Crash] verdict
            raises {!Rs_storage.Disk.Crash} right after it *)

type Rs_util.Fault_hook.mutation +=
  | Skip_header_write
        (** Self-test mutation: every [force] skips its header write, so
            forced entries do not actually survive a crash. This
            deliberately breaks the durability contract — it exists only
            so the exploration oracle suite can verify that it catches a
            lying force (the [--break-force] self-test). *)

type force_batch = {
  fb_base : addr;  (** stream length before the force *)
  fb_entries : (addr * string) list;  (** covered entries, in address order *)
  fb_table : (int * int) list;  (** segment table after the force *)
  fb_low_water : addr;  (** low-water mark after the force *)
}
(** Exactly what one {!force} made durable, plus the segment-framing
    control state the header write committed alongside it — the unit of
    replication shipping. Built only when an observer is installed. *)

val set_on_force : t -> (force_batch -> unit) option -> unit
(** Install (or clear) this log's per-instance force observer, called after
    every completed force with the covered batch. [Rs_repl] ships each
    batch to the standby from here. Unlike the fault hook's {!Forced}
    site (seen on every log), this follows the log instance. *)

val set_label : t -> string -> unit
(** Tag the log with its owner's name ("G0", "G1:standby", …); stamped on
    [Log_force] trace events so spec monitors can relate a guardian's
    commits to its forces. *)

val label : t -> string

val create :
  ?page_size:int ->
  ?cache_pages:int ->
  segment_pages:int ->
  provider:provider ->
  Rs_storage.Stable_store.t ->
  t
(** [create ~segment_pages ~provider store] formats the anchor [store] as
    a fresh, empty log whose stream pages come from [provider] in
    segments of [segment_pages] data pages. [page_size] is the data bytes
    per logical page (default 1024); [cache_pages] bounds the volatile
    LRU page cache (default 128). Raises [Invalid_argument] if
    [segment_pages < 1]. *)

val open_ : ?cache_pages:int -> provider:provider -> Rs_storage.Stable_store.t -> t
(** [open_ ~provider store] re-opens a previously created log after a
    crash, recovering exactly the forced prefix; its segments resolve
    through [provider]. Reads only the header page — cost independent of
    log size. Raises [Failure] if [store] holds no valid log header. *)

val write_with : t -> (Rs_util.Codec.Enc.t -> unit) -> addr
(** [write_with t f] appends one entry (buffered; not yet stable) whose
    payload is what [f] encodes into the log's encoder, and returns its
    address. The log owns the encoder and empties it before calling [f];
    the bytes are framed straight into the pending pages. [f] must not
    write to the same log. *)

val write : t -> string -> addr
(** [write t s] appends [s] verbatim: {!write_with} for a payload that is
    already a string (a replicated entry). *)

val force_write : t -> string -> addr
(** Append an entry and force it — and all earlier buffered entries — to
    stable storage before returning (§3.1 operation 2). *)

val force : ?write_around:bool -> t -> unit
(** Force all buffered entries without appending. With [~write_around:true]
    (default [false]) the full pages of this force go to the store only,
    and any cached copy of them is dropped; the partial tail page is
    cached either way, because the next force reads it back for its stable
    prefix. A checkpoint forces its new generation this way: nothing on
    the hot path reads snapshot pages back (recovery opens a fresh log
    with an empty cache), so caching them would only keep a second copy
    of pages the store already holds. The choice is scoped to this one
    call: a crash raised mid-force leaves no setting behind. *)

val read : t -> addr -> string
(** [read t a] is the entry at address [a] (forced or still buffered).
    Raises [Invalid_argument] if [a] is not an entry boundary or lies
    below the low-water mark (its pages may be retired). *)

val read_backward : t -> addr -> (addr * string) Seq.t
(** Entries from address [a] down to the first {e live} entry (§3.1
    operation 4), using the trailing-length back chain; the walk stops at
    the low-water mark. *)

val read_forward : t -> addr -> (addr * string) Seq.t
(** Entries from address [a] (inclusive) to the end of the log, buffered
    entries included — used by housekeeping to carry post-marker entries
    to a new log. *)

type segment_scan = {
  scan_id : int;  (** pool id of the segment *)
  scan_base : addr;  (** first live stream byte the reader covered *)
  scan_len : int;  (** live stream bytes in the reader's range *)
  scan_first : addr option;
      (** first frame boundary inside the range; [None] when every byte in
          it is the spilled tail of the previous segment's last entry *)
  scan_frames : int;  (** frames whose address lies in the range *)
}
(** What one partitioned reader covered — per-segment recovery-scan
    statistics. *)

val scan_segments :
  t -> (addr -> string -> off:int -> len:int -> unit) -> segment_scan list
(** Partitioned forward scan of the live forced stream
    [[low_water, stream_bytes)]: one reader per live segment, each
    slurping its segment's pages in a single bulk read and framing the
    entries in place — every page is fetched exactly once, instead of
    once per entry visit as with {!read}. [f addr buf ~off ~len] is
    called for every live forced entry, in ascending address order; the
    payload is [buf.[off .. off+len-1]] — a view into the reader's bulk
    buffer, so a callback that peeks and skips a frame copies nothing.
    An entry
    straddling a segment boundary is delivered by the reader owning its
    frame's start. Buffered (unforced) entries are not visited — after a
    crash they are gone anyway. Returns the per-reader statistics,
    ascending by base address. *)

val end_addr : t -> addr
(** The address the next written entry will receive; entries at addresses
    >= this do not exist yet (the housekeeping marker, §5.1.1). *)

val get_top : t -> addr option
(** Address of the last entry {e forced} to the log, or [None] if empty
    or everything forced has been retired (§3.1 operation 5). *)

val retire_below : t -> addr -> unit
(** [retire_below t a] declares every entry below address [a] dead —
    recovery will never visit it again — and reclaims the space it can:
    the low-water mark rises to [a] (clamped to the forced stream) and
    every segment wholly below the mark is unlinked and its pages
    returned to the pool. The header write recording the
    new mark and table is the single atomic commit point; pages are
    released only after it, so a crash in between merely leaves orphan
    segments for {!Log_dir.open_} to sweep. The segment containing the
    forced tail survives even when wholly dead — it still backs the
    read-modify-write prefix of the next force. *)

val entry_count : t -> int
(** Total entries including buffered ones. *)

val forced_count : t -> int
val is_forced : t -> addr -> bool

val stream_bytes : t -> int
(** Bytes of entry stream forced so far (retired bytes included — stream
    addresses are never reused). *)

val low_water : t -> addr
(** Addresses below this are retired: unreadable and unchained. 0 until
    the first {!retire_below}. *)

val live_bytes : t -> int
(** [stream_bytes - low_water]: the stream bytes recovery could still
    visit — the footprint metric housekeeping is meant to bound. *)

val page_size : t -> int

val segment_pages : t -> int
(** Data pages per segment. *)

val segment_table : t -> (int * int) list
(** Live [(index, segment id)] pairs, ascending index. *)

val forces : t -> int
(** Number of force operations performed (each costs synchronous I/O). *)

val entry_reads : t -> int
(** Entries handed out by [read]/[read_backward] — the recovery-cost
    metric distinguishing the simple log (reads every entry) from the
    hybrid log (reads only the outcome chain plus referenced data
    entries). *)

val bytes_read : t -> int
(** Total payload bytes handed out by reads. *)

val cache_hits : t -> int
(** Page-cache hits on this log (process-wide totals are the
    [slog.cache_hits] / [slog.cache_misses] counters). *)

val cache_misses : t -> int
val store : t -> Rs_storage.Stable_store.t
(** The anchor store, which holds the header page. *)

val destroy : t -> unit
(** Invalidate the in-memory handle (the thesis's [destroy]) and return
    every remaining segment to the pool — nothing
    can name this log's pages once its slot is no longer current.
    Subsequent operations raise [Invalid_argument]. *)
