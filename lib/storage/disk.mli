(** A simulated conventional disk: an array of pages with the failure modes
    the Lampson–Sturgis stable-storage construction defends against.

    Failure modes modelled:
    - a write interrupted by a crash leaves the target page {e torn}
      (detectably bad — real disks detect this with per-sector checksums);
    - spontaneous {e decay} flips a good page to bad between operations.

    A good page keeps its checksum beside its bytes, as a sector keeps
    its check bits: the writer supplies both, the disk stores the
    caller's string itself (no copy), and a reader judges the page by
    recomputing the checksum. The disk never checks it.

    Crash injection: every write is a {!Rs_util.Fault_hook} site,
    [Write disk]; a [Crash] verdict tears the page and raises {!Crash}.
    This lets tests stop a multi-page update at every possible point. *)

type t

type page = Good of { data : string; crc : int } | Bad
(** A page as stored: the bytes written with the checksum written beside
    them, or unreadable (torn, decayed, never written). *)

exception Crash
(** Raised by [write] when the fault hook crashes it. *)

type Rs_util.Fault_hook.site +=
  | Write of t
        (** a physical page write on this disk, before the page lands *)

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable torn_writes : int;  (** writes interrupted by a crash *)
  mutable decays : int;
}
(** Per-disk tallies. Process-wide page I/O totals live in the [Rs_obs]
    registry as [disk.reads] and [disk.writes]; torn writes and decays are
    per disk here and in the trace ([Torn_write], [Page_decay]). *)

val create : ?rng:Rs_util.Rng.t -> ?decay_prob:float -> pages:int -> unit -> t
(** [create ~pages ()] is a disk of initially [pages] pages, all bad
    (unwritten). The disk grows automatically when written past the end —
    simulated platters are cheap. [decay_prob] is the per-read probability
    that a page has decayed since last touched (default 0: deterministic
    disk). *)

val pages : t -> int
(** Current size (highest provisioned page + 1). *)

val stats : t -> stats
(** A point-in-time snapshot of this disk's tallies (a fresh record;
    mutating it does not touch the disk). *)

val read : t -> int -> page
(** [read t p] is page [p] as stored — the very value last written, not
    a copy — or [Bad] if it is torn, decayed, never written or beyond the
    end. Raises [Invalid_argument] on a negative index. *)

val write : t -> int -> page -> unit
(** Overwrites page [p] with [page], growing the disk if needed. Raises
    {!Crash} (leaving the page torn) when the fault hook crashes it. *)

val decay : t -> int -> unit
(** Force page [p] bad: simulates spontaneous storage decay. No-op beyond
    the end. *)
