(** A simulated conventional disk: an array of pages with the failure modes
    the Lampson–Sturgis stable-storage construction defends against.

    Failure modes modelled:
    - a write interrupted by a crash leaves the target page {e torn}
      (detectably bad — real disks detect this with per-sector checksums);
    - spontaneous {e decay} flips a good page to bad between operations.

    Crash injection: {!set_crash_after} arms a countdown of page writes;
    the write that exhausts it tears its page and raises {!Crash}. This
    lets tests stop a multi-page update at every possible point. *)

type t

exception Crash
(** Raised by [write] when an armed crash point fires. *)

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

val read : t -> int -> string option
(** [read t p] is [Some data] if page [p] is good, [None] if bad (torn,
    decayed, never written, or beyond the end). Raises [Invalid_argument]
    on a negative index. *)

val write : t -> int -> string -> unit
(** Overwrites page [p], growing the disk if needed. Raises {!Crash}
    (leaving the page torn) when an armed crash fires. *)

val decay : t -> int -> unit
(** Force page [p] bad: simulates spontaneous storage decay. No-op beyond
    the end. *)

val shrink : t -> int -> unit
(** [shrink t n] returns every page at index >= [n] to the free pool (the
    disk keeps at least one page); their contents are gone. The inverse of
    the automatic growth in {!write} — reformatting a store over a
    previously large log reclaims the simulated platters instead of
    keeping the high-water mark provisioned forever. Tallies are kept. *)

val set_write_hook : (t -> int -> unit) option -> unit
(** Install (or clear, with [None]) the process-wide fault-point census
    hook: it observes every physical write on every disk, receiving the
    disk and the page index before the write lands (torn writes
    included). Used by [Rs_explore] to census crash points; exactly one
    client at a time. *)

val set_crash_after : t -> int -> unit
(** [set_crash_after t n] makes the [n+1]-th subsequent write crash
    ([n = 0] crashes the very next write). *)

val clear_crash : t -> unit

val snapshot : t -> t
(** Deep copy, for exploring alternate futures in tests. *)
