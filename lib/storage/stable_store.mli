(** Atomic stable storage after Lampson & Sturgis [Lampson 79] (§1.1).

    Each logical page is represented by two physical pages on two disks
    with independent failure modes. A {e careful put} writes the first
    representative, verifies it, then writes the second; a {e careful get}
    prefers the first good representative. Because at most one
    representative is mid-write at any instant, a crash at any point leaves
    at least one good copy: the logical write is atomic — the old value or
    the new value, never garbage.

    {!recover} must run after every crash (and periodically against decay):
    it repairs diverged pairs, completing or undoing interrupted writes.

    Each representative stores the caller's string with its CRC-32 beside
    it ({!Disk.page}): a put computes the checksum once and hands the same
    string to both disks, and a get of agreeing representatives checks
    the checksum once and returns the stored string itself. Neither copies
    the bytes. *)

type t

val create : ?rng:Rs_util.Rng.t -> ?decay_prob:float -> pages:int -> unit -> t
(** A store of initially [pages] logical pages, all unwritten; it grows
    automatically when written past the end. *)

val pages : t -> int
(** Current provisioned size. *)

val get : t -> int -> string option
(** [get t p] is the last value carefully put to logical page [p], or [None]
    if never written or if both representatives have been lost (a
    catastrophe outside the fault model). A value is the very string the
    put stored. The get is {e careful with read repair}: it verifies both
    representatives and rewrites an unreadable one from its good partner
    on the spot (bumping the [stable_store.repairs] counter), so isolated
    decay is healed by ordinary traffic instead of waiting for the next
    {!recover} pass. *)

val put : t -> int -> string -> unit
(** Careful, atomic overwrite of logical page [p]. May raise {!Disk.Crash}
    when the fault hook crashes one of its two disk writes; the page then
    still reads as old or new value. *)

val recover : t -> unit
(** Repair pass: for every logical page, copy the good representative over
    a bad or diverged partner. Run after a crash before using the store. *)

val physical_writes : t -> int
(** Total physical page writes across both disks (the cost metric used by
    the benchmarks: stable storage costs two writes per logical write). *)

val physical_reads : t -> int

val decay_random_page : t -> Rs_util.Rng.t -> unit
(** Decay one random physical page — never both representatives of the same
    logical page (independent failure modes assumption, §1.1). *)

val is_write : t -> Rs_util.Fault_hook.site -> bool
(** Is the site a physical page write ({!Disk.Write}) on either of [t]'s
    two disks? Repair writes count too. *)

val disks : t -> Disk.t * Disk.t
(** The two underlying disks [(a, b)] — for replica inspection in tests.
    Writing them directly voids the atomicity warranty. *)

val agreement_issues : t -> (int * string) list
(** Logical pages whose two representatives do not currently agree —
    one unreadable, or both readable with different contents — with a
    description each. After {!recover} this must be empty: it is the
    two-copy agreement oracle [Rs_explore] checks after every explored
    crash schedule. Reads both replicas of every page (cost is fine;
    it is a checker). *)
