(** A guardian's stable-log directory: two log-anchor slots, a one-page
    stable root naming the current slot, and a shared pool of fixed-size
    {e segment} stores the logs draw their data pages from.

    Housekeeping (Ch. 5) builds a new log in the spare slot while the
    recovery system keeps appending to the current one, then "in one atomic
    step, the new log supplants the old log": here, one atomic write of the
    root page. A crash before the switch leaves the old log current; the
    half-built new log is simply discarded at recovery.

    {b Space reclamation.} Once the root names the new slot, nothing
    reads the old generation again, so {!switch} returns all of its
    segments to the pool with no further write — the directory's
    provisioned pages track the {e live} log, not its history. A crash
    between the root write and the release merely strands unreferenced
    segments, which {!open_} sweeps back into the pool (the current log's
    segment table is the sole source of truth). *)

type t

val create : ?page_size:int -> ?segment_pages:int -> unit -> t
(** Fresh directory with an empty log in slot 0. [page_size] defaults to
    1024 bytes; [segment_pages] (default 8) is the data pages per segment
    store. Raises [Invalid_argument] if [segment_pages < 1]. *)

val scrub : t -> unit
(** Repair every replica pair the directory holds — the root, both anchor
    slots and every segment in the pool, orphans included — with
    {!Rs_storage.Stable_store.recover}. {!open_} does not do this: it
    reads pages through careful gets, which mend only the pairs they read.
    A scheme that also wants the pages no one reads repaired after a crash
    calls [scrub] before [open_]; it reads every page twice over, so its
    cost grows with everything the directory holds. *)

val open_ : t -> t
(** Reopen after a crash: reads the root atomically, recovers the current
    slot's log (reading only its anchor's header; segment pages are read,
    and mended, as the log is scanned), and sweeps orphaned segments —
    those a crash stranded between allocation and header-link, or between
    retirement commit and page release, or belonging to an abandoned
    pending log — back into the pool. The argument supplies the surviving
    stable stores (volatile state in it is ignored). *)

val current : t -> Stable_log.t

val set_label : t -> string -> unit
(** Tag the directory with its owner's name; propagated to the current log,
    any pending log, and every future generation (see
    {!Stable_log.set_label}). *)

val label : t -> string

val set_on_switch : t -> (unit -> unit) option -> unit
(** Install (or clear) a hook that fires after every completed {!switch},
    once the new generation is current and the old one is released.
    Replication uses it to re-seed the standby: a switch restarts log
    addresses from zero, so the shipped stream must restart too. *)

val begin_new : t -> Stable_log.t
(** Format the spare slot as a fresh empty log and return it. Any previous
    contents of the spare slot are discarded. *)

val switch : t -> unit
(** Force the log from [begin_new] and atomically make it current with
    one root write, then destroy the old generation's handle, returning
    all its segments to the pool. Raises [Invalid_argument] if
    [begin_new] was not called since the last switch. *)

val page_size : t -> int

val segment_pages : t -> int
(** Data pages per segment. *)

val live_segments : t -> int
(** Segments currently in the pool registry (current log's plus, mid
    housekeeping, the pending log's). *)

val segments_retired : t -> int
(** Segments returned to the pool over this directory's lifetime. *)

val live_pages : t -> int
(** Logical pages currently provisioned across root, anchors, and live
    segments — the footprint the reclamation bound is stated over. *)

val pending_log : t -> Stable_log.t option
(** The log under construction between [begin_new] and [switch], if any. *)

val segment_ids : t -> int list
(** Registered segment ids, ascending. *)

val segment_store : t -> int -> Rs_storage.Stable_store.t option
(** The store backing a registered segment id — for the segment-chain
    fsck and fault injection in tests. *)

val stores : t -> Rs_storage.Stable_store.t list
(** Root store, both anchor slots, then live segment stores in id order —
    for fault injection in tests. *)

val physical_writes : t -> int
(** Physical page writes across all stores, retired segments included —
    the directory-wide I/O cost (monotone). *)

val physical_reads : t -> int
