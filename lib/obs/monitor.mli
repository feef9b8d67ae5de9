(** Always-on spec monitors, folded over every trace event as it is emitted.

    Declarative safety checks in the style of oswald's PSpec monitors.
    Each monitor is an incremental fold that {!Trace.emit} feeds, so it
    judges every event since the last {!Trace.clear}, whether or not a
    trace ring is kept. Fold state is bounded by live things (open
    handles, held and queued locks, uncovered commits, open snapshots, the
    last address per log stream). They are meant to be checked at the end
    of {e every} test and bench run (and inside explorer passes), not only
    when a scenario explicitly exercises the property. *)

type violation = { monitor : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

val commit_implies_durable_on : Trace.record list -> violation list
(** Every [Action_commit {gid}] must be followed by a [Log_force] on the
    log labeled [gid] — or by a [Crash {gid}], which means the commit died
    unacknowledged. Catches commit records that escape their covering
    force. *)

val repl_ship_order_on : Trace.record list -> violation list
(** Replication stream sanity: shipped and applied epochs never move
    backward, and a standby's applied watermark is monotone within an epoch
    (except across a standby crash or a base-0 reset ship — forgiveness
    then lasts until the watermark re-passes the mark it had when it was
    granted, since a re-seed replays the stream over several applies). *)

val log_monotonic_on : Trace.record list -> violation list
(** Per labeled log stream, [Log_write] addresses are strictly increasing.
    [Log_switch] on the label forgives (the stream legitimately restarted);
    [Crash {gid}] forgives every stream the guardian owned ([gid] and
    [gid:...]). *)

val lock_legal : unit -> violation list
(** The Argus lock model over [Lock_*] events, per labeled heap: no grant
    overlaps an incompatible holder (own-read upgrade exempt), and no
    direct grant barges past another action's queued write-waiter.
    [Crash {gid}] and [Heap_label] forget the heap's locks. *)

val handle_liveness : unit -> violation list
(** Every [Handle_submit] is eventually matched by a [Handle_resolve].
    Abstains (returns nothing) while any crashed guardian has neither
    restarted nor been replaced by a promotion — its handles legitimately
    dangle. *)

val snapshot_legal : unit -> violation list
(** MVCC snapshot-read legality over [Version_install]/[Snap_read] events,
    per labeled heap: every snapshot read returns the newest version
    installed at or before its stamp — no future versions, no skipped
    installs. [Crash {gid}] and [Heap_label] forgive (stamps are volatile;
    a fresh heap restarts its commit sequence). Reads are assumed to come
    from open snapshots: installs at or below the oldest open snapshot are
    kept only as the newest one. *)

val lock_legal_on : Trace.record list -> violation list

val handle_liveness_on : Trace.record list -> violation list

val snapshot_legal_on : Trace.record list -> violation list
(** The [_on] variants run the same fold, fresh, over an explicit record
    list — for unit tests over synthetic traces and recorded rings. The
    live folds of the first three monitors are read through {!check}. *)

val check : unit -> violation list
(** Every monitor's verdict on the events since the last {!Trace.clear},
    in order. Reads the live folds without changing them. *)

val assert_ok : where:string -> unit -> unit
(** Run {!check} and [failwith] a formatted report if anything fired. *)
