(** Volatile memory of one guardian: the object table, the Argus lock
    model, and version management for atomic objects (§2.4).

    Three kinds of heap objects:
    - {e atomic}: base version + (under a write lock) a current version;
      read/write locks held to action completion (§2.4.1);
    - {e mutex}: one current version, modified in place under possession
      obtained with [seize] (§2.4.2);
    - {e regular}: plain mutable data contained in recoverable objects.

    When an action acquires a write lock, its current version is a copy of
    the base version in which contained {e regular} objects are also copied
    (fresh addresses) but references to other recoverable objects are kept
    — the volatile analogue of the incremental copy, so an aborting action
    can never have damaged the base version. *)

type addr = Value.addr

type lock = Free | Read of Rs_util.Aid.Set.t | Write of Rs_util.Aid.t

(** State of an atomic object as seen by tests and the recovery system. *)
type atomic_view = { base : Value.t; cur : Value.t option; lock : lock }

type kind = Atomic | Mutex | Regular | Placeholder
type t

exception Lock_conflict of { addr : addr; holders : Rs_util.Aid.t list }
(** Raised when a lock/possession request conflicts and no scheduling
    runtime is installed (see {!set_runtime}); [holders] names the
    blocking action(s) — several for a read-held object. The guardian
    runtime turns this into an action abort. *)

exception Wait_timeout of { addr : addr; waiter : Rs_util.Aid.t }
(** Raised out of a blocking acquisition when the runtime cancelled the
    wait (virtual-time timeout — presumed deadlock — or the guardian
    crashed). The action must abort, releasing its other locks. *)

val create : unit -> t
(** A fresh heap containing only the stable-variables root: an atomic
    object with uid {!Rs_util.Uid.stable_vars} whose base version is the
    empty binding tuple. *)

(** {1 Lock wait queues}

    The Argus runtime makes actions {e wait} for locks (§2.1) rather than
    abort on first conflict. A scheduling runtime installs [block]/[wake]
    hooks: a conflicting request joins the object's FIFO wait queue and
    [block]s; on release the lock is transferred to the compatible queue
    head(s) — consecutive readers batch, an upgrade request waits at the
    front — and [wake] fires for each grantee. [block] returns false when
    the runtime cancelled the wait, turning it into {!Wait_timeout}. *)

type runtime = {
  block : addr:addr -> aid:Rs_util.Aid.t -> bool;
  wake : addr:addr -> aid:Rs_util.Aid.t -> unit;
}

val set_runtime : t -> runtime option -> unit

val set_label : t -> string -> unit
(** Tag the heap with its owning guardian's name ("G0", …); stamped on
    [Lock_*] trace events so the lock-legality spec monitor can keep
    per-guardian lock state (object addresses collide across guardians).
    Unlabeled heaps ("") are skipped by the monitor. A non-empty label
    emits [Heap_label]: the lock and snapshot monitors forget whatever an
    earlier heap did under that label (a fresh heap's stamps restart). *)

val label : t -> string

val set_allow_read_barging : bool -> unit
(** Self-test mutation: make {!read_atomic} grant read locks directly even
    when writers are queued — the pre-wait-queue barging path that starves
    upgraders. Exists only so tests can verify the lock-legality spec
    monitor catches it; reset to [false] after use. *)

val cancel_wait : t -> Rs_util.Aid.t -> addr -> unit
(** Remove [aid] from the wait queue of [addr] (timeout/crash path); may
    grant the lock to waiters that were queued behind it. *)

val waiting : t -> addr -> Rs_util.Aid.t list
(** The object's wait queue, front first. *)

val uid_gen : t -> Rs_util.Uid.Gen.t

val set_uid_source : t -> Rs_util.Uid.Source.t option -> unit
(** Install (or clear) the uid source consulted by {!alloc_atomic} and
    {!alloc_mutex}. [None] (the default) mints from the guardian's own
    stable counter; a placement directory installs a pool of batched,
    globally-unique ranges. Every mint emits a [Uid_mint] trace event.
    Pool-minted uids also advance the local counter past themselves, so a
    later fallback to the local source cannot collide. *)

val root_addr : t -> addr
val kind_of : t -> addr -> kind
val uid_of : t -> addr -> Rs_util.Uid.t option
val addr_of_uid : t -> Rs_util.Uid.t -> addr option
val size : t -> int

(** {1 Allocation (normal operation)} *)

val alloc_atomic : t -> creator:Rs_util.Aid.t -> Value.t -> addr
(** New atomic object; the creating action holds a read lock and the object
    has a single base version (§2.4.1). *)

val alloc_mutex : t -> Value.t -> addr
val alloc_regular : t -> Value.t -> addr

(** {1 Atomic objects} *)

val atomic_view : t -> addr -> atomic_view
(** Raises [Invalid_argument] if [addr] is not atomic. *)

val read_atomic : t -> Rs_util.Aid.t -> addr -> Value.t
(** Acquire (or re-acquire) a read lock and return the version the action
    sees: its own current version if it holds the write lock, the base
    version otherwise. If another action holds the write lock (or writers
    are queued ahead), waits through the runtime — or raises
    {!Lock_conflict} when none is installed.

    If [aid] is registered read-only ({!begin_read_only}), none of the
    above applies: the read is served from the action's snapshot with zero
    lock acquisition and zero wait-queue entry (see {!snapshot_read}). *)

val write_lock : t -> Rs_util.Aid.t -> addr -> unit
(** Acquire the write lock, creating the current version (a copy).
    Upgrades the action's own read lock in place if it is the sole reader;
    with other readers present the upgrade waits at the queue front.
    Waits (or raises {!Lock_conflict}) otherwise. Idempotent for the
    holder. *)

val set_current : t -> Rs_util.Aid.t -> addr -> Value.t -> unit
(** Replace the current version wholesale. Requires the write lock
    (acquires it if needed). Marks the object modified by the action. *)

val current_of : t -> Rs_util.Aid.t -> addr -> Value.t
(** The version the write-lock holder operates on. Raises
    [Invalid_argument] if the action does not hold the write lock. *)

(** {1 Snapshots (MVCC read path)}

    Atomic objects keep a bounded chain of committed versions, each
    stamped by the heap's commit sequence (one fresh stamp per committing
    action). A {!snapshot} pins the committed state as of its stamp:
    every {!snapshot_read} under it returns the newest version installed
    at or before the stamp — exactly what a serial execution paused at
    that stamp would show — touching neither the lock table nor any wait
    queue, so snapshot readers never block writers and never abort.

    History versions are pruned eagerly: a version is dropped the moment
    no live snapshot's stamp falls in its visibility window, keeping every
    chain at most [active_snapshots + 1] long (read by {!chain_length}).
    Snapshot state is {e volatile}: a crash replaces the heap and resets
    stamps to zero, and a snapshot from the previous incarnation is
    rejected with [Invalid_argument] rather than read stale chains. *)

type snapshot

val snapshot : t -> snapshot
(** Open a snapshot at the current commit stamp. Holding it open pins the
    versions it can see; release promptly. *)

val release_snapshot : t -> snapshot -> unit
(** Release (idempotent); prunes history versions only this snapshot could
    still observe. *)

val snapshot_read : t -> snapshot -> addr -> Value.t
(** The newest committed version of [addr] stamped at or before the
    snapshot. Lock-free and wait-free. Raises [Invalid_argument] if the
    snapshot is released or from another heap incarnation, if [addr] is
    not atomic, or if the object has no version at the stamp (it was not
    committed-reachable when the snapshot opened). *)

val snapshot_var : t -> snapshot -> string -> Value.t option
(** Stable-variable binding as of the snapshot (the root object is
    versioned like any other atomic object, so a binding and the value
    read through it under one snapshot form a single consistent cut).
    Constant time through the root index of {!get_stable_var}; reading a
    snapshot that pins an older root version rebuilds the index for that
    version. *)

val with_snapshot : t -> (snapshot -> 'a) -> 'a
(** Open, run, release (also on exception). *)

val committed_read : t -> addr -> Value.t
(** [with_snapshot t (fun s -> snapshot_read t s a)]: the latest committed
    version — the one unified committed-peek used by tools and tests. *)

val committed_var : t -> string -> Value.t option
(** Latest committed stable-variable binding via a throwaway snapshot. *)

val begin_read_only : t -> Rs_util.Aid.t -> snapshot -> unit
(** Register [aid] as read-only under [s]: its {!read_atomic} calls become
    snapshot reads, and every mutation entry point ([write_lock],
    [set_current], [seize], [alloc_atomic], [set_stable_var]) raises
    [Invalid_argument]. Cleared by {!end_read_only} or action completion. *)

val end_read_only : t -> Rs_util.Aid.t -> unit
val read_only_of : t -> Rs_util.Aid.t -> snapshot option

val active_snapshots : t -> int
(** Number of open snapshots (the chain-length bound). *)

val chain_length : t -> addr -> int
(** Committed versions currently retained for [addr] (base + history);
    1 when no snapshot pins history. *)

(** {1 Mutex objects} *)

val seize : t -> Rs_util.Aid.t -> addr -> Value.t
(** Gain possession of a mutex object and return its current version.
    Waits (or raises {!Lock_conflict}) if another action has possession. *)

val set_mutex : t -> Rs_util.Aid.t -> addr -> Value.t -> unit
(** Replace the mutex current version; requires possession. Marks the
    object modified. *)

val release : t -> Rs_util.Aid.t -> addr -> unit
(** Release possession (end of the [seize] block). *)

val mutex_value : t -> addr -> Value.t

(** {1 Regular objects} *)

val regular_value : t -> addr -> Value.t
val set_regular : t -> addr -> Value.t -> unit

(** {1 Action completion} *)

val mos : t -> Rs_util.Aid.t -> addr list
(** The Modified Object Set for the action: atomic objects it wrote and
    mutex objects it modified, in modification order (§2.3, refined in
    §3.3.3.2 to modified objects only). *)

val commit_action : t -> Rs_util.Aid.t -> unit
(** Install every current version the action wrote as the new base
    version, release all its locks, and forget its MOS. *)

val abort_action : t -> Rs_util.Aid.t -> unit
(** Discard the action's current versions and locks. Mutex modifications
    are {e not} undone (§2.4.2). *)

val writer_of : t -> addr -> Rs_util.Aid.t option

(** {1 Stable variables} *)

val set_stable_var : t -> Rs_util.Aid.t -> string -> Value.t -> unit
(** Bind a stable variable in the root object (write-locks the root). *)

val get_stable_var : t -> string -> Value.t option
(** Committed binding of a stable variable, read from the root's base
    version only: a writer's uncommitted rebinding is invisible until it
    commits. If the name is bound more than once, the first binding in
    the root tuple wins.

    Constant time: each heap keeps a name-to-slot index over the root
    version it last read, keyed on that version's pairs array and rebuilt
    (once, in O(bindings)) when a different array is read. The index
    relies on one invariant: a root tuple changes only by replacement —
    a committed {!set_stable_var}, {!install_atomic} or {!set_base} —
    except under {!patch_placeholders}, which rewrites pair contents in
    place but never moves a name. Values are always read live from the
    tuple, and a slot whose name no longer matches falls back to a scan. *)

val stable_var_names : t -> string list
(** Every name bound in the root's base version, in tuple order (through
    the same index as {!get_stable_var}). *)

(** {1 Recovery-time interface} *)

val install_atomic : t -> uid:Rs_util.Uid.t -> base:Value.t option -> cur:(Rs_util.Aid.t * Value.t) option -> addr
(** Recreate an atomic object from log versions. [cur] re-grants the write
    lock to the still-prepared action (§3.4.4 step 2.e.ii). If the object
    already exists (same uid), fills in the missing version instead.
    Raises [Invalid_argument] if the uid is already bound to a non-atomic
    object. *)

val install_mutex : t -> uid:Rs_util.Uid.t -> Value.t -> addr
val install_placeholder : t -> Rs_util.Uid.t -> addr
(** The "special object containing the uid" of §3.4.3; one per uid. *)

val set_base : t -> addr -> Value.t -> unit
(** Fill in the base version of an installed atomic object. *)

val iter_objects : t -> (addr -> kind -> unit) -> unit

val patch_placeholders : t -> unit
(** Final recovery pass (§3.4.3): rewrite every [Ref] to a placeholder into
    a [Ref] to the real object with that uid. Raises [Failure] if a
    placeholder's uid was never installed (a dangling stable reference —
    log corruption). *)

val iter_reachable : t -> (addr -> unit) -> unit
(** Visit every object reachable from the stable-variables root once, in
    preorder: an object before what its versions reference, an atomic
    object's base version before its current one. Placeholders are
    visited but lead nowhere. The one traversal of the stable state:
    {!reachable_uids} and both logs' stable-state snapshots (§5.2) are
    built on it. [f] must not change the heap. *)

val reachable_uids : t -> Rs_util.Uid.Set.t
(** Uids of recoverable objects reachable from the stable-variables root,
    traversing base and current versions — used to rebuild the AS after
    recovery (§3.4.1 step 4) and to trim it. *)

