(** A simulated distributed system: a set of guardians on one network,
    running top-level actions through two-phase commit.

    Handler calls are executed synchronously against the target guardian's
    heap until one needs a lock another action holds; then the action's
    fiber parks on the object's FIFO wait queue (see
    {!Rs_objstore.Heap.set_runtime}) and resumes — in virtual time — when
    the lock transfers. A wait that outlives the system's [wait_timeout]
    becomes a deliberate abort, which is also the deadlock breaker: one
    member of every cycle times out and releases its locks.

    {!submit} returns an {!Action.handle}; poll it with {!outcome}, block
    on it with {!await}, or register a callback with
    {!Action.on_resolve} (which fires immediately if the handle already
    resolved, so post-submit registration never misses the verdict).

    {2 Exception and outcome surface}

    This is the one authoritative statement of how submitted work can
    fail; the per-function docs below only add specifics.

    Raised {e synchronously} by {!submit} / {!read_only}, before any
    handle exists:
    - {!Guardian_down}: the coordinator — or, in [Read_only] mode, any
      target guardian — is crashed. Re-route to another shard.
    - {!Overloaded} ([Update] mode only): the coordinator is at its
      [max_in_flight] admission cap. Back off and retry the same
      guardian. Read-only actions consume neither locks nor 2PC
      resources and are never shed.

    Resolved {e through the handle} as [Aborted] ([Update] mode):
    - a step raised {!Abort_action} (deliberate business abort);
    - a lock wait outlived [wait_timeout] — the deadlock breaker
      (metric [guardian.wait_aborts]) — or hit a conflict with no
      runtime installed ({!Rs_objstore.Heap.Lock_conflict});
    - a guardian the action had touched crashed before commit
      (incarnation-epoch staleness), or 2PC voted no.

    [Read_only] actions take no locks and enter no wait queue, so they
    can neither conflict, time out, nor deadlock: they resolve
    [Committed] synchronously, or [Aborted] only if the work function
    itself raised ({!Abort_action} is re-raised from {!read_only};
    attempting to {e modify} anything raises [Invalid_argument]). *)

type t

type work = Rs_objstore.Heap.t -> Rs_util.Aid.t -> unit
(** One handler call's effect; may raise {!Rs_objstore.Heap.Lock_conflict}
    (only when waiting is impossible), {!Rs_objstore.Heap.Wait_timeout} or
    {!Abort_action}. *)

exception Abort_action
(** Raised by a work function to abort the whole action deliberately
    (e.g. business-rule violation: insufficient funds, sold out). *)

exception Overloaded of { gid : Rs_util.Gid.t; in_flight : int }
(** See the exception surface above (traced as [Action_shed]). *)

exception Guardian_down of { gid : Rs_util.Gid.t }
(** See the exception surface above. Distinct from {!Overloaded} so
    clients can tell shed (retry the same guardian after backoff) from
    dead (re-route to another shard). *)

type outcome = Action.outcome = Committed | Aborted

type mode = Update | Read_only
(** [Update] (the default) runs steps under the Argus lock model and
    commits through 2PC. [Read_only] runs every step against an MVCC
    snapshot — one per target guardian, all opened at the same virtual
    instant (a consistent cross-guardian cut) — with zero lock
    acquisition, zero wait-queue entry and no 2PC; it completes
    synchronously and never aborts on conflict. *)

type ro_ctx
(** A read-only action's view of one guardian: its heap and the snapshot
    pinned for the action. See {!ro_read} / {!ro_var}. *)

val create :
  ?seed:int ->
  ?latency:float ->
  ?jitter:float ->
  ?drop_prob:float ->
  ?early_prepare:bool ->
  ?force_window:float ->
  ?wait_timeout:float ->
  ?max_in_flight:int ->
  n:int ->
  unit ->
  t
(** [n] guardians with gids 0..n-1. With [early_prepare] (default false),
    each guardian writes an action's data entries right after executing
    its step, ahead of the prepare message (§4.4). [force_window]
    (default 0 = synchronous) enables group commit on every guardian: see
    {!Guardian.create}. [wait_timeout] (default 20.0 virtual time units)
    bounds every lock wait; expiry aborts the waiting action
    (metric [guardian.wait_aborts]). [max_in_flight] (unset = unlimited)
    caps unresolved actions per coordinator; see {!Overloaded}. *)

val sim : t -> Rs_sim.Sim.t

val net : t -> Rs_twopc.Twopc.msg Rs_sim.Net.t
(** The shared network — for message-delivery census and fault injection
    (the {!Rs_sim.Net.Send} fault site, delivery counters). *)

val guardian : t -> Rs_util.Gid.t -> Guardian.t
val guardians : t -> Guardian.t list
val n_guardians : t -> int

val submit :
  ?mode:mode ->
  t ->
  coordinator:Rs_util.Gid.t ->
  steps:(Rs_util.Gid.t * work) list ->
  Action.handle
(** Begin an action. In [Update] mode (default): execute its steps
    (parking on lock queues as needed), then run 2PC asynchronously —
    the action may still be executing (parked) when [submit] returns;
    drive the simulator ({!run}, {!await}, {!quiesce}) to progress it.
    In [Read_only] mode the returned handle is already resolved. For a
    result callback, register {!Action.on_resolve} on the returned
    handle — it fires immediately if the handle already resolved.
    Failure modes: see the exception surface in the module header. *)

val read_only : t -> Rs_util.Gid.t -> (ro_ctx -> 'a) -> 'a
(** The unified committed-read entry point: one read-only action against
    [gid]'s guardian, built on [submit ~mode:Read_only]. [f] sees a
    consistent committed snapshot (stable-variable bindings and object
    versions from one cut) and its value is returned directly — the
    underlying handle resolves synchronously. Raises {!Guardian_down} if
    [gid] is down and re-raises {!Abort_action} from [f]. *)

val ro_read : ro_ctx -> Rs_objstore.Heap.addr -> Rs_objstore.Value.t
(** Snapshot read of an atomic object (see
    {!Rs_objstore.Heap.snapshot_read}): the newest version committed at
    or before the action's snapshot stamp; lock-free and wait-free. *)

val ro_var : ro_ctx -> string -> Rs_objstore.Value.t option
(** Snapshot read of a stable-variable binding, from the same cut as
    every other read of this action. *)

val outcome : Action.handle -> outcome option
(** Peek without driving the simulator; [None] while in flight. *)

val await : ?limit:float -> t -> Action.handle -> outcome
(** Step the simulator until the handle resolves. Raises [Failure] if the
    simulator drains or [limit] (default 10_000) virtual time units elapse
    first — an unresolved handle over a drained simulator is a stuck
    action, which the oracles treat as a bug. *)

val crash : t -> Rs_util.Gid.t -> unit
(** Crash the guardian. Actions parked on its wait queues die with the
    volatile heap: their waits fail deterministically (in aid order) and
    they abort, releasing locks held on other guardians. *)

val restart : t -> Rs_util.Gid.t -> Core.Tables.Recovery_report.t
(** Recover the guardian from its stable log. Unresolved handles whose
    actions it coordinated — except those still parked on another
    guardian's queue — are resolved from the durable verdict: [Committed]
    iff a committing/done record survives, else [Aborted] (§2.2.3). *)

val reinstall_runtime : t -> Rs_util.Gid.t -> unit
(** Re-wire the guardian's (possibly replaced) heap to the system's wait
    queues and fiber scheduler. {!restart} does this itself; a promotion
    that swaps the heap through {!Guardian.adopt} must call it
    explicitly. *)

val resolve_orphans :
  t -> coordinator:Rs_util.Gid.t -> decided:Rs_util.Aid.Set.t -> int
(** Resolve unresolved handles coordinated by [coordinator] (skipping
    parked fibers): [Committed] iff the aid is in [decided] — the set of
    actions with a durable committing/done record — else presumed
    [Aborted]. Returns how many were resolved. {!restart} applies this
    with the recovered commit table; the replication failover driver
    applies it with the standby's warm table after promoting. *)

val epoch : t -> Rs_util.Gid.t -> int
(** The guardian's incarnation epoch (bumped at every {!crash}); fibers
    compare epochs to detect staleness, and replication folds it into its
    fencing epoch. *)

val partition : t -> Rs_util.Gid.t -> unit
(** Cut the guardian off the network without crashing it: volatile state
    and timers survive, messages in either direction are dropped. A
    prepared participant behind a partition must {e wait} — the blocking
    behaviour of 2PC (§2.2.3) — and resume when {!heal} reconnects it. *)

val heal : t -> Rs_util.Gid.t -> unit

val run : ?until:float -> t -> int
(** Drive the simulator. *)

val quiesce : ?limit:float -> t -> unit
(** Run until no events remain (bounded by [limit] time units, default
    10_000). Raises [Failure] if events remain past the limit — queries
    and retries against a guardian that is down forever never drain, so
    restart crashed guardians first or expect the failure. *)
