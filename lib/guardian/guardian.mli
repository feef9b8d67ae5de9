(** The guardian runtime: one Argus guardian (§2.1) tying together a
    volatile heap, a hybrid-log recovery system, and a two-phase-commit
    endpoint over the simulated network.

    A guardian's stable state survives crashes through its log directory;
    everything else — heap, locks, protocol timers — disappears at
    {!crash} and is rebuilt by {!restart}, which runs recovery, resumes
    committing coordinators and re-queries for prepared actions, exactly
    as §2.3 operation 6 prescribes. *)

type t

val create :
  gid:Rs_util.Gid.t ->
  sim:Rs_sim.Sim.t ->
  net:Rs_twopc.Twopc.msg Rs_sim.Net.t ->
  ?page_size:int ->
  ?force_window:float ->
  ?prepare_timeout:float ->
  ?retry_interval:float ->
  unit ->
  t
(** [force_window] (default 0, i.e. synchronous forces): group-commit
    batching window in virtual time. When positive, outcome records of
    co-resident actions — including the 2PC coordinator's committing/done
    records — ride shared forces, and every protocol message announcing an
    outcome waits for its covering batch. The window survives crashes:
    {!restart} re-attaches it to the recovered recovery system.
    [prepare_timeout]/[retry_interval] are threaded to
    {!Rs_twopc.Twopc.create} (and survive restarts) so a load generator
    can tune protocol patience against lock-wait timeouts. *)

val gid : t -> Rs_util.Gid.t
val heap : t -> Rs_objstore.Heap.t
val rs : t -> Core.Hybrid_rs.t
val log_dir : t -> Rs_slog.Log_dir.t

val coordinating : t -> int
(** {!Rs_twopc.Twopc.coordinating} of the current endpoint: actions this
    guardian coordinates that are not yet finished. *)

val is_up : t -> bool
val fresh_aid : t -> Rs_util.Aid.t

val early_prepare : t -> Rs_util.Aid.t -> unit
(** §4.4: write the action's data entries now, ahead of the prepare
    message, using guardian idle time; the eventual prepare then writes
    only what was still inaccessible plus its own outcome entry. *)

val note_participation : t -> Rs_util.Aid.t -> unit
(** Record (volatilely) that [aid] executed here, so an incoming prepare
    for it is honoured; unknown actions are refused (§2.2.2). *)

val participated : t -> Rs_util.Aid.t -> bool

val start_commit :
  t ->
  Rs_util.Aid.t ->
  participants:Rs_util.Gid.t list ->
  on_result:([ `Committed | `Aborted ] -> unit) ->
  unit
(** Run 2PC for a top-level action coordinated here. *)

val abort_local : t -> Rs_util.Aid.t -> unit
(** Abort an action that has not begun to commit: volatile-only cleanup. *)

val crash : t -> unit
(** Node failure: volatile state is lost, the network stops delivering to
    this guardian, in-flight protocol work dies. Stable storage remains. *)

val restart : t -> Core.Tables.Recovery_report.t
(** Recover from stable storage and resume protocol duties. Returns the
    unified {!Core.Tables.Recovery_report} (entries processed, replica
    repairs, segments swept). Raises [Invalid_argument] if the guardian
    is up. *)

val adopt :
  t -> dir:Rs_slog.Log_dir.t -> info:Core.Tables.Recovery_info.t -> Core.Hybrid_rs.t -> unit
(** Promotion: bring a {e down} guardian up around a warm recovery system
    built by {!Core.Hybrid_rs.adopt} (no log walk). [dir] becomes the
    guardian's log directory — the standby's replica of the dead
    primary's log — and [info] drives the same duty resumption as
    {!restart}: committing coordinators resume phase two, prepared
    participants chase verdicts, aid generation skips past everything in
    the tables; the same [Restart] trace event announces the guardian
    back. Raises [Invalid_argument] if the guardian is up. *)

val take_over_address : t -> gid:Rs_util.Gid.t -> unit
(** Point [gid]'s network address at this (up) guardian's 2PC endpoint and
    mark it reachable: after promotion the heir answers protocol traffic
    addressed to the dead primary — verdict queries for actions it
    coordinated, acks from its participants — exactly as a same-gid
    restart would. The registration follows the heir across its own later
    crash/restart cycles and goes quiet while it is down. *)

val housekeep : t -> Core.Hybrid_rs.technique -> unit
(** A whole checkpoint now ({!Core.Hybrid_rs.housekeep}). If a background
    checkpoint is in flight, it is finished first (and counted in
    {!housekeeping_runs}); its queued slice then does nothing. *)

val set_auto_housekeeping :
  t -> ?threshold_bytes:int -> slice:int * float -> Core.Hybrid_rs.technique option -> unit
(** §2.3 operation 7: let the guardian decide when "enough old information
    has accumulated". With [Some technique], a checkpoint starts after any
    commit/abort that leaves the log beyond a limit. [None] disables. The
    setting survives restarts.

    The limit is [threshold_bytes] (default 64 KiB) while the log's
    starting size ({!Core.Hybrid_rs.base_bytes}: the last checkpoint's
    output, or the recovered log) is at most the threshold, and always for
    a monolithic log. A log that started larger — a state too big for the
    threshold — would pass it at once, and each checkpoint would only
    rewrite what the last one wrote. Such a log is left to run past the
    end of the segment its starting size ended in (segment capacity is
    [segment_pages × page_size]): the first point where a checkpoint can
    give a segment back. The footprint between checkpoints then stays
    within one segment of the last output.

    The checkpoint runs in the background: a fiber over the simulator's
    virtual clock runs {!Core.Hybrid_rs.hk_step} slices of at most
    [budget] entries, [delay] time units apart ([slice = (budget,
    delay)]), interleaved with live commits; the final slice performs the
    force-and-switch atomically. While one is in flight, further triggers
    are ignored. A crash mid-checkpoint abandons the spare log
    (orphan-swept at recovery) and recovers from the old log unchanged. *)

val housekeeping_runs : t -> int
(** Automatic housekeeping passes performed so far. *)

val checkpoint_active : t -> bool
(** Whether an (incremental) checkpoint is currently in flight. *)

val crashes : t -> int
(** Number of crashes so far (for workload statistics). *)
