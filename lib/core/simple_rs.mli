(** The recovery system over the {e simple log} (Chapter 3).

    Data entries carry uid, object type, version and action id; outcome
    entries carry no chain pointers. Writing appends data entries and
    forces a [prepared] entry (§3.3); recovery reads {e every} entry
    backward from the top of the log (§3.4) — the organization with the
    fastest writing and the slowest recovery.

    Division of labour, as in §2.3: this module writes and recovers stable
    state; the caller (the guardian runtime, standing in for the Argus
    system) updates volatile lock state via
    {!Rs_objstore.Heap.commit_action} / [abort_action] and replies to the
    coordinator. Operations must be called sequentially. *)

type t

val create : Rs_objstore.Heap.t -> Rs_slog.Log_dir.t -> t
(** Attach a recovery system to a fresh guardian. The stable-variables
    root uid is accessible from the start. *)

val heap : t -> Rs_objstore.Heap.t
val log : t -> Rs_slog.Stable_log.t

val dir : t -> Rs_slog.Log_dir.t
(** The log directory this system runs over. {!recover} builds a {e new}
    directory record — callers holding the pre-crash one must switch to
    this accessor's result. *)

val scheduler : t -> Rs_slog.Force_scheduler.t
(** The group-commit scheduler covering the forced outcome appends;
    synchronous (zero window) until configured with a window and timer. *)

val prepare : ?on_durable:(unit -> unit) -> t -> Rs_util.Aid.t -> Rs_objstore.Value.addr list -> unit
(** §2.3 operation 1: write data entries for the accessible objects of the
    MOS, then enqueue the [prepared] outcome entry for forcing. On return
    the action is in the PAT; [on_durable] fires once the covering force
    is stable (synchronously unless a batching window is configured). *)

val commit : ?on_durable:(unit -> unit) -> t -> Rs_util.Aid.t -> unit
(** §2.3 operation 2: force the [committed] outcome entry. *)

val abort : ?on_durable:(unit -> unit) -> t -> Rs_util.Aid.t -> unit
val committing : ?on_durable:(unit -> unit) -> t -> Rs_util.Aid.t -> Rs_util.Gid.t list -> unit
val done_ : ?on_durable:(unit -> unit) -> t -> Rs_util.Aid.t -> unit

val prepared_actions : t -> Rs_util.Aid.t list
(** Contents of the PAT (§3.3.3.2). *)

val accessible : t -> Rs_util.Uid.t -> bool
(** AS membership, exposed for tests and the snapshot algorithm. *)

val trim_accessibility_set : t -> unit
(** Rebuild the AS by traversing the stable state and intersecting with
    the old set (§3.3.3.2, "if the set grows too large"). *)

val recover : Rs_slog.Log_dir.t -> t * Tables.Recovery_info.t
(** §2.3 operation 6: rebuild a fresh heap from the log after a crash.
    Returns the new recovery system (PAT = still-prepared actions, AS =
    actually accessible uids) and the tables for the Argus system. *)

(** {1 Snapshot checkpointing (ablation)}

    The thesis develops housekeeping only for the hybrid log (Ch. 5), but
    nothing prevents giving the simple log the stable-state snapshot
    treatment: its recovery algorithm already understands [committed_ss]
    entries. Benchmarks use this to separate the two benefits of the
    hybrid design — checkpointing (shared here) from chain-following
    (hybrid only). The checkpoint runs on the same slice machine as
    {!Hybrid_rs.hk_start}/{!Hybrid_rs.hk_step}, with the same guards. *)

type job

val hk_start : t -> job
(** Begin a snapshot checkpoint: set the marker at the end of the current
    log and allocate the spare log. Raises [Invalid_argument] if a
    checkpoint is already in progress. *)

val hk_step : t -> job -> budget:int -> bool
(** Run the next slice; returns [true] once the checkpoint has completed.
    There are two slices whatever [budget] is. The first copies the
    stable state from volatile memory into the spare log (data entries,
    [committed_ss], and entries for prepared actions and committing
    coordinators); it reads live state, so it is atomic. Normal operation
    may continue before the second, which copies the post-marker entries
    verbatim (simple-log entries are self-contained), forces, switches
    logs atomically and emits the [Checkpoint] trace event. A crash
    between the slices abandons the spare log; recovery reads the old
    one. Raises [Invalid_argument] on a job that is not in progress. *)

val housekeeping_active : t -> bool
(** Whether a checkpoint is in progress. *)

val housekeep : t -> unit
(** A whole checkpoint at once: {!hk_start}, then {!hk_step} until it
    completes. *)
