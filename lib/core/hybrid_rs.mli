(** The recovery system over the {e hybrid log} (Chapters 4–5) — the
    thesis's contribution.

    The shadowing map is distributed over the [prepared] outcome entries
    as ⟨uid, log-address⟩ pairs; outcome entries form a backward chain
    through their [prev] pointers. Recovery walks only the chain, fetching
    just the data entries it actually needs (§4.3), so it is much faster
    than the simple log's full backward scan while writing stays
    append-only.

    Early prepare (§4.4) is supported via {!write_entry}; housekeeping
    (Ch. 5) via the {!hk_start}/{!hk_step} slice machine, implementing
    both {e log compaction} (§5.1) and the {e stable-state snapshot}
    (§5.2) with the two-stage structure of the thesis: normal operation
    may continue between slices, and the affected outcome entries are
    tracked in the OEL and carried over in stage two. *)

type t

val create : Rs_objstore.Heap.t -> Rs_slog.Log_dir.t -> t
val heap : t -> Rs_objstore.Heap.t
val log : t -> Rs_slog.Stable_log.t
val dir : t -> Rs_slog.Log_dir.t

val base_bytes : t -> int
(** Stream bytes the current log held when it became current: 0 after
    {!create}; the recovered log's size after {!recover},
    {!recover_parallel} and {!adopt}; the new generation's size, as its
    final force left it, after a checkpoint's switch. It is recorded where
    the log is replaced, so automatic, explicit and promoted paths all
    set it. [Guardian]'s automatic housekeeping reads it to tell a log
    that grew from one that started large. *)

val scheduler : t -> Rs_slog.Force_scheduler.t
(** The group-commit scheduler covering the forced outcome appends. It is
    created synchronous (zero window) so every [prepare]/[commit]/[abort]
    forces before returning, exactly the classic contract; configure a
    window and timer ({!Rs_slog.Force_scheduler.configure}) to batch. A
    fresh {!recover} starts with a fresh synchronous scheduler. *)

val write_entry : t -> Rs_util.Aid.t -> Rs_objstore.Value.addr list -> Rs_objstore.Value.addr list
(** Early prepare (§4.4): write data entries for the accessible objects of
    the MOS now, ahead of the prepare message. Returns MOS′ — the objects
    not written because they were inaccessible; the caller passes them
    back (with any further modifications) next time. *)

val prepare :
  ?force:bool -> ?on_durable:(unit -> unit) -> t -> Rs_util.Aid.t -> Rs_objstore.Value.addr list -> unit
(** Write data entries for whatever was not early-prepared, then enqueue
    the [prepared] entry (carrying the action's accumulated ⟨uid, addr⟩
    pairs) with the scheduler. [on_durable] fires once a force covering
    the entry is stable — synchronously unless a batching window is
    configured. With [~force:false] (default [true]) the entry is only
    written: a coordinator's own share, covered by the force of its
    committing record; [on_durable] then runs at once. *)

val commit : ?on_durable:(unit -> unit) -> t -> Rs_util.Aid.t -> unit
val abort : ?on_durable:(unit -> unit) -> t -> Rs_util.Aid.t -> unit
val committing : ?on_durable:(unit -> unit) -> t -> Rs_util.Aid.t -> Rs_util.Gid.t list -> unit

val done_ : ?on_durable:(unit -> unit) -> t -> Rs_util.Aid.t -> unit
(** Written unforced: if a crash loses it, recovery sees the committing
    record alone and the coordinator resumes phase two. [on_durable] runs
    at once. *)

val prepared_actions : t -> Rs_util.Aid.t list
val accessible : t -> Rs_util.Uid.t -> bool

val mutex_table : t -> (Rs_util.Uid.t * Log_entry.addr) list
(** The MT (§5.2): latest data-entry address per mutex object, maintained
    during normal operation and rebuilt at recovery. *)

val recover : Rs_slog.Log_dir.t -> t * Tables.Recovery_info.t
(** Rebuild a fresh heap by walking the outcome-entry chain (§4.3.3). *)

val recover_parallel :
  ?stats:Rs_slog.Stable_log.segment_scan list ref ->
  Rs_slog.Log_dir.t ->
  t * Tables.Recovery_info.t
(** Like {!recover}, but scan the live log with partitioned per-segment
    readers ({!Rs_slog.Stable_log.scan_segments}): each live segment is
    bulk-read once, data entries are discarded on their tag byte, and the
    surviving outcome entries — which are exactly the backward chain, in
    address order — replay newest-first through the same restore
    dispatch. Produces the same image as {!recover}; cost is one
    sequential pass over live bytes instead of random-access chain
    chasing, so cold restart stays proportional to live data. [stats]
    receives the per-segment reader statistics. *)

val adopt :
  heap:Rs_objstore.Heap.t ->
  dir:Rs_slog.Log_dir.t ->
  last_outcome:Log_entry.addr option ->
  info:Tables.Recovery_info.t ->
  mutexes:(Rs_util.Uid.t * Log_entry.addr) list ->
  t
(** Warm promotion: wrap a recovery system around a heap restored from a
    standby's continuously applied image, with no log walk. [dir] is the
    standby's replica log directory (byte-identical to the shipped prefix
    of the primary's), [last_outcome] the address of the newest applied
    outcome entry (new appends chain onto it), [info] the finished
    {!Restore} result, and [mutexes] the MT: latest data-entry address per
    live mutex object. Cost is proportional to the {e live} image, not the
    log — the point of failing over instead of cold-restarting. *)

(** {1 Housekeeping (Chapter 5)} *)

type technique = Compaction  (** §5.1: rebuild the state from the log *)
               | Snapshot  (** §5.2: copy the state from volatile memory *)

type job

val hk_start : t -> technique -> job
(** Begin an {e incremental} checkpoint: allocate the spare log and start
    recording post-marker outcome entries in the OEL. No chain work has
    happened yet — drive the job with {!hk_step}. Raises
    [Invalid_argument] if a checkpoint is already in progress. *)

val hk_step : t -> job -> budget:int -> bool
(** Run one bounded slice of checkpoint work: up to [budget] old-chain
    entries walked (compaction stage one) or OEL entries carried (stage
    two). Live commits may interleave freely between slices — they land
    on the old log and are picked up by the OEL carry. Once the remaining
    carry fits in a slice, the force-and-switch runs inside that same
    slice, atomically. Returns [true] when the checkpoint has completed.
    The snapshot technique's heap traversal reads live volatile state and
    therefore runs as one atomic slice regardless of [budget]; the OEL
    entries appended before it are not carried, since the traversal
    already holds their effects. *)

val housekeeping_active : t -> bool
(** Whether a checkpoint is in progress. *)

val housekeep : t -> technique -> unit
(** A whole checkpoint at once: {!hk_start}, then {!hk_step} with an
    unbounded budget until it completes — the chain walk (or heap
    traversal) in the first slice, the carry and the switch in the
    second. *)

(** {1 Introspection for tests and benchmarks} *)

val last_outcome_addr : t -> Log_entry.addr option
(** Head of the backward outcome chain. *)

val pending_pairs : t -> Rs_util.Aid.t -> (Rs_util.Uid.t * Log_entry.addr) list
(** Pairs accumulated for a not-yet-prepared action (early prepare). *)
