(** A uniform, single-guardian facade over the three stable-storage
    organizations — simple log (Ch. 3), hybrid log (Ch. 4), shadowing
    (§1.2.1) — so benchmarks and comparative tests can drive them
    identically. *)

type technique = Core.Hybrid_rs.technique = Compaction | Snapshot
(** Re-export of the one housekeeping-technique type
    ({!Core.Hybrid_rs.technique}); the constructors are interchangeable
    with the core ones at every call site. *)

type t

val name : t -> string
val heap : t -> Rs_objstore.Heap.t

val prepare : ?on_durable:(unit -> unit) -> t -> Rs_util.Aid.t -> Rs_objstore.Value.addr list -> unit
val commit : ?on_durable:(unit -> unit) -> t -> Rs_util.Aid.t -> unit
(** Writes the committed record and installs versions in the heap.
    [on_durable] fires once the outcome record's covering force is stable:
    immediately for shadow, via the scheme's group-commit scheduler for
    the logged schemes (synchronously unless a window is configured). *)

val abort : ?on_durable:(unit -> unit) -> t -> Rs_util.Aid.t -> unit

val scheduler : t -> Rs_slog.Force_scheduler.t option
(** The logged schemes' group-commit scheduler ([None] for shadow);
    configure it with a window and virtual-time timer to batch forces. *)

val crash_recover : t -> t * Core.Tables.Recovery_report.t
(** Simulate a node crash and run recovery; returns the recovered facade
    (the old one must not be used again) plus the unified
    {!Core.Tables.Recovery_report} — the same record {!System.restart}
    returns, so oracles and tools read one shape everywhere. *)

val housekeep : t -> technique -> unit
(** Hybrid: the Ch. 5 algorithms. Simple: [Snapshot] runs the transplanted
    stable-state snapshot ({!Core.Simple_rs.housekeep}, an ablation this
    repo adds); [Compaction] is a no-op (it needs the outcome chain).
    Shadow: no-op (its map is already a checkpoint). *)

val housekeep_first_slice : t -> technique -> unit
(** Start {!housekeep}'s checkpoint and run only its first slice with an
    unbounded budget: stage one of the two-stage structure, the new
    stable state built in the spare log. For crash exploration: the
    boundary between the stages is a fault point [Rs_explore]
    enumerates, and the caller crashes the scheme there (recovery
    discards the half-built log); the checkpoint is never finished. A
    no-op where {!housekeep} is one. *)

val supports_housekeeping : t -> bool

val current_log : t -> Rs_slog.Stable_log.t option
(** The scheme's current log ([None] for shadow, whose stable layout is a
    map plus version store) — for validation with {!Core.Log_check}. *)

val log_dir : t -> Rs_slog.Log_dir.t option
(** The logged schemes' log directory ([None] for shadow) — for the
    segment-chain fsck ({!Core.Log_check.check_segments}) and space
    accounting. *)

val stable_stores : t -> Rs_storage.Stable_store.t list
(** Every stable store behind the scheme — for fault injection: arm a
    crash on one of these, run an operation, and recover. *)

val physical_writes : t -> int
(** Physical stable-storage page writes so far. *)

val log_entries : t -> int
(** Entries in the current log (version store for shadow). *)

val log_bytes : t -> int

val simple : ?page_size:int -> ?segment_pages:int -> unit -> t
val hybrid : ?page_size:int -> ?segment_pages:int -> unit -> t
(** [page_size] and [segment_pages] configure the scheme's
    {!Rs_slog.Log_dir.create}. *)

val shadow : unit -> t
val all : unit -> t list
(** Fresh instances of all three, in [simple; hybrid; shadow] order. *)
