(** The recovery-time tables of §3.4.1 and the information returned to the
    Argus system after recovery (§2.3 operation 6). *)

(** Participant action table: aid → prepared | committed | aborted. *)
module Pt : sig
  type state = Prepared | Committed | Aborted
  type t

  val create : unit -> t
  val find : t -> Rs_util.Aid.t -> state option

  val add_if_absent : t -> Rs_util.Aid.t -> state -> unit
  (** Backward reading: the first (latest) outcome seen for an action is
      final; later (older) entries never override. *)

  val to_list : t -> (Rs_util.Aid.t * state) list
  val pp_state : Format.formatter -> state -> unit
end

(** Coordinator action table: aid → committing(gids) | done. *)
module Ct : sig
  type state = Committing of Rs_util.Gid.t list | Done
  type t

  val create : unit -> t
  val find : t -> Rs_util.Aid.t -> state option
  val add_if_absent : t -> Rs_util.Aid.t -> state -> unit
  val to_list : t -> (Rs_util.Aid.t * state) list
  val pp_state : Format.formatter -> state -> unit
end

(** Object table: uid → object state, kind and where the replay put it.
    [Prepared] means the current version of a still-prepared action has
    been copied and the latest committed (base) version is still owed;
    [Restored] means the object is complete (§3.4.2 scenario 1). For mutex
    objects [src] holds the log address of the data entry last copied,
    implementing the early-prepare latest-version rule (§4.4). *)
module Ot : sig
  type state = Prepared | Restored

  type entry = {
    mutable state : state;
    kind : Log_entry.otype;
    mutable vm : Rs_objstore.Value.addr;  (** the {!Restore.output}'s handle *)
    mutable src : int;  (** log address the version came from; -1 if n/a *)
  }

  type t

  val create : unit -> t
  val find : t -> Rs_util.Uid.t -> entry option

  val add :
    t -> Rs_util.Uid.t -> state -> kind:Log_entry.otype -> vm:Rs_objstore.Value.addr -> src:int -> unit

  val to_list : t -> (Rs_util.Uid.t * entry) list

  val mutexes : t -> (Rs_util.Uid.t * int) list
  (** The MT (§5.2) a replay rebuilt: each mutex object's [src], by uid. *)

  val max_uid : t -> Rs_util.Uid.t
  (** Largest uid present ({!Rs_util.Uid.stable_vars} if empty) — the reset
      point for the stable counter (§3.4.4 step 3). *)

  val size : t -> int
end

(** What [recovery] hands back to the Argus system so participants and
    coordinators can resume (§3.4.1 step 5). *)
module Recovery_info : sig
  type t = {
    pt : (Rs_util.Aid.t * Pt.state) list;
    ct : (Rs_util.Aid.t * Ct.state) list;
    objects : (Rs_util.Uid.t * Rs_objstore.Value.addr) list;
    entries_processed : int;  (** log entries examined during recovery *)
  }

  val prepared_actions : t -> Rs_util.Aid.t list
  (** Participant actions awaiting a verdict — they must query their
      coordinators (§2.2.3). *)

  val committing_actions : t -> (Rs_util.Aid.t * Rs_util.Gid.t list) list
  (** Coordinator actions that must resume phase two of 2PC. *)

  val pp : Format.formatter -> t -> unit
end

(** One recovery's unified report: the {!Recovery_info} the Argus system
    resumes from, plus what the storage layers did along the way —
    careful-replication pairs repaired and orphaned log segments swept.
    Returned by both [Rs_workload.Scheme.crash_recover] and
    [Rs_guardian.System.restart]. *)
module Recovery_report : sig
  type t = {
    info : Recovery_info.t;
    repairs : int;  (** stable-store replica pairs repaired during recovery *)
    segments_swept : int;  (** orphaned log segments returned to the pool *)
  }

  val entries_processed : t -> int
  val prepared_actions : t -> Rs_util.Aid.t list
  val committing_actions : t -> (Rs_util.Aid.t * Rs_util.Gid.t list) list

  val measure : (unit -> 'a * Recovery_info.t) -> 'a * t
  (** Run a recovery function and wrap its info with the deltas of the
      storage-layer counters ([stable_store.repairs],
      [slog.orphan_segments_swept]) across the call. *)

  val pp : Format.formatter -> t -> unit
end
