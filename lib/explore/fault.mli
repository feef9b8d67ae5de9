(** Fault points and crash schedules.

    A {e fault point} names one place a crash (or message fault) can land
    in a scenario: a particular physical write on a particular stable
    store, the boundary right after a log force, the gap between the two
    housekeeping stages, or the n-th 2PC message. A {e schedule} is a
    list of fault points, each tied to the scenario operation it
    interrupts; the explorer enumerates schedules, re-runs the scenario
    under each, and checks the oracle suite after recovery. *)

type seg_stage = Seg_alloc | Seg_link | Seg_retire
    (** Segment lifecycle boundaries of a segmented stable log
        ({!Rs_slog.Stable_log.segment_event}): after a fresh segment is
        allocated and formatted but before any header links it; after a
        header write that changed the segment table or low-water mark
        (the link/retirement commit point); after a segment's pages were
        returned to the pool. *)

type point =
  | Store_write of { store : int; after_writes : int }
      (** tear the [(after_writes+1)]-th physical page write on either
          disk of the [store]-th stable store in the run's start-of-run
          store list ({!Rs_storage.Stable_store.is_write}; repair writes
          count too) *)
  | Force_boundary of { nth : int }
      (** crash immediately after the [nth] log force of the operation
          completes: the force is stable, the continuation is lost *)
  | Segment_boundary of { stage : seg_stage; nth : int }
      (** crash right after the [nth] segment event of [stage] within the
          operation — lands crashes in the alloc/link/retire windows of
          online log-space reclamation *)
  | Event_boundary of { nth : int }
      (** crash right after the [nth] simulator event of the operation —
          lands crashes between a group-commit enqueue and its flush,
          where durability tokens are buffered but not yet covered *)
  | Hk_boundary
      (** crash between housekeeping stage one and stage two — the
          half-built spare log must be discarded by recovery *)
  | Msg_crash of { after_deliveries : int; victim : int }
      (** distributed: crash guardian [victim] right after the
          [after_deliveries]-th 2PC message delivery *)
  | Msg_drop of { nth : int }  (** distributed: drop the [nth] message send *)
  | Msg_delay of { nth : int; by : float }
      (** distributed: deliver the [nth] send late by [by] time units,
          reordering it past later traffic *)

type slot = { op : int; point : point }
(** [point], scheduled inside the [op]-th operation of the scenario. *)

type schedule = slot list
(** Fault points in scenario order (at most one per operation). *)

val pp_schedule : Format.formatter -> schedule -> unit

val schedule_to_string : schedule -> string
(** One-line rendering, deterministic — used in trace events and the
    counterexample dump. *)
