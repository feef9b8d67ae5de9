(** Systematic crash-schedule exploration — a model-checker-style harness
    over the recovery schemes and the guardian system.

    Every target is one row of {!targets}. A row runs its fixed seeded
    scenario once to census its fault points, re-runs it once per
    enumerated schedule with the faults injected, recovering after every
    crash, and asks the target's own oracles and the one {!judge}. The
    first violation is {e shrunk} to a minimal counterexample (greedy
    delta-debugging: drop any slot whose removal still fails) and reported
    through {!Rs_obs.Trace} events plus a deterministic text dump. Each
    schedule starts from a cleared trace, and the trace clock is back at
    its default when an exploration returns. *)

type config = {
  seed : int;  (** scenario and schedule-shuffle seed *)
  budget : int;  (** maximum schedules to run (census baseline included) *)
  max_depth : int;  (** fault points per schedule (1 or 2) *)
}

val default_config : config
(** [{ seed = 11; budget = 200; max_depth = 2 }] *)

type counterexample = {
  schedule : Fault.schedule;  (** minimal failing schedule after shrinking *)
  violation : Oracle.violation;  (** what the oracle saw under it *)
}

type outcome = {
  target : string;  (** the explored target's name *)
  points : int;  (** fault points the census found *)
  schedules : int;  (** schedules actually run (≤ budget) *)
  counterexample : counterexample option;  (** [None]: all oracles held *)
}

(** {1 The world and the judge} *)

type client = { mutable issued : int; mutable resolved : int; mutable committed : int }
(** Counters of a target's own clients, for worlds without a load. *)

type world = {
  sys : Rs_guardian.System.t;
  dir : Rs_dir.Directory.t option;  (** directory routing, when present *)
  pair : Rs_repl.Repl.Pair.t option;  (** a replicated pair, when present *)
  load : Rs_load.Load.t option;  (** the traffic generator, when present *)
  client : client;
}
(** A guardian system under faults, shared by the explorer's system
    targets and {!Nemesis}. *)

val world :
  ?dir:Rs_dir.Directory.t ->
  ?pair:Rs_repl.Repl.Pair.t ->
  ?load:Rs_load.Load.t ->
  Rs_guardian.System.t ->
  world
(** A world with zeroed client counters. *)

val down : world -> Rs_util.Gid.t -> unit
(** Crash a guardian: through the pair when it is the pair's primary or
    standby, else through the directory when there is one, else through
    the system. *)

val up : world -> Rs_util.Gid.t -> [ `Promoted | `Restarted ]
(** Bring a crashed guardian back, by the same dispatch as {!down}. A
    crashed pair primary is promoted over when {!Rs_repl.Repl.Pair.promotable},
    else cold-restarted in place; a crashed standby restarts into a
    resync. *)

type subject =
  | World of world  (** a guardian system, drained *)
  | Single of Rs_workload.Scheme.t  (** one recovered single-guardian scheme *)

val judge : subject -> Oracle.violation list
(** The one verdict every target and {!Nemesis} end in. For a world: no
    handle unresolved, at least one commit, {!Rs_load.Load.check} when
    there is a load, log, segment and store fsck of every live guardian
    (details prefixed with its gid), and
    {!Rs_dir.Directory.verify_unique_uids} when there is a directory. For
    a single scheme: {!Oracle.check_scheme}. Both end with the spec
    monitors ({!Rs_obs.Monitor.check}) over every event since the trace
    was cleared, reported as oracle ["monitor:<name>"]. *)

(** {1 Targets} *)

val targets : (string * (config -> outcome)) list
(** Every target, one row each, in report order.

    The single-guardian rows share one phase loop: phase [j] runs under
    the slot scheduled at [j]. The census hooks
    ({!Rs_storage.Disk.set_write_hook}, {!Rs_slog.Stable_log.set_force_hook},
    {!Rs_slog.Stable_log.set_segment_hook}) find a point at every store
    write, log force and segment alloc/link/retire boundary, plus the
    housekeeping stage boundary and at most 20 evenly spaced simulator
    event boundaries of a phase. A crash is recovered with presumed
    abort and the counters checked by the row's oracle; a closing commit
    must survive a crash that interrupts nothing.
    - ["simple"], ["hybrid"], ["shadow"]: that {!Rs_workload.Scheme}
      under a {!Rs_workload.Synth} workload of commits, aborts and (where
      supported) staged housekeeping; counters sit on a serial state.
    - ["segments"]: hybrid with tiny log segments (two 128-byte pages)
      under churn, dense in segment boundaries.
    - ["group"]: three clients over a windowed hybrid scheme, each
      incrementing its own object pair through chained asynchronous
      actions whose outcome records ride shared forces. Each recovered
      pair is equal and sits between the client's durably-acknowledged
      and issued commit counts.

    ["twopc"]: a two-guardian transfer under 2PC, with fault points at
    every message delivery (crash the coordinator or the participant),
    every send (drop it) and every send again (delay it past later
    traffic). Both guardians land on the same side of the transfer.

    The event rows crash a guardian world at up to 20 evenly spaced
    simulator event boundaries (pairs of them at depth 2), drain —
    through {!Rs_load.Load.drain} when the world has a load — and judge:
    - ["load"]: contended closed-loop traffic over two guardians; the
      victim alternates.
    - ["shards"]: directory-routed traffic over three shards with a tiny
      uid batch and creates dripped in; the victim rotates over every
      shard, the master included; created uids are distinct.
    - ["repl"]: a replicated pair under retrying clients; primary deaths
      promote (then rejoin the old primary), standby deaths restart two
      time units later. A closing failover probe: no divergence, counters
      equal on the heir, acked commits survive, no phantom increments.
    - ["ckpt"]: two guardians with incremental background checkpointing;
      counters equal, the newest acked commit survives, and serial and
      segment-parallel recovery of each directory agree.
    - ["mvcc"]: the load target with half the operations MVCC snapshot
      reads; reads commit, and after the drain no snapshot stays open and
      every atomic object is back to one version. *)

val explore : ?config:config -> string -> outcome
(** Run the {!targets} row of that name. Raises [Invalid_argument] on an
    unknown name. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** Deterministic report: a one-line summary, then — on violation — the
    shrunk counterexample, slot by slot, with the oracle's detail. *)
