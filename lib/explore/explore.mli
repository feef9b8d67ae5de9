(** Systematic crash-schedule exploration — a model-checker-style harness
    over the recovery schemes and the guardian system.

    For each target one driver (a) runs a fixed seeded scenario once to
    census its fault points — store writes, log forces, segment events and
    the housekeeping stage boundary through the census hooks
    ({!Rs_storage.Disk.set_write_hook}, {!Rs_slog.Stable_log.set_force_hook},
    {!Rs_slog.Stable_log.set_segment_hook}), message deliveries and sends
    for the distributed target, at most 20 evenly spaced simulator event
    boundaries for the event targets; (b) re-runs the scenario once per
    enumerated schedule with the faults injected, recovering after every
    crash; and (c) asks the target's own oracles and the one {!judge}. The
    first violation is {e shrunk} to a minimal counterexample (greedy
    delta-debugging: drop any slot whose removal still fails) and reported
    through {!Rs_obs.Trace} events plus a deterministic text dump. Each
    schedule starts from a cleared trace ring, and the trace clock is back
    at its default when an exploration returns. *)

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
    monitors ({!Rs_obs.Monitor.check}) over the trace ring, reported as
    oracle ["monitor:<name>"]. *)

(** {1 Targets} *)

val explore_scheme : ?config:config -> string -> outcome
(** Explore a single-guardian {!Rs_workload.Scheme} by name ("simple",
    "hybrid" or "shadow"): a {!Rs_workload.Synth} workload of commits,
    aborts and (where supported) staged housekeeping, with crash points
    censused on every stable store and every log force. The ["segments"]
    target is a hybrid scheme with tiny log segments (two 128-byte pages)
    under a churn-heavy scenario whose census adds a point at every
    segment alloc/link/retire boundary. Each crash is recovered with
    presumed abort and the counters checked against the serial model
    before the judge. Raises [Invalid_argument] on an unknown name. *)

val explore_twopc : ?config:config -> unit -> outcome
(** Explore the distributed stack: a two-guardian transfer action under
    2PC, with fault points at every message delivery (crash the
    coordinator or the participant there), every message send (drop it),
    and every message send again (delay it past later traffic). The
    atomicity oracle demands both guardians land on the same side of the
    transfer. *)

val explore_group : ?config:config -> unit -> outcome
(** Explore the group-commit path: three concurrent clients over a
    windowed hybrid scheme on a virtual-time simulator, each client
    incrementing its own object pair through chained asynchronous
    actions whose outcome records ride shared forces. Crash points land
    on every store write, every physical force, and sampled simulator
    event boundaries — including between a durability token's enqueue
    and its covering flush. The oracle requires every recovered pair to
    sit between the client's durably-acknowledged commit count and its
    issued count, with both pair members equal. *)

type 's target = {
  name : string;
  setup : config -> world * 's;
      (** a fresh seeded world with its traffic scheduled, plus whatever
          state the victim and oracles share *)
  victim : world -> 's -> i:int -> nth:int -> unit;
      (** the [i]-th crash of a schedule, right after simulator event
          [nth]: take a guardian {!down} and bring it (eventually) {!up} *)
  extra_oracles : world -> 's -> Fault.schedule -> Oracle.violation list;
      (** run after the drain and before the {!judge}, so a closing
          probe they drive is judged too *)
}
(** An event-boundary target. {!explore_events} censuses the clean run's
    simulator events, crashes at up to 20 evenly spaced boundaries
    (pairs of them at depth 2), drains — through {!Rs_load.Load.drain}
    when the world has a load — and judges. The shipped targets:
    - ["load"]: contended closed-loop traffic over two guardians; the
      victim alternates.
    - ["shards"]: directory-routed traffic over three shards with a tiny
      uid batch and creates dripped in; the victim rotates over every
      shard, the master included; created uids must be distinct.
    - ["mvcc"]: the load target with half the operations MVCC snapshot
      reads; reads must commit, and after the drain no snapshot stays
      open and every atomic object is back to one version.
    - ["repl"]: a replicated pair under retrying clients; primary deaths
      promote (then rejoin the old primary), standby deaths restart two
      time units later, and a closing failover probe precedes the
      oracles: no divergence, counters equal on the heir, acked commits
      survive, no phantom increments.
    - ["ckpt"]: two guardians with incremental background checkpointing;
      counters equal, the newest acked commit survives, and serial and
      segment-parallel recovery of each guardian's directory agree. *)

val explore_events : ?config:config -> 's target -> outcome

val explore : ?config:config -> string -> outcome
(** Dispatch: ["twopc"], ["group"], the event targets ["load"],
    ["shards"], ["mvcc"], ["repl"] and ["ckpt"], else {!explore_scheme}. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** Deterministic report: a one-line summary, then — on violation — the
    shrunk counterexample, slot by slot, with the oracle's detail. *)
