(** Synthetic traffic against a {!Rs_guardian.System}: thousands of
    concurrent actions over the virtual-time simulator, with latency
    histograms, throughput counters, bounded retry with exponential
    backoff, and admission-control shedding.

    The generator drives one of five profiles in either of two shapes:

    - {e closed loop}: a fixed population of clients, each submitting its
      next operation a think-time after the previous one resolves — the
      classic fixed-concurrency benchmark shape;
    - {e open loop}: operations arrive at a Poisson rate regardless of how
      many are still in flight — the shape that exposes saturation and
      makes admission control ({!Rs_guardian.System.Overloaded}) earn its
      keep.

    Everything is deterministic from [cfg.seed]: the same configuration
    replays the same schedule, latencies included, which is what lets
    {!Rs_explore} enumerate crash points inside a load run. *)

type profile =
  | Synthetic  (** per-object increment counters; checkable sum *)
  | Bank  (** transfers between accounts; conservation invariant *)
  | Reservation  (** seat booking with deliberate sold-out aborts *)
  | Queue
      (** durable FIFO queues ({!Rs_workload.Fifo}): enqueues mint ordered
          tokens, dequeues pop the head (deliberately aborting when
          empty); the committed queue must hold exactly the unconsumed
          tokens, in order *)
  | Saga
      (** multi-step business transaction as a chain of top actions across
          two shards, with a compensating action undoing leg one when leg
          two fails terminally ({!Rs_workload.Saga}); no half-applied saga
          survives quiescence *)

type mode =
  | Closed of { clients : int; think : float }
      (** [clients] concurrent clients, [think] virtual-time units between
          an operation's resolution and the client's next submission. *)
  | Open of { rate : float }
      (** Poisson arrivals at [rate] operations per virtual-time unit. *)

type config = {
  seed : int;
  guardians : int;
  drop : float;  (** message drop probability *)
  wait_timeout : float;  (** lock-wait timeout (deadlock breaker) *)
  max_in_flight : int option;  (** per-guardian admission cap *)
  profile : profile;
  mode : mode;
  duration : float;  (** stop submitting new operations after this *)
  objects_per_guardian : int;
  conflict : float;  (** probability a step targets its guardian's hot object *)
  abort_rate : float;  (** probability an action deliberately aborts at the end *)
  initial : int;  (** initial balance (Bank) / seats (Reservation) *)
  directory : bool;
      (** route through an {!Rs_dir.Directory}: objects become global keys
          placed on shards by hash, uids come from batched reservations,
          and actions are routed by placement (Synthetic profile only) *)
  cross_shard : float;
      (** probability an operation spans two distinct shards (directory
          mode) *)
  uid_batch : int;  (** uids per directory reservation *)
  spares : int;
      (** extra guardians created in the system but never populated or
          targeted by traffic — warm-standby slots a fault injector can
          attach replication pairs to ({!Rs_repl.Repl.Pair}) *)
  read_fraction : float;
      (** probability an operation is read-only: same target shape as an
          update (so the conflict knob applies), but it only reads.
          Submitted as an MVCC snapshot action
          ({!Rs_guardian.System.Read_only}) — zero locks, structurally
          abort-free — unless [locked_reads] flips the baseline.
          Committed read values feed a monotone-read model check
          (Synthetic profile): a counter observed lower than any earlier
          committed read of it fails {!check}. Not supported for Saga. *)
  locked_reads : bool;
      (** submit read operations as ordinary Update actions whose steps
          take read locks — the pre-MVCC baseline e15 compares against;
          such reads can conflict, wait and time out *)
}

val default : config
(** 2 guardians, closed loop with 8 clients, Synthetic profile, 10%%
    conflict, no drops, duration 200. Override with record update.

    Every run uses the network defaults of {!Rs_guardian.System.create}
    (latency 1, no jitter) and synchronous forces. Each action touches
    two objects. An operation aborted by a conflict, a timeout or a crash
    is retried up to 8 times, after a delay that starts at 2 and doubles
    per attempt up to 64, scaled by a random factor in \[1, 1.5). *)

type stats = {
  submitted : int;  (** submission attempts, retries included *)
  committed : int;
  aborted : int;  (** conflict / timeout / crash aborts (retried) *)
  deliberate_aborts : int;  (** the action itself chose to abort *)
  sheds : int;  (** submissions refused by admission control *)
  retries : int;
  reroutes : int;
      (** retries redirected to another coordinator because {!submit}
          raised [Guardian_down] — dead shard, not admission shed *)
  abandoned : int;  (** operations dropped after 8 retries *)
  wait_timeouts : int;  (** lock waits broken by the timeout *)
  reads_submitted : int;  (** read-only operation attempts *)
  reads_committed : int;
  reads_aborted : int;
      (** read attempts aborted by lock conflict — possible only with
          [locked_reads]; MVCC reads cannot abort *)
  read_p50 : float;  (** read-op latency median, virtual-time units *)
  read_p99 : float;
  elapsed : float;  (** virtual time from start to drain *)
  nemesis_downtime : float;
      (** union of injected fault windows reported via {!note_downtime};
          0 when no nemesis drove the run *)
  throughput : float;
      (** committed actions per *available* virtual-time unit:
          [committed / (elapsed - nemesis_downtime)] — a run spent half
          partitioned is judged on the half it could make progress, so
          fault runs stay comparable with clean ones *)
  p50 : float;  (** commit-latency median, virtual-time units *)
  p99 : float;
}

val pp_stats : Format.formatter -> stats -> unit

type t

val create : config -> t
(** Build the system and commit the per-guardian object population (one
    setup action per guardian, driven to completion). *)

val system : t -> Rs_guardian.System.t
(** The system under load — exposed so a fault injector can crash and
    restart guardians mid-run. *)

val directory : t -> Rs_dir.Directory.t option
(** The placement directory in directory mode ([None] otherwise). Fault
    injectors must crash/restart through it ({!Rs_dir.Directory.crash})
    so shard pools are dropped and uid sources reinstalled. *)

val start : t -> unit
(** Schedule the client population / arrival process. Returns immediately;
    drive the simulator ({!drain}, or stepping {!Rs_guardian.System.sim})
    to make traffic happen. *)

val drain : ?limit:float -> t -> stats
(** Run the simulator until quiescent (default limit 100_000 virtual-time
    units — raises [Failure] beyond it) and return the run's statistics.
    Restart any crashed guardian first or quiescence never comes. *)

val run : ?limit:float -> config -> stats
(** [create], {!start}, {!drain}. *)

val stats : t -> stats
(** Statistics so far (callable mid-run). *)

val note_downtime : t -> float -> unit
(** Report [d] virtual-time units of injected unavailability (a partition
    window, a crash-to-restart gap). The caller — normally
    {!Rs_explore.Nemesis} — is responsible for reporting the *union* of
    overlapping fault windows, not their sum. Feeds
    [stats.nemesis_downtime] and the availability-adjusted throughput. *)

val unresolved : t -> int
(** Submitted actions not yet resolved. After {!drain} this must be 0 —
    a positive value over a quiescent simulator is a stuck action, the
    exact bug the explorer's [load] target hunts. *)

val check : t -> (unit, string) result
(** The profile invariant over committed state:
    Synthetic — every counter equals the model's committed increments (no
    lost or duplicated actions); Bank — total balance conserved;
    Reservation — seats sold equals committed bookings and never
    oversold; Queue — every queue holds exactly the committed-but-unconsumed
    tokens in FIFO order; Saga — per-object counters match the model and
    every started saga either completed or compensated. Every guardian
    must be up — or, in directory mode, every shard must resolve to a live
    guardian (a promoted heir counts; its dead primary does not fail the
    gate). *)
