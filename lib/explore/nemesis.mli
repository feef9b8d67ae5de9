(** Seeded fault composition under load: the nemesis.

    Where {!Explore} enumerates crash schedules, the nemesis samples them,
    over the same {!Explore.world}. One {!run} builds a loaded
    {!Rs_guardian.System} (through {!Rs_load.Load}, any profile), samples
    a deterministic schedule of fault events over the middle of the run —
    stable-storage page decay, network partitions that later heal,
    guardian crashes ({!Explore.down}) that later come back
    ({!Explore.up}: restart, or in replicated mode promote the warm
    standby) — fires them from the virtual-time simulator while traffic
    flows, drains to quiescence with every fault lifted, and reports
    {!Explore.judge}'s verdict, one ["<oracle>: <detail>"] string per
    violation.

    Everything derives from [config.seed]: the same configuration replays
    byte-identically, trace included — a failing seed is a repro, not an
    anecdote. The trace clock is back at its default when {!run}
    returns. *)

type config = {
  seed : int;
  profile : Rs_load.Load.profile;
  guardians : int;  (** traffic-bearing shards *)
  clients : int;  (** closed-loop client population *)
  duration : float;  (** traffic window; faults land in [0.05, 0.85] of it *)
  conflict : float;
  abort_rate : float;
  events : int;  (** scheduled fault events *)
  decay_weight : int;  (** relative likelihood of each fault kind *)
  partition_weight : int;
  crash_weight : int;
  partition_span : float;  (** partition-to-heal delay *)
  restart_delay : float;  (** crash-to-restart (or promote) delay *)
  replicated : bool;
      (** directory-routed Synthetic traffic with a warm standby attached
          to shard 0 ({!Rs_repl.Repl.Pair}); the first crash of that
          shard promotes the standby instead of restarting, when the
          replica is current enough *)
}

val default : config
(** 3 guardians, 6 clients, duration 120, 6 events with equal weights,
    Synthetic profile, not replicated. *)

type fired = { time : float; kind : string; target : string }
(** One nemesis event that actually fired ("decay", "partition", "heal",
    "crash", "restart", "promote"); also emitted as a [Nemesis] trace
    event. An event whose every candidate target was already faulted is
    skipped, not retargeted. *)

type outcome = {
  stats : Rs_load.Load.stats;
      (** includes [nemesis_downtime]: the union of fault windows, which
          the throughput rate excludes *)
  fired : fired list;
  violations : string list;  (** empty = every oracle and monitor clean *)
  trace : string;
      (** the run's newest 8192 trace events, or the caller's ring when it
          keeps one — byte-identical per seed *)
}

val run : config -> outcome
val pp_outcome : Format.formatter -> outcome -> unit
(** Ends with a greppable [violations=N] line. *)
