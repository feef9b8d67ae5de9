(** Group commit: coalesce log forces across concurrent actions.

    Callers that need an entry durable enqueue a {e durability token}
    instead of calling {!Stable_log.force} directly. The scheduler covers
    every outstanding token with one physical force — one read-modify-write
    pass over the dirty pages plus one header write per batch — and then
    fires each token's completion callback. The durability contract is
    unchanged: a token's callback runs only once a force covering the
    caller's writes is stable.

    With no timer (or a zero window) the scheduler degrades to the
    synchronous behaviour: each [enqueue] forces immediately and runs the
    callback before returning. With a window and a timer (virtual time
    under {!Rs_sim.Sim}, supplied as a function so this library need not
    depend on the simulator), the first token arms a flush [window] in the
    future and later tokens ride the same batch.

    Crash semantics: tokens whose covering force has not yet happened are
    simply lost on a crash — their entries sit in the volatile pending
    buffer, and recovery resolves the actions by presumed abort. [flush]
    drops its waiters {e before} forcing, so a crash raised from inside the
    force never fires completion callbacks.

    Instrumented in {!Rs_obs.Metrics}: [slog.group_commits] counts batches;
    the [Log_force] trace event of each covering force carries how many
    entries it made durable. *)

type t

type timer = delay:float -> (unit -> unit) -> unit
(** [timer ~delay k] schedules [k] to run [delay] time units from now. *)

val create : ?window:float -> ?timer:timer -> Stable_log.t -> t
(** A scheduler flushing [log]. Default [window] is [0.0] (synchronous). *)

val set_log : t -> Stable_log.t -> unit
(** Point the scheduler at a new log (after a housekeeping switch).
    Outstanding tokens are settled first by a {!flush} against the {e old}
    log — retargeting them silently would let a force of the new log
    stand in for the covering force their entries never got. Call before
    the old log is destroyed. *)

val configure : t -> window:float -> timer:timer option -> unit
(** Change the batching window and timer, e.g. to attach a simulator's
    virtual-time clock after recovery. *)

val window : t -> float
val batched : t -> bool
(** Whether tokens currently batch (alive, positive window, timer set). *)

val pending : t -> int
(** Tokens enqueued but not yet covered by a force. *)

val enqueue : t -> ?on_durable:(unit -> unit) -> unit -> unit
(** Enqueue a durability token for everything written to the log so far.
    [on_durable] fires after the covering force (synchronously when not
    batching). *)

val flush : t -> unit
(** Force now, covering all outstanding tokens; no-op when none. *)

val stop : t -> unit
(** Kill the scheduler (crash path): outstanding tokens are dropped and
    never fire, later [enqueue]/[flush] calls are ignored. Stale timers
    referencing this scheduler become no-ops. *)
