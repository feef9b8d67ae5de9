(** The invariant suite the explorer checks after every recovery.

    Five families, straight from the thesis's reliability argument:
    committed effects are durable and aborted/uncommitted effects are
    invisible (checked by the engine against its own serial model of
    counter values), the log is structurally well-formed
    ({!Core.Log_check}), the segmented log's segment chain tiles the live
    stream with nothing orphaned, and the two disk copies of every stable
    store agree once the Lampson–Sturgis repair pass has run. *)

type violation = { oracle : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

val check_counters :
  oracle:string -> allowed:int array list -> actual:int array -> violation list
(** [actual] must equal one of the [allowed] serial states — e.g. after a
    crash mid-commit, either the pre-state (action rolled back) or the
    post-state (commit record made it). Anything else is a partial
    (non-atomic) state. *)

val check_log : Rs_slog.Stable_log.t option -> violation list
(** {!Core.Log_check.check_log} on the scheme's current log, one
    violation per issue. [None] (shadow) passes vacuously. *)

val check_segments : Rs_slog.Log_dir.t list -> violation list
(** {!Core.Log_check.check_segments} on each of the scheme's log
    directories (one for simple and hybrid, three for shadow), one
    violation per issue — every segment chain must tile its live stream
    with no orphans after every recovery. *)

val check_stores : Rs_storage.Stable_store.t list -> violation list
(** For each store: run {!Rs_storage.Stable_store.recover}, then demand
    {!Rs_storage.Stable_store.agreement_issues} is empty — the two-copy
    representation must be repairable back to full agreement. *)

val check_scheme : Rs_workload.Scheme.t -> violation list
(** {!check_log} on the scheme's current log, {!check_segments} on all
    its log directories, and {!check_stores} on all its stable stores. *)
