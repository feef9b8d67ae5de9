(** Structural validator for logs — an [fsck] for the recovery system.

    Checks, without building any volatile state:
    - every entry decodes;
    - hybrid outcome entries form a well-founded backward chain (strictly
      decreasing [prev] addresses, terminating at nil);
    - every ⟨uid, log-address⟩ pair (prepared entries and CSSLs) points at
      a {e data} entry below the referencing entry;
    - outcome protocol order per action: at most one of committed/aborted,
      never both; committed/aborted only after prepared (or the action is
      a pure coordinator); done only after committing;
    - a committed_ss has no duplicate atomic uids (mutex uids may repeat —
      latest wins by address).

    Run after housekeeping (tests do) and from [argusctl verify]. *)

type issue = { addr : Log_entry.addr option; what : string }

val pp_issue : Format.formatter -> issue -> unit

val check_log : Rs_slog.Stable_log.t -> issue list
(** Full scan of all forced entries (it is a checker; cost is fine). *)

val check_segments : Rs_slog.Log_dir.t -> issue list
(** Segment-chain fsck for a log directory: table indices
    ascending and ids unique; every live stream page covered by a linked
    segment; no wholly-dead segment linked except the tail; every linked
    segment present in the pool with a self-description (id, index, base,
    geometry, back link) agreeing with the table; and no unreachable
    segment left in the pool registry (the current log's table — plus the
    pending log's, mid-housekeeping — is the sole source of truth). *)
