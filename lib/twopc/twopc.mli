(** The standard two-phase commit protocol of §2.2, as a per-guardian
    protocol endpoint.

    The endpoint is transport- and storage-agnostic: it sends messages
    through a callback and touches stable storage only through
    {!type-hooks}, which the guardian runtime wires to its recovery
    system. Crash resilience comes from the hooks' forced log records plus
    the retry/query machinery here:
    - a coordinator stuck in the preparing phase aborts unilaterally after
      a timeout (§2.2.1);
    - a coordinator in the committing phase re-sends commit messages until
      every participant acknowledges (it can never abort past the
      committing record, §2.2.3);
    - a prepared participant that has heard nothing queries the
      coordinator, which answers from its stable state — an unknown action
      means abort (§2.2.3).

    Following the presumed-abort rules of R* (Mohan, Lindsay and
    Obermarck), the coordinator's own share costs no force of its own:
    - {e self-prepare}: a [Prepare] from the endpoint's own gid writes its
      prepared record unforced and replies at once. The coordinator's
      committing record goes into the same log later, and its covering
      force covers the prepared record; a crash before it loses both and
      presumed abort resolves the action;
    - {e lazy done}: the done record is written unforced. If a crash loses
      it, recovery finds the committing record alone, {!resume_coordinator}
      re-sends commit, and the participants ack again;
    - {e forgetting}: an action leaves the coordinator's volatile table
      once it is finished (done record written, or aborts sent). A query
      about it is then answered from stable state, as after a crash.

    A participant's committed record, and every aborted record, stay
    forced. *)

type msg =
  | Prepare of Rs_util.Aid.t
  | Prepared_reply of Rs_util.Aid.t
  | Refused_reply of Rs_util.Aid.t  (** participant answers "aborted" *)
  | Commit of Rs_util.Aid.t
  | Committed_ack of Rs_util.Aid.t
  | Abort of Rs_util.Aid.t
  | Aborted_ack of Rs_util.Aid.t
  | Query of Rs_util.Aid.t  (** prepared participant asks for the verdict *)

val msg_to_string : msg -> string
(** [msg_to_string m] is ["<kind>(<aid>)"], e.g. ["prepare(T0.3)"]: the
    text [Twopc_send]/[Twopc_recv] trace events carry. *)

val pp_msg : Format.formatter -> msg -> unit

(** How the protocol touches the guardian it runs in. Every callback
    corresponds to a recovery-system operation of §2.3 (plus volatile
    lock-state updates). *)
type hooks = {
  on_prepare : force:bool -> Rs_util.Aid.t -> [ `Prepared | `Refused ];
      (** write data entries + prepared record, forced when [force];
          [`Refused] if the action is unknown here (§2.2.2). [force] is
          [false] only for the coordinator's own share. *)
  on_commit : Rs_util.Aid.t -> unit;
      (** committed record + install versions. Called only for an action
          prepared here: a re-sent commit for an action this endpoint no
          longer holds prepared (it committed, then crashed) is acked
          without it. *)
  on_abort : Rs_util.Aid.t -> unit;
  on_committing : Rs_util.Aid.t -> Rs_util.Gid.t list -> unit;  (** committing record *)
  on_done : Rs_util.Aid.t -> unit;  (** done record; need not be forced *)
  coordinator_outcome : Rs_util.Aid.t -> [ `Commit | `Abort ];
      (** answer a participant query from stable state; unknown = abort *)
}

type t

val create :
  gid:Rs_util.Gid.t ->
  sim:Rs_sim.Sim.t ->
  send:(src:Rs_util.Gid.t -> dst:Rs_util.Gid.t -> msg -> unit) ->
  hooks:hooks ->
  ?await_durable:((unit -> unit) -> unit) ->
  unit ->
  t
(** The coordinator waits 10 time units for prepare replies before
    aborting unilaterally; the committing phase and prepared participants
    re-send or query every 5.

    [await_durable k] must run [k] once every log record the hooks have
    written so far is covered by a stable force; the default runs [k]
    immediately, for guardians whose hooks force synchronously. Under
    group commit the guardian passes its scheduler's [enqueue], so
    everything that {e announces} an outcome — the prepared reply, the
    client's committed report, commit messages, acks, query answers —
    waits for the covering batch. Between writing its committing record
    and that record's force the coordinator is in a [Deciding] phase and
    answers no queries: announcing early would let a crash erase a
    decision some participant already heard. *)

val gid : t -> Rs_util.Gid.t

val coordinating : t -> int
(** Actions this endpoint coordinates that are not yet finished. 0 once a
    crash-free system has quiesced. *)

type Rs_util.Fault_hook.mutation +=
  | Lazy_prepare
        (** Self-test mutation: every prepare, remote ones included, writes
            its prepared record unforced and replies without waiting — the
            coordinator's-own-share path applied where it is unsound. It
            exists only so the exploration oracles can show they catch a
            participant that promises a prepared record it has not made
            stable. *)

val start_commit :
  t ->
  Rs_util.Aid.t ->
  participants:Rs_util.Gid.t list ->
  on_result:([ `Committed | `Aborted ] -> unit) ->
  unit
(** Run two-phase commit as coordinator. [on_result] fires when the
    coordinator reaches its verdict (committing record written, or
    abort). The protocol keeps running after the callback until every
    participant acknowledged and the done record is written. *)

val handle : ?self:Rs_util.Gid.t -> t -> src:Rs_util.Gid.t -> msg -> unit
(** Feed an incoming message (wire this to the network). [self] is the
    gid the message was addressed to, defaulting to the endpoint's own;
    a promoted heir handling mail for a taken-over gid passes that gid
    so its replies and acks go out under the dead primary's name —
    otherwise a peer coordinator waiting on the old gid would never
    recognise the ack and re-send its verdict forever. *)

val resume_coordinator : t -> Rs_util.Aid.t -> Rs_util.Gid.t list -> unit
(** Resume phase two after recovery for an action whose committing record
    is in the log but whose done record is not. *)

val await_verdict : t -> Rs_util.Aid.t -> coordinator:Rs_util.Gid.t -> unit
(** Participant side after recovery: the action is prepared and must
    query its coordinator until the verdict arrives. *)

val stop : t -> unit
(** Stop all timers (the guardian crashed); a stopped endpoint ignores
    everything. *)
