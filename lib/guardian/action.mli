(** First-class handles for top-level actions.

    {!System.submit} returns a handle the client keeps: the action's
    outcome is discoverable at any time ({!outcome}), awaitable
    ({!System.await}), and observable ({!on_resolve}) — so a client
    survives losing interest, retrying, or a coordinator crash without
    threading callbacks through every layer. Timestamps are virtual
    (simulator) time, so per-action latency is deterministic. *)

type outcome = Committed | Aborted

type handle

val aid : handle -> Rs_util.Aid.t
val outcome : handle -> outcome option
(** [None] while the action is still in flight. *)

val resolved : handle -> bool
val resolved_at : handle -> float option

val latency : handle -> float option
(** [resolved_at - submitted_at], once resolved. *)

val on_resolve : handle -> (handle -> outcome -> unit) -> unit
(** Run [f] when the handle resolves (immediately if it already has).
    Observers fire in registration order, exactly once. *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp : Format.formatter -> handle -> unit

(**/**)

(* Runtime interface, used by {!System}. *)

val make : aid:Rs_util.Aid.t -> now:float -> handle

val resolve : handle -> now:float -> outcome -> unit
(** First resolution wins; later calls are ignored. *)
