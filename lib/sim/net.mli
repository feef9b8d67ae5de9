(** Simulated network between guardians: point-to-point messages with
    latency, optional jitter and loss, and node up/down state. Messages
    addressed to a node that is down on {e delivery} are silently dropped
    — exactly the failure 2PC timeouts must cover. A self-send
    ([src = dst]) skips the wire: it is delivered at delay 0 (the same
    instant, after the sending event) with no latency and no jitter draw,
    but it still passes the fault hook, the drop check and the up check and
    counts as sent and delivered. *)

type 'msg t

type Rs_util.Fault_hook.site +=
  | Send
        (** a send from an up source, ahead of the probabilistic drop: a
            [Drop] verdict loses it silently, [Delay d] delivers it [d]
            later (reordering it past messages sent later), [Go] and
            [Crash] deliver it normally. [Rs_explore] drops or reorders
            the n-th 2PC message here. *)

val create :
  ?latency:float -> ?jitter:float -> ?drop_prob:float -> Sim.t -> unit -> 'msg t
(** Defaults: latency 1.0, jitter 0, drop 0. *)

val register :
  'msg t -> Rs_util.Gid.t -> (src:Rs_util.Gid.t -> 'msg -> unit) -> unit
(** Install (or replace, e.g. after recovery) the node's message handler.
    Nodes start up. *)

val set_up : 'msg t -> Rs_util.Gid.t -> bool -> unit
val is_up : 'msg t -> Rs_util.Gid.t -> bool

val send : 'msg t -> src:Rs_util.Gid.t -> dst:Rs_util.Gid.t -> 'msg -> unit
(** Raises [Invalid_argument] if [dst] was never registered. A down source
    sends nothing. *)

val messages_sent : 'msg t -> int
val messages_delivered : 'msg t -> int
val messages_dropped : 'msg t -> int
