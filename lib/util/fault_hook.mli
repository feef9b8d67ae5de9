(** The one fault seam: every injected crash, message fault and seeded
    mutation goes through here.

    Each layer names the points where a fault may land by extending
    {!site} — a physical disk write ([Rs_storage.Disk.Write]), a
    completed log force ([Rs_slog.Stable_log.Forced]), a segment
    lifecycle boundary ([Rs_slog.Stable_log.Segment]), a message send
    ([Rs_sim.Net.Send]) — and asks {!at} for a verdict there. A caller
    installs one hook and one mutation set for the length of a function;
    both are restored on any exit, a raised [Rs_storage.Disk.Crash]
    included, so no run outlives its faults.

    With nothing installed a site costs one load and one branch. *)

type site = ..
(** A point where a fault may land; each layer adds its own. *)

type verdict =
  | Go  (** carry on unharmed *)
  | Crash
      (** crash here: a disk write tears its page and raises
          [Rs_storage.Disk.Crash]; a force or segment boundary raises it
          right after the boundary *)
  | Drop  (** a send is lost *)
  | Delay of float  (** a send arrives this much later *)

val active : unit -> bool
(** Is a hook installed? A site whose value allocates checks this first. *)

val at : site -> verdict
(** The installed hook's verdict on [site]; [Go] when none is. *)

val with_hook : (site -> verdict) -> (unit -> 'a) -> 'a
(** [with_hook h f] runs [f] with [h] consulted at every site, then puts
    back whatever hook was installed before, however [f] exits. *)

val on_nth : (site -> bool) -> int -> verdict -> site -> verdict
(** [on_nth p n v] is a hook (fresh count each call) that answers [v] at
    the [n]-th site satisfying [p] and [Go] everywhere else. *)

type mutation = ..
(** A seeded bug a self-test turns on to prove an oracle catches it; each
    layer adds its own. *)

val with_mutations : mutation list -> (unit -> 'a) -> 'a
(** [with_mutations ms f] runs [f] with exactly [ms] switched on, then puts
    back the previous set, however [f] exits. *)

val mutated : mutation -> bool
(** Is [m] in the current mutation set? *)
