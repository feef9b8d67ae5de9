(** Unique identifiers for recoverable objects (§3.2).

    A uid is unique with respect to the object's guardian and is never
    reused. The generator is the thesis's "stable counter": after a crash it
    is reset past the largest uid seen in the log, so uids of surviving
    objects are never reassigned. *)

type t = private int

val of_int : int -> t
(** [of_int i] is uid [i]. Raises [Invalid_argument] if [i < 0]. *)

val to_int : t -> int

val stable_vars : t
(** The predefined uid of the stable-variables root object (§3.3.3.2): every
    guardian's stable state is reachable from this single recoverable
    object. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t

(** The per-guardian stable counter generating fresh uids. *)
module Gen : sig
  type uid := t
  type t

  val create : unit -> t
  (** A fresh generator whose first generated uid is strictly greater than
      [stable_vars]. *)

  val fresh : t -> uid
  (** [fresh g] is a uid never produced by [g] before. *)

  val last : t -> uid
  (** [last g] is the most recently generated uid ([stable_vars] if none). *)

  val reset_past : t -> uid -> unit
  (** [reset_past g u] ensures all future uids are greater than [u]; used at
      recovery to reset the stable counter to the largest uid in the OT
      (§3.4.4 step 3). Never moves the counter backwards. *)
end

(** Where a heap's fresh uids come from. The default source wraps the
    guardian's own stable counter; a placement directory replaces it with a
    pool of globally-unique ranges reserved in batches from a master
    allocator (see [Rs_dir.Directory]), so shards mint without per-action
    coordination. [label] names the source in trace events. *)
module Source : sig
  type uid := t
  type t = { label : string; mint : unit -> uid }
end
