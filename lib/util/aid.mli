(** Action (transaction) identifiers (§2.1, §3.2).

    Top-level actions are identified by the guardian that coordinates them
    plus a per-coordinator sequence number. As §2.2.2 requires, "the action
    id contains enough information such that each participant knows who its
    coordinator is". *)

type t = private { coordinator : Gid.t; seq : int }

val make : coordinator:Gid.t -> seq:int -> t
(** Raises [Invalid_argument] if [seq < 0]. *)

val coordinator : t -> Gid.t
val seq : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val to_string : t -> string
(** [to_string a] is ["T<coordinator>.<seq>"], the form [pp] prints and trace
    payloads carry. *)

val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t

(** Per-guardian generator of fresh top-level action ids. *)
module Gen : sig
  type aid := t
  type t

  val create : Gid.t -> t
  val fresh : t -> aid

  val reset_past : t -> aid -> unit
  (** At recovery the coordinator resets its sequence past any aid it
      coordinated that survives in the log, so ids are never reused. Aids
      coordinated by other guardians are ignored. *)
end
