(** Guardian identifiers.

    A guardian is the Argus unit of distribution (§2.1 of the thesis). Each
    guardian in a system carries a small dense identifier. *)

type t = private int

val of_int : int -> t
(** [of_int i] is the guardian id [i]. Raises [Invalid_argument] if [i < 0]. *)

val to_int : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val to_string : t -> string
(** [to_string g] is ["G<n>"], the form [pp] prints and trace payloads carry. *)

val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
