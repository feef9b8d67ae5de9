(** Growable arrays, used for in-memory log indexes and event queues.

    Dropping elements ([pop], [truncate], [clear]) leaves none of them
    reachable from the vector; [clear] also releases the storage. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] when out of bounds. *)

val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Removes and returns the last element. Raises [Invalid_argument] when
    empty. *)

val last : 'a t -> 'a
val truncate : 'a t -> int -> unit
(** [truncate t n] drops elements with index >= [n]. No-op if already
    shorter. *)

val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t
