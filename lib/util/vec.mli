(** Growable arrays, used for in-memory log indexes, event queues, the
    heap's object table and the flattener's node table.

    Dropping elements ([pop], [truncate], [clear]) leaves none of them
    reachable from the vector; [clear] also releases the storage.

    No operation forces a minor collection. [Array.make n v] (and the
    stdlib functions built on it: [Array.init], [Array.map],
    [Array.of_list]) runs one first when [n] is over 256 words and [v] is
    young; growth and {!to_array} copy existing arrays instead. *)

type 'a t

val create : unit -> 'a t
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

val to_array : 'a t -> 'a array
(** A fresh array of the elements, in order. *)
