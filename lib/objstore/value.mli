(** Volatile-memory values: the data portion of objects (Fig. 3-2).

    A value is a tree of primitives and tuples whose leaves may be
    references to heap objects — recoverable (atomic/mutex) or regular.
    Tuples are mutable arrays: actions mutate their private version of an
    atomic object in place, and mutex state is mutated in place under
    possession. *)

type addr = int
(** Volatile-memory address: index into the heap's object table. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Tup of t array  (** mutable: in-place update of a version *)
  | Ref of addr  (** pointer to another heap object *)

val tup_map : ('a -> t) -> 'a array -> t
(** [tup_map f a] is [Tup (Array.map f a)], applying [f] in index order,
    without [Array.map]'s forced minor collection: [Array.map] builds its
    result with [Array.make n (f a.(0))], and [Array.make] runs a minor
    collection first when [n] is over 256 words and the value is young.
    Here the array starts out filled with the immediate [Unit]. *)

val equal_shape : t -> t -> bool
(** Structural equality treating [Ref] addresses literally. Used by tests;
    does not follow references. *)

val pp : Format.formatter -> t -> unit

val refs : t -> addr list
(** All addresses referenced directly from this value, in preorder. *)
