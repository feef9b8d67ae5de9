(** The incremental copying algorithm (§2.4.3) and its recovery-time
    inverse.

    [flatten] linearizes one recoverable object's version: contained
    regular objects are copied into the flattened form (sharing and cycles
    preserved), references to other recoverable objects become their uids
    (Fig. 2-2, Fig. 3-4). Each recoverable object is copied in its own
    atomic step by the recovery system — the algorithm is incremental and
    order-independent.

    [rebuild] reconstructs a volatile version from a flattened one: uids
    become references to the real object when its volatile address is
    already known, otherwise to a placeholder object patched by
    {!Heap.patch_placeholders} in the final recovery pass (§3.4.3). *)

val flatten : Heap.t -> Value.t -> Fvalue.t
(** Raises [Invalid_argument] if the value references an object that is
    recoverable but has no uid (cannot happen for heap-allocated
    objects). *)

val encode : Heap.t -> Rs_util.Codec.Enc.t -> Value.t -> unit
(** [encode heap enc v] writes exactly the bytes of
    [Fvalue.encode enc (flatten heap v)], straight from the heap: a value
    that reaches no regular object is written with no node table and
    without allocating. A value that does reach one (its sharing and
    cycles need [flatten]'s memo) is flattened and encoded. Raises as
    {!flatten} does. *)

val iter_uids : Heap.t -> Value.t -> (Rs_util.Uid.t -> unit) -> unit
(** [iter_uids heap v f] calls [f] on each uid that [Fvalue.uids
    (flatten heap v)] lists, in that order; a uid may be passed more than
    once. Raises as {!flatten} does. *)

val rebuild : Heap.t -> Fvalue.t -> Value.t
(** Allocates fresh regular objects for [Nregular] nodes.

    Neither [flatten] nor [rebuild] forces a minor collection, however
    many nodes a version has or a tuple holds (see {!Rs_util.Vec} and
    {!Value.tup_map}). *)
