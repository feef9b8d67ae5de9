(** Value-level durable FIFO queue: the representation and invariant of the
    [Queue] load profile.

    A queue is [Tup [| Int next_token; items... |]], oldest item first.
    Every enqueue appends the current [next_token] and increments it, so
    tokens are minted in committed-enqueue order; a dequeue removes the
    head. The committed queue state is then a pure function of the
    committed operation counts — [tokens [dequeued, enqueued)] in order —
    which is what {!check} verifies: FIFO order, no lost and no duplicated
    elements, under any interleaving of crashes and retries. *)

val empty : Rs_objstore.Value.t

val enqueue : Rs_objstore.Value.t -> Rs_objstore.Value.t * int
(** The grown queue and the token that was appended. *)

val dequeue : Rs_objstore.Value.t -> (Rs_objstore.Value.t * int) option
(** The shrunk queue and the head token; [None] when empty (the load
    profile turns that into a deliberate abort). *)

val check : enqueued:int -> dequeued:int -> Rs_objstore.Value.t -> (unit, string) result
(** [check ~enqueued ~dequeued v]: [v]'s token counter equals [enqueued]
    and its content is exactly [dequeued..enqueued-1] in order. *)
