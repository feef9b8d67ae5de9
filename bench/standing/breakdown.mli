(** Virtual-time breakdown of committed update operations, rebuilt from
    the trace.

    An operation's latency runs from its due time to the resolution of
    the attempt that committed. It splits into consecutive components:
    - [retry]: due time to the committing attempt's [Handle_submit]
      (failed attempts plus backoff);
    - [lock_wait]: each [Lock_wait] of that attempt to its grant
      ([Lock_acquire] on the same heap and object);
    - [exec]: the rest of submit to the first [prepare] send;
    - [prepare]: first [prepare] send to the last [prepared] receipt;
    - [decide]: last [prepared] receipt to [Handle_resolve] (the
      committing record's force, including any group-commit window). *)

type op = { aid : string; due : float }
(** A committed operation: the committing attempt's aid as the trace
    prints it ([T0.12]) and the operation's due time. *)

type parts = { retry : float; lock_wait : float; exec : float; prepare : float; decide : float }

val total : parts -> float

val mean : parts list -> parts
(** Component-wise mean; all zero for an empty list. *)

val reconstruct : Rs_obs.Trace.record list -> op list -> (parts, string) result list
(** One result per op, in order. [Error] when the trace lacks one of the
    committing attempt's submit, prepare, prepared or resolve events, or
    holds a lock wait that was never granted. The caller checks that each
    {!total} matches the latency it measured from the handle. *)
