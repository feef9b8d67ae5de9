(** Deterministic object placement: which guardian (shard) owns a key.

    The Argus model gives every object to exactly one guardian; scaling to
    many guardians needs a pure function from object name to shard that
    every client computes identically — no lookup traffic on the fast
    path. Here that function is a seeded CRC-based hash of the key, spread
    over the shard list; it is balanced for arbitrary key sets.

    Placement is deterministic for a given (seed, shards): the
    routing-determinism test compares two independently built placements
    key by key. *)

type t

val create : ?seed:int -> shards:Rs_util.Gid.t list -> unit -> t
(** Raises [Invalid_argument] if [shards] is empty. Default [seed] 0. *)

val shards : t -> Rs_util.Gid.t list

val shard_of_key : t -> string -> Rs_util.Gid.t
(** The owning shard for [key]. *)
