(** Deterministic PRNG (SplitMix64) so every simulation, fault schedule and
    workload is reproducible from a seed. *)

type t

val create : int -> t
(** [create seed] is a generator determined entirely by [seed]. *)

val split : t -> t
(** An independent generator derived from (and advancing) [t]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Raises [Invalid_argument] if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> float -> bool
(** [bool t p] is true with probability [p]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. Raises [Invalid_argument] on an
    empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
