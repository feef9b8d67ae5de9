(** Exact order statistics over every sample of a run, and the
    capacity-ladder stop rule. *)

val sorted : float list -> float array

val rank : n:int -> permille:int -> int
(** Nearest-rank position (1-based) of the [permille]/1000 quantile among
    [n] samples: the smallest rank whose share of samples at or below it
    reaches the quantile. p50 is [~permille:500], p99 [~permille:990].
    Raises [Invalid_argument] if [n <= 0] or [permille] is outside
    [1..1000]. *)

val nearest_rank : float array -> permille:int -> float
(** The sample at {!rank} of a sorted, non-empty array. *)

val beyond : n:int -> permille:int -> int
(** Samples strictly after the nearest-rank position. *)

val supported : n:int -> permille:int -> bool
(** A percentile is reported only when at least ten samples lie beyond
    it; p99 therefore needs at least 1000 samples and p90 at least 100. *)

val median : float list -> float
(** Middle value; the mean of the two middle values for an even count.
    Raises [Invalid_argument] on an empty list. *)

val mean : float list -> float
(** 0 for an empty list. *)

val rung_passes : limit:float -> p99:float -> failed:int -> bool
(** A ladder rung holds when no operation failed and the update p99 is
    within the latency limit (inclusive). *)

val ladder : start:float -> step:float -> max_rungs:int -> passes:(float -> bool) -> float
(** Climb rates [start], [start + step], ... (at most [max_rungs]) and
    stop at the first rung that fails; the result is the highest rate
    that held, or 0 when the first rung fails. Rungs above a failing one
    are never run. *)
