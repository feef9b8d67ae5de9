(** Metrics registry: named monotonic counters, gauges, and fixed-bucket
    histograms, cheap enough for the hot paths they instrument.

    All metrics live in a registry ({!default} unless stated otherwise)
    keyed by name; looking up the same name twice returns the same metric,
    so instrumented modules simply declare their counters at module
    initialization. Export ({!to_json}, {!pp}) shows only what a run
    touched: counters above zero, histograms with at least one
    observation, and every gauge (a gauge set to 0 is a reading). It is
    deterministic: metrics are emitted in name order, so two runs that
    perform the same operations serialize to identical bytes — the
    property the trace-determinism tests rely on. *)

type t
(** A registry. *)

type counter
type gauge
type histogram

val create : unit -> t
(** A fresh, empty registry (used by tests; production code shares
    {!default}). *)

val default : t
(** The process-wide registry every instrumented layer reports into. *)

val counter : ?registry:t -> string -> counter
(** [counter name] is the monotonic counter registered under [name],
    creating it at zero on first use. Raises [Invalid_argument] if [name]
    is already registered as a different metric kind. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1) to the counter. [by] must be non-negative. *)

val counter_value : counter -> int

val gauge : ?registry:t -> string -> gauge
(** [gauge name]: a settable instantaneous value (last write wins). *)

val set : gauge -> int -> unit
val gauge_value : gauge -> int

val histogram : ?registry:t -> ?bounds:int array -> string -> histogram
(** [histogram name] is the fixed-bucket histogram under [name]. [bounds]
    (default: the powers of two [0; 1; 2; 4; ...; 65536]) are strictly increasing bucket boundaries:
    an observation [v] falls in the {e underflow} bucket if
    [v < bounds.(0)], in the {e overflow} bucket if [v >= bounds.(last)],
    and otherwise in the interior bucket [i] with
    [bounds.(i) <= v < bounds.(i+1)]. Raises [Invalid_argument] on bounds
    that are not strictly increasing or have fewer than one entry, or if
    the name is taken by a different kind. *)

val observe : histogram -> int -> unit

val histogram_count : histogram -> int
(** Total observations (including under/overflow). *)

val histogram_sum : histogram -> int

val histogram_buckets : histogram -> int * int array * int
(** [(underflow, interior_counts, overflow)]; [interior_counts] has
    [Array.length bounds - 1] cells. *)

val histogram_quantile : histogram -> float -> float
(** Estimate the [q]-quantile (0 ≤ q ≤ 1) from the bucket counts: linear
    interpolation within the containing interior bucket; the open-ended
    underflow/overflow tails clamp to the first/last bound. 0 on an empty
    histogram. Raises [Invalid_argument] if [q] is outside [0, 1]. *)

val find_counter : t -> string -> int option
(** Read a counter by name without creating it. *)

val to_json : t -> string
(** Serialize the touched metrics as one JSON object
    [{"counters": {...}, "gauges": {...}, "histograms": {...}}] with keys
    in sorted order (deterministic). Zero counters and unobserved
    histograms are left out; gauges always appear. *)

val pp : Format.formatter -> t -> unit
(** Human-readable listing of the metrics {!to_json} exports, one per
    line, name order. *)

val reset : t -> unit
(** Zero every metric but keep all registrations — used between the two
    runs of a determinism comparison. *)
