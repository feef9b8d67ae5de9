(** The airline-reservation workload from the thesis's introduction: a
    flight inventory guardian plus booking offices. A booking atomically
    decrements the seat count (aborting deliberately when sold out) and
    appends the passenger to the manifest; a mutex statistics counter per
    flight counts every prepared attempt — even those that later abort
    (§2.4.2 made observable).

    Invariant: [seats_left + |manifest| = capacity] and [seats_left >= 0]
    for every flight, under crashes of any guardian. *)

type t

val create :
  ?seed:int ->
  system:Rs_guardian.System.t ->
  inventory:Rs_util.Gid.t ->
  offices:Rs_util.Gid.t list ->
  n_flights:int ->
  capacity:int ->
  unit ->
  t
(** Commits the flight inventory at [inventory]. [offices] submit the
    bookings (they coordinate; the inventory participates). *)

val run : t -> n_bookings:int -> ?crash_every:int -> unit -> unit
(** Submit bookings, periodically crash-and-restart the inventory
    guardian when [crash_every] is given, and drain the protocol. *)

val committed : t -> int
val aborted : t -> int

type flight_state = { seats_left : int; manifest : string list; attempts : int }

val flight_states : t -> flight_state list
val check_invariant : t -> (unit, string) result
