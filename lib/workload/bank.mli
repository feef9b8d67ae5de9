(** The banking workload from the thesis's opening motivation: accounts
    spread over guardians, transfers as distributed atomic actions. The
    invariant — total balance is conserved no matter which actions abort
    or which guardians crash — is exactly the consistency the recovery
    system exists to protect. *)

type t

val create :
  ?seed:int ->
  system:Rs_guardian.System.t ->
  accounts_per_guardian:int ->
  initial_balance:int ->
  unit ->
  t
(** Creates and commits the accounts (one setup action per guardian).
    Call {!Rs_guardian.System.quiesce} is not needed: setup is driven to
    completion internally. *)

val system : t -> Rs_guardian.System.t
val n_accounts : t -> int

val run :
  t -> n_transfers:int -> ?crash_every:int -> unit -> unit
(** Submit [n_transfers], quiescing periodically; when [crash_every] is
    given, crash-and-restart a random guardian after every that many
    transfers. *)

val committed : t -> int
val aborted : t -> int

val balances : t -> int list
(** Balances of all accounts, committed state only. *)

val check_conservation : t -> (unit, string) result
(** Total balance must equal accounts × initial. *)
