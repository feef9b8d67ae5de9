(** Primary/backup guardian replication by log shipping, with
    promotion-based failover.

    Every physical force on the primary's stable log ships the covered
    entries — plus the segment alloc/link/retire control state the header
    write committed alongside them — to a warm standby over the simulated
    network. The standby appends the raw entries to {e its own} stable
    log at byte-identical addresses (the replica is a physical prefix of
    the primary's log) and continuously applies them, forward, to warm
    in-memory recovery tables. On primary death a failover driver
    promotes the standby: the warm tables feed the shared {!Core.Restore}
    state machine (no log walk — cost is proportional to the live image,
    not the history), the heir adopts the replica log directory through
    {!Rs_guardian.Guardian.adopt}, takes over the dead primary's network
    address, resolves its orphaned coordinator handles from the warm
    commit table, and {!Rs_dir.Directory.retarget} re-points placement.

    {b Commit point.} The primary forces locally {e before} the observer
    ships, and client acks are sent after the covering force — so every
    externally acknowledged commit has its ship already in the network
    when the primary dies. The failover driver drains in-flight ships,
    then promotes at the standby's applied watermark; a monotonic
    {e replication epoch}, bumped at every promotion, fences the stale
    primary (ships and acks from old epochs are rejected, extending the
    per-guardian incarnation epochs across the pair).

    {b Fault model.} One fault at a time: a standby crash must be
    followed by {!Pair.restart_standby} (which reopens the replica log
    and resyncs the missed tail) before the next primary crash; two
    overlapping faults can lose the unshipped window, as in any
    primary/backup scheme. Crash replicated guardians through
    {!Pair.crash} so the replication network's up/down state tracks the
    simulated node failure. *)

type addr = Rs_slog.Stable_log.addr

(** The warm standby image: a replica stable log plus forward-maintained
    recovery tables ({e last-wins}, the inversion of recovery's backward
    first-wins walk). Exposed for unit tests; {!Pair} drives it over the
    network. *)
module Replica : sig
  type t

  val create : page_size:int -> segment_pages:int -> unit -> t
  (** Fresh, empty replica whose log restarts addresses at 0 — seeded by
      a [reset] ship of the primary's full live prefix. *)

  val dir : t -> Rs_slog.Log_dir.t
  val log : t -> Rs_slog.Stable_log.t

  val watermark : t -> addr
  (** Bytes applied = the replica log's end address; byte-identical to
      the shipped prefix of the primary's stream. *)

  val applied_entries : t -> int
  val diverged : t -> string option
  (** Evidence that the replica stopped being a physical prefix of the
      primary's log (address mismatch, segment-table skew); [None] on a
      healthy pair. Sticky until a reset re-seeds the replica. *)

  type apply_result =
    | Applied  (** batch appended (or already present) and applied *)
    | Gap of addr  (** batch starts beyond the watermark; resync needed *)

  val apply :
    t ->
    base:addr ->
    entries:(addr * string) list ->
    table:(int * int) list ->
    low_water:addr ->
    apply_result
  (** Append one shipped force batch. Idempotent by log address:
      entries below the watermark are skipped, so duplicate or partially
      overlapping redelivery is harmless; a batch starting past the end
      returns [Gap] and must be retried after the hole is filled. The
      segment table (compared by index) and low-water mark are checked
      against the locally replayed placement; skew marks the replica
      {!diverged}. *)

  val invalidate : t -> unit
  (** The hosting standby crashed: the warm tables died with it. The
      replica log (stable) survives; {!reopen} before applying again. *)

  val reopen : t -> unit
  (** Crash recovery for the standby: reopen the replica log directory
      and rebuild the warm tables by one forward scan of the live log —
      then resync the tail missed while down. *)

  val build_recovery :
    t -> Core.Hybrid_rs.t * Core.Tables.Recovery_info.t
  (** Promotion: feed the warm tables to {!Core.Restore} (prepared
      actions and their pair lists first, then the commit table, then
      one checkpoint-style pass over the committed state) and wrap the
      restored heap with {!Core.Hybrid_rs.adopt}. No log walk. *)
end

(** The replication protocol messages, on their own network over the
    system's simulator. *)
type msg =
  | Ship of {
      epoch : int;
      base : addr;
      entries : (addr * string) list;
      table : (int * int) list;
      low_water : addr;
      reset : bool;  (** replica must restart from a fresh, empty log *)
      page_size : int;
      segment_pages : int;
    }
  | Ship_ack of { epoch : int; watermark : addr; applied : int }
  | Resync of { epoch : int; from_ : addr }

(** One primary/standby pair over a {!Rs_guardian.System}. *)
module Pair : sig
  type t

  val create :
    ?directory:Rs_dir.Directory.t ->
    system:Rs_guardian.System.t ->
    primary:Rs_util.Gid.t ->
    standby:Rs_util.Gid.t ->
    unit ->
    t
  (** Attach a warm standby to [primary]: install the force observer and
      log-switch hook on the primary's log, and seed the replica with the
      primary's full live prefix (housekeeping first when retirement has
      made the prefix non-contiguous). [directory] is re-targeted at
      promotion. The primary must be up. *)

  val primary : t -> Rs_util.Gid.t
  val standby : t -> Rs_util.Gid.t
  val epoch : t -> int
  (** The replication epoch: 1 at attach, bumped at every promotion. *)

  val shipped : t -> addr
  val acked : t -> addr
  val applied : t -> addr
  val lag_entries : t -> int
  (** Entries shipped but not yet acked — the failover exposure window. *)

  val failovers : t -> int
  val attached : t -> bool
  val diverged : t -> string option

  val replica : t -> Replica.t option
  (** The standby's warm image, when one is attached — for prefix-equality
      oracles (tests, explorer); [None] between {!promote} and the reset
      ship that {!rejoin} triggers. *)

  val crash : t -> Rs_util.Gid.t -> unit
  (** {!Rs_guardian.System.crash} plus replication bookkeeping: the
      node's replication endpoint goes down with it, and a crashed
      standby's warm image is invalidated. *)

  val restart_primary : t -> Core.Tables.Recovery_report.t
  (** Cold-restart the (current, crashed) primary in place — no failover:
      recover from its own log, re-install the ship hooks on the
      reopened log, and re-ship the tail past the acked watermark (the
      standby skips what it already applied). *)

  val restart_standby : t -> unit
  (** Restart a crashed standby: reopen + rebuild the replica warm image
      and request the tail missed while down ([Resync]). An original
      system guardian is also restarted as a guardian; a rejoined old
      primary stays off the 2PC network (its address belongs to the
      heir). *)

  val promotable : t -> bool
  (** Whether the replica is current enough to promote without losing
      acked commits: it exists, has never diverged, and its watermark
      covers every byte the primary shipped. False in the double-fault
      window — standby down (in-flight ships dropped) and the primary
      dead before the resync caught up — where the lost tail exists only
      in the dead primary's own log, so a failover driver must fall back
      to {!restart_primary}. A caught-up replica whose standby merely
      crashed (cold tables, complete log) is still promotable: {!promote}
      reopens it. *)

  val promote : t -> Core.Tables.Recovery_info.t
  (** Failover: promote the standby at its applied watermark. Bumps the
      epoch (fencing stale ships and acks), builds the warm recovery
      system, adopts it into the standby guardian, takes over the dead
      primary's address, resolves its orphaned handles from the warm
      commit table, and re-targets the placement directory. The pair
      swaps roles with the old primary {e detached} until {!rejoin}.
      Raises [Invalid_argument] if the primary is still up or no replica
      is attached. *)

  val rejoin : t -> unit
  (** Bring the dead old primary back as the new standby: its stale
      guardian stays off the 2PC network, and a housekeeping pass on the
      new primary restarts log addresses so a [reset] ship can seed the
      fresh replica from zero. Raises [Invalid_argument] if a standby is
      already attached. *)

  val status : t -> string
  (** One-line status: epoch, roles, ship/ack/apply watermarks, lag. *)
end
