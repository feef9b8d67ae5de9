(** The placement directory: batched uid allocation and cross-shard
    routing over a {!Rs_guardian.System}.

    One guardian (the {e master}) owns a single recoverable object — the
    uid watermark — bound to the stable variable ["uid.hwm"]. Reserving a
    batch of uids for a shard is an ordinary top-level action against the
    master: read the watermark, advance it by the batch size, commit
    through 2PC. Only a {e committed} reservation adds the range
    [\[lo, lo+batch)] to the shard's volatile pool, from which the shard's
    heap mints uids with no further coordination (the envoy
    [object_reserve_oid] scheme). The watermark is recoverable and
    monotone, so:

    - an {e aborted} reservation moves nothing and is retried;
    - a crash between commit and use {e leaks} at most the unused part of
      the pool (bounded by the outstanding batches, normally one) — leaked
      ranges are simply never handed out again;
    - no uid is ever minted by two shards (checked at every pool mint and
      by {!verify_unique_uids} over durable state).

    Routing: steps name objects by {e key}; {!submit} resolves each key to
    its owning shard through the {!Placement} and runs the action over the
    existing 2PC, with the coordinator defaulting to the first step's
    shard. Uids below {!base} are outside the directory's jurisdiction
    (per-guardian bootstrap objects, e.g. the stable-variables root). *)

module System := Rs_guardian.System

type t

exception Out_of_uids of { gid : Rs_util.Gid.t }
(** A pool mint found the shard's pool empty. {!create_object} and
    {!create_object_async} reserve before submitting, so this escapes only
    when callers mint directly from an unprovisioned pool. *)

val create : ?batch:int -> system:System.t -> placement:Placement.t -> unit -> t
(** Bootstrap the watermark object on the master — the placement's first
    shard — (an awaited action) and install a pool-backed uid source on
    every shard's heap. [batch] (default 64) uids per reservation. Every
    pool mint fails fast if two shards ever mint the same uid. *)

val system : t -> System.t
val placement : t -> Placement.t
val master : t -> Rs_util.Gid.t
val batch : t -> int
val base : t -> int
(** The first directory-managed uid (1024): every guardian's local
    bootstrap uids stay below it. *)

(** {1 Allocation} *)

val pool_remaining : t -> Rs_util.Gid.t -> int
val watermark : t -> int
(** The committed watermark read from the master's heap (base version). *)

val reserved_ranges : t -> (int * int * Rs_util.Gid.t) list
(** Committed reservations as [(lo, hi, owner)], oldest first; disjoint
    and strictly increasing by construction. *)

val leaked : t -> int
(** Uids dropped from pools by shard crashes (never reused). *)

val locate_uid : t -> Rs_util.Uid.t -> Rs_util.Gid.t option
(** The shard whose reserved range contains the uid — the OID to
    storage-server lookup. [None] for uids below [base] or in no
    committed range. *)

(** {1 Routing} *)

val locate : t -> string -> Rs_util.Gid.t
(** Owning shard for a key: pure placement, then any failover redirect
    ({!retarget}). *)

val resolve : t -> Rs_util.Gid.t -> Rs_util.Gid.t
(** Follow failover redirects from a placement shard to the guardian
    currently serving it (identity when no failover happened). *)

val submit :
  ?mode:System.mode ->
  ?coordinator:Rs_util.Gid.t ->
  t ->
  steps:(string * System.work) list ->
  Rs_guardian.Action.handle
(** Route each step's key to its shard and submit over 2PC (or, with
    [~mode:Read_only], as a lock-free snapshot action). The coordinator
    defaults to the first step's shard ([?coordinator] overrides — it
    need not be a participant). For a result callback, register
    {!Rs_guardian.Action.on_resolve} on the returned handle. Exception
    and outcome surface: see {!System.submit}. *)

val create_object : ?retries:int -> t -> key:string -> init:Rs_objstore.Value.t -> Rs_util.Uid.t
(** Synchronously create an atomic object bound to stable variable [key]
    on its owning shard, reserving pool capacity first; awaits the commit
    and returns the minted uid. Retries conflict aborts. *)

val create_object_async :
  ?on_done:(Rs_util.Uid.t -> unit) -> t -> key:string -> init:Rs_objstore.Value.t -> unit
(** Callback-style {!create_object} for event-driven drivers (the shards
    explorer): never steps the simulator itself; retries aborts, shed and
    down shards in virtual time. *)

val snapshot_read : t -> string -> Rs_objstore.Value.t option
(** Committed value of the object bound to [key], read through a true
    MVCC snapshot on its owning shard (one read-only action: the binding
    and the value come from a single consistent committed cut, with zero
    lock acquisition). [None] if unbound. Raises {!System.Guardian_down}
    if the owning shard is down. *)

(** {1 Crashes} *)

val crash : t -> Rs_util.Gid.t -> unit
(** {!System.crash} plus directory bookkeeping: the shard's volatile pool
    is dropped (counted in {!leaked}). *)

val restart : t -> Rs_util.Gid.t -> Core.Tables.Recovery_report.t
(** {!System.restart} plus reinstalling the pool-backed uid source on the
    recovered heap (recovery rebuilt it with a plain local source). *)

val retarget : t -> from_:Rs_util.Gid.t -> to_:Rs_util.Gid.t -> unit
(** Failover re-pointing: keys (and redirects) placed on [from_] now
    resolve to [to_]. The dead shard's unused uid pool is dropped
    (counted in {!leaked}) and the heir gets a pool-backed uid source
    under its own gid; if [from_] was the master, [to_] becomes the
    master — its adopted heap carries the replicated watermark. Called by
    the replication failover driver after promoting [to_].
    [retarget ~from_:g ~to_:g] clears [g]'s redirect. *)

(** {1 Oracles} *)

val verify_unique_uids : t -> (unit, string) result
(** Walk every guardian's durable heap and check that no directory-region
    uid (>= [base]) is bound on two different guardians, and that every
    committed range is disjoint and below the watermark. *)
