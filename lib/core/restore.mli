(** The one replay machine: every log reader feeds it entries (or
    ⟨uid, log-address⟩ pairs) and it applies the general recovery
    algorithm of §3.4.4 against the OT/PT/CT tables, with the
    early-prepare mutex rule of §4.4 (latest data-entry address wins).
    Recovery of every log and [Repl]'s promotion restore into a heap; log
    compaction (§5.1.1) is recovery into the new log: its stage one feeds
    the old chain to a context whose {!output} writes data entries. *)

(** Where restored versions go. Each installing function returns the
    handle recorded as the object's [vm]: a heap address for the heap
    output of {!create_ctx}, a new-log address for compaction's. *)
type output = {
  committed : uid:Rs_util.Uid.t -> Log_entry.otype -> Rs_objstore.Fvalue.t -> int;
      (** an atomic base or mutex value not yet in place (a mutex again when
          a greater log address supersedes it) *)
  owed_base : uid:Rs_util.Uid.t -> vm:int -> Rs_objstore.Fvalue.t -> unit;
      (** the base owed by an atomic object whose current version is at [vm] *)
  current : uid:Rs_util.Uid.t -> aid:Rs_util.Aid.t -> Rs_objstore.Fvalue.t -> int;
      (** a still-prepared action's version, named by its prepared entry *)
  prepared_data : uid:Rs_util.Uid.t -> aid:Rs_util.Aid.t -> Rs_objstore.Fvalue.t -> int;
      (** the same, carried by a [Prepared_data] entry *)
  settle : unit -> unit;  (** after the last entry: the heap patches placeholders *)
}

type ctx = {
  out : output;
  ot : Tables.Ot.t;
  pt : Tables.Pt.t;
  ct : Tables.Ct.t;
  mutable processed : int;  (** entries examined *)
}

val create : output -> ctx

val create_ctx : Rs_objstore.Heap.t -> ctx
(** A context restoring into [heap]: recovery's and promotion's. *)

val replay :
  ctx ->
  read_data:(Log_entry.addr -> Log_entry.otype * Rs_objstore.Fvalue.t) ->
  Log_entry.addr ->
  Log_entry.t ->
  unit
(** Process the entry read at the given address, whatever its kind.
    Pairs and CSSLs are fetched lazily through [read_data], each fetch
    counting one processed entry (the caller counts the entries it reads).
    A data entry without a uid (hybrid format) is ignored: it is reached
    only through a pair or a CSSL. *)

(** {1 Single steps} What {!replay} does per entry kind, for promotion
    (which holds tables, not entries) and unit tests. *)

val on_prepared : ctx -> Rs_util.Aid.t -> unit
val on_committed : ctx -> Rs_util.Aid.t -> unit
val on_aborted : ctx -> Rs_util.Aid.t -> unit
val on_committing : ctx -> Rs_util.Aid.t -> Rs_util.Gid.t list -> unit
val on_done : ctx -> Rs_util.Aid.t -> unit

val on_base_committed : ctx -> uid:Rs_util.Uid.t -> Rs_objstore.Fvalue.t -> unit
val on_prepared_data :
  ctx -> uid:Rs_util.Uid.t -> aid:Rs_util.Aid.t -> Rs_objstore.Fvalue.t -> unit

val on_data :
  ctx ->
  uid:Rs_util.Uid.t ->
  aid:Rs_util.Aid.t option ->
  src:Log_entry.addr ->
  fetch:(unit -> Log_entry.otype * Rs_objstore.Fvalue.t) ->
  unit
(** Process one data entry (simple log) or one prepared-entry pair (hybrid
    log). [fetch] reads and decodes the version lazily — the hybrid
    algorithm's saving is precisely the fetches this module skips. [aid] is
    the writing action ([None] ⇒ the action never reached an outcome entry:
    the entry is ignored, §2.2.3). [src] is the data entry's log address,
    used for the mutex latest-version rule. *)

val on_committed_ss :
  ctx ->
  pairs:Log_entry.pairs ->
  fetch:(Log_entry.addr -> Log_entry.otype * Rs_objstore.Fvalue.t) ->
  unit
(** Process a checkpoint entry: "a commit and prepare of an anonymous
    action" (§5.1.2) over the whole CSSL. *)

val finish : ctx -> uid_gen:Rs_util.Uid.Gen.t -> Tables.Recovery_info.t
(** The final pass (§3.4.3/§3.4.4 steps 3–5): settle the output (patch
    uid placeholders), reset the stable counter past the largest restored
    uid, and package the tables. The Argus system resets its own action
    counter from the returned PT and CT. *)
