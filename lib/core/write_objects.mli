(** The writing algorithm of §3.3.3.3, shared by the simple and hybrid
    recovery systems (they differ only in entry formats, injected through
    {!type-sink}).

    Given a preparing (or early-preparing, §4.4) action's MOS, emits:
    - a data entry for each {e accessible} modified object (current
      version for atomic, the single version for mutex);
    - for each {e newly accessible} object discovered while flattening:
      mutex → a data entry; atomic → a [base_committed] entry for the base
      version, plus — when the preparing action itself holds the write
      lock — a data entry for its current version, or — when another
      {e prepared} action holds it — a [prepared_data] entry (§3.3.3.2).

    [base_committed] is always emitted before the same object's
    data/[prepared_data] entry so that backward recovery sees the current
    version first (OT state [Prepared]) and the base second.

    Newly accessible uids are added to the accessibility set via
    [add_accessible]; inaccessible MOS members are returned so early
    prepare can retry them later (the MOS′ of §4.4). *)

type sink = {
  data :
    uid:Rs_util.Uid.t -> otype:Log_entry.otype -> Rs_objstore.Fvalue.t -> unit;
  base_committed : uid:Rs_util.Uid.t -> Rs_objstore.Fvalue.t -> unit;
  prepared_data :
    uid:Rs_util.Uid.t -> aid:Rs_util.Aid.t -> Rs_objstore.Fvalue.t -> unit;
}

val write_mos :
  heap:Rs_objstore.Heap.t ->
  accessible:(Rs_util.Uid.t -> bool) ->
  add_accessible:(Rs_util.Uid.t -> unit) ->
  prepared:(Rs_util.Aid.t -> bool) ->
  aid:Rs_util.Aid.t ->
  mos:Rs_objstore.Value.addr list ->
  sink:sink ->
  Rs_objstore.Value.addr list
(** Returns the MOS members that were inaccessible and therefore not
    written (empty when called at prepare time on a consistent state). *)

(** {1 The stable-state snapshot walk (§5.2)} *)

type snapshot = {
  cssl : Log_entry.pairs;  (** every copied version, in write order *)
  in_doubt : Log_entry.t list;
      (** [Prepared_data], [Prepared] and [Committing] entries to write
          after the [committed_ss], in order *)
  new_as : Rs_util.Uid.Set.t;
  new_mt : Log_entry.pairs;  (** each copied mutex's new data entry *)
}

val snapshot :
  heap:Rs_objstore.Heap.t ->
  old_log:Rs_slog.Stable_log.t ->
  mt:Log_entry.addr Rs_util.Uid.Tbl.t ->
  pat:unit Rs_util.Aid.Tbl.t ->
  committing:Rs_util.Gid.t list Rs_util.Aid.Tbl.t ->
  prepared_pairs:Log_entry.pairs option ->
  write_data:(uid:Rs_util.Uid.t -> otype:Log_entry.otype -> Rs_objstore.Fvalue.t -> Log_entry.addr) ->
  snapshot
(** The one walk both logs snapshot with: each reachable atomic object's
    base, and each reachable mutex's version at its [mt] address in
    [old_log], written through the log's own [write_data]. [pat] and
    [committing] are the prepared actions and committing coordinators;
    [prepared_pairs] fills the log's [Prepared] entries. *)
