(** The {e shadowing} organization of stable storage (§1.2.1) — the
    baseline the hybrid log is measured against.

    Object versions are written to a version store without overwriting the
    shadowed (previous) versions; a {e map} from uid to version address is
    rewritten wholesale at every commit and switched in one atomic step.
    Because the data is distributed, a small {e in-flight log} also
    records actions that are between prepare and commit/abort, exactly as
    §1.2.1 requires.

    Each of the three is a {!Rs_slog.Log_dir}. The version store and the
    in-flight log are the current logs of their directories and are never
    switched. Each map is written into a fresh generation of the map
    directory ({!Rs_slog.Log_dir.begin_new}) and made current by
    {!Rs_slog.Log_dir.switch}, whose one root write is the commit point.

    Recovery reads the in-flight log (short) and the map (proportional to
    the stable state), never the version history: fast recovery. Writing
    pays a full map rewrite per commit: slow writing. These are the two
    sides of the §1.2.2 trade-off.

    The version store is never garbage-collected (the thesis gives no
    scheme for it); the in-flight log is truncated
    ({!Rs_slog.Stable_log.retire_below} at its end) whenever no action is
    in flight. *)

type t

val create : Rs_objstore.Heap.t -> unit -> t
val heap : t -> Rs_objstore.Heap.t

val prepare : t -> Rs_util.Aid.t -> Rs_objstore.Value.addr list -> unit
val commit : t -> Rs_util.Aid.t -> unit
val abort : t -> Rs_util.Aid.t -> unit

val map_size : t -> int
(** Entries in the current map (= committed stable objects). *)

val recover : t -> t * Tables.Recovery_info.t
(** Reopen after a crash from the surviving stable stores of [t] (its
    volatile state is ignored, as a crash would destroy it). The three
    directories are opened without {!Rs_slog.Log_dir.scrub}: recovery
    reads the map, the in-flight log and the versions the map names, each
    page mended as it is read, so its page reads too track the state and
    not the version store's history. *)

val log_dirs : t -> Rs_slog.Log_dir.t list
(** The version-store, in-flight and map directories, in that order: the
    whole stable footprint. *)
