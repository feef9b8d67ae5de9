(** The {e shadowing} organization of stable storage (§1.2.1) — the
    baseline the hybrid log is measured against.

    Object versions are written to a version store without overwriting the
    shadowed (previous) versions; a {e map} from uid to version address is
    rewritten wholesale at every commit and switched in one atomic step
    (two map areas + a one-page stable root). Because the data is
    distributed, a small {e in-flight log} also records actions that are
    between prepare and commit/abort, exactly as §1.2.1 requires.

    Recovery reads the in-flight log (short) and the map (proportional to
    the stable state), never the version history: fast recovery. Writing
    pays a full map rewrite per commit: slow writing. These are the two
    sides of the §1.2.2 trade-off.

    The version store is never garbage-collected (the thesis gives no
    scheme for it); the in-flight log is truncated whenever no action is
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
    volatile state is ignored, as a crash would destroy it). *)

val stable_stores : t -> Rs_storage.Stable_store.t list
(** All five stable stores — for fault injection in tests. *)

val physical_writes : t -> int
