(** Structured, deterministic event tracing.

    Every event is stamped with a sequence number and the current
    {e virtual} time. The clock is injected (the guardian system installs
    [Sim.now]); wall-clock time is never consulted, so two runs of the
    same seeded scenario produce byte-identical traces — the "tracking in
    order to recover" discipline: recovery cost claims are argued from the
    trace of what recovery actually touched.

    {!emit} feeds each event, with its sequence number, to the spec
    monitors ({!Monitor} subscribes at start-up), which fold it into
    state bounded by live things. Records are kept only on request: a
    bounded ring, opt-in through {!set_capacity}, buffers the newest
    events for {!events} and {!to_string}. Setting the [RS_TRACE]
    environment variable echoes every event to stderr as it is emitted.

    Events no monitor reads (page I/O, 2PC messages, routing, uid
    minting, segment churn) are built at their call sites only while
    {!recording} holds; otherwise the site calls {!skip}, which advances
    the sequence counter all the same. {!total} and every [seq] are
    therefore the same with the ring on or off. *)

type lock_kind = Read | Write

type event =
  | Page_read of { page : int; ok : bool }  (** physical disk read *)
  | Page_write of { page : int }  (** physical disk write *)
  | Torn_write of { page : int }  (** a crash interrupted this write *)
  | Page_decay of { page : int }
  | Store_repair of { page : int }  (** stable-store recovery fixed a pair *)
  | Log_write of { log : string; addr : int; bytes : int }
      (** entry buffered in the log; [log] is the owning log's label *)
  | Log_force of { log : string; entries : int; stream_bytes : int }
      (** pending entries pushed to stable storage; [log] is the owning
          log's label ("G0", "G1:standby", …; "" if unlabeled) *)
  | Log_switch of { log : string }
      (** the stream behind label [log] legitimately restarted or changed
          owner (a fresh pending log, a housekeeping switch, a relabel) —
          the monotonicity monitor's forgiveness point *)
  | Segment_alloc of { id : int; index : int }
      (** a segmented log grew by one careful-replicated segment store *)
  | Segment_retire of { id : int }
      (** a dead segment's pages were returned to the directory pool *)
  | Repl_ship of { src : string; dst : string; epoch : int; base : int; entries : int; bytes : int }
      (** a primary shipped one forced batch to its standby *)
  | Repl_apply of { gid : string; epoch : int; watermark : int; entries : int }
      (** a standby appended + warm-applied a shipped batch; [watermark] is
          its applied (durable) prefix after the batch *)
  | Repl_promote of { heir : string; for_ : string; epoch : int; watermark : int }
      (** failover: [heir] took over [for_]'s duties at the applied
          watermark, under the freshly bumped epoch *)
  | Twopc_send of { src : string; dst : string; msg : string }
  | Twopc_recv of { src : string; dst : string; msg : string }
  | Lock_acquire of { heap : string; aid : string; addr : int; kind : lock_kind }
      (** a lock grant — direct or served from the queue. [heap] is the
          owning guardian's label ("" for bare heaps, which the lock
          monitor skips). Allocation grants the creator's read lock
          through here too; recovery's silent re-grants do not. *)
  | Lock_release of { heap : string; aid : string; addr : int }
      (** the holder released at action completion (commit or abort) *)
  | Lock_conflict of { aid : string; holder : string; addr : int }
  | Lock_wait of { heap : string; aid : string; holder : string; addr : int; write : bool }
      (** the requester joined the object's FIFO wait queue behind [holder];
          [write] covers upgrades (which queue at the front) and mutex
          possession *)
  | Lock_timeout of { heap : string; aid : string; addr : int }
      (** the wait timed out (presumed deadlock); the action aborts *)
  | Lock_cancel of { heap : string; aid : string; addr : int }
      (** the waiter left the queue without a grant (timeout or crash
          cleanup) — emitted before successors are served *)
  | Heap_label of { heap : string }
      (** a heap took the label [heap]: a fresh heap (new guardian, crash
          replacement, recovery image) whose commit stamps restart at 0.
          The lock and snapshot monitors forget the label's history. *)
  | Snap_open of { heap : string; stamp : int }
      (** an MVCC snapshot opened at the heap's current commit stamp *)
  | Snap_close of { heap : string; stamp : int }
      (** the snapshot released; history only it observed is pruned *)
  | Snap_read of { heap : string; addr : int; stamp : int; vstamp : int }
      (** a lock-free snapshot read at snapshot stamp [stamp] returned the
          version installed at [vstamp] — the snapshot-legality monitor
          checks [vstamp] is the newest install at or before [stamp] *)
  | Version_install of { heap : string; aid : string; addr : int; stamp : int }
      (** a committing action installed a new base version under [stamp]
          (one stamp per committing action across all its writes) *)
  | Handle_submit of { gid : string; aid : string }
      (** [System.submit] created a handle (admission checks already
          passed); [gid] is the coordinator *)
  | Handle_resolve of { gid : string; aid : string; committed : bool }
      (** the handle resolved — the single point every submitted action
          funnels through, including presumed-abort orphan resolution *)
  | Action_shed of { gid : string; in_flight : int }
      (** admission control refused a submission: guardian at capacity *)
  | Uid_mint of { source : string; uid : int }
      (** a heap minted a fresh uid through its source ("local" = the
          guardian's own stable counter, "pool:G<i>" = a directory range) *)
  | Uid_reserve of { gid : string; lo : int; count : int }
      (** the master allocator committed a uid batch [lo, lo+count) to shard
          [gid] *)
  | Dir_route of { coordinator : string; shards : int; cross : bool }
      (** the placement directory routed an action: how many distinct shards
          its steps span, and whether it crossed shards *)
  | Action_prepare of { gid : string; aid : string; refused : bool }
  | Action_commit of { gid : string; aid : string }
  | Action_abort of { gid : string; aid : string }
  | Recovery_scan of { system : string; entries : int }
      (** one recovery pass: which recovery system, log entries visited *)
  | Checkpoint of { system : string; technique : string; entries : int }
  | Crash of { gid : string }
  | Restart of { gid : string; prepared : int; committing : int }
  | Explore_schedule of { id : int; points : int }
      (** one crash schedule about to run under the explorer *)
  | Explore_violation of { oracle : string; schedule : string }
      (** an oracle failed after recovery from this schedule *)
  | Explore_shrunk of { points : int; schedule : string }
      (** minimal counterexample after shrinking *)
  | Nemesis of { kind : string; target : string }
      (** a nemesis fault-schedule event fired ("decay", "partition",
          "heal", "crash", "restart", "promote", …) against [target] *)
  | Note of string

type record = { seq : int; time : float; event : event }

val set_clock : (unit -> float) -> unit
(** Install the virtual clock used to stamp events (e.g.
    [fun () -> Sim.now sim]). *)

val clear_clock : unit -> unit
(** Revert to the default clock, which always reads 0. *)

val now : unit -> float
(** Current virtual time as the trace sees it. *)

val set_capacity : int -> unit
(** Keep a ring of the newest [n] events ([n > 0]), or none ([n = 0],
    the default). Drops all buffered events. *)

val capacity : unit -> int
(** The ring's size; 0 when none is kept. *)

val set_enabled : bool -> unit
(** Master switch; emission (monitors included) is a no-op when disabled
    (default enabled). *)

val enabled : unit -> bool
(** Guard for call sites whose event {e construction} is itself costly
    (string formatting on hot paths). *)

val recording : unit -> bool
(** Enabled, and a ring or the echo is on: someone other than the
    monitors will read the next event. Call sites of unmonitored events
    build them only then, and otherwise call {!skip}. *)

val skip : unit -> unit
(** Count an event without building it: advances the sequence counter
    exactly as {!emit} would (nothing when disabled). *)

val subscribe : on_event:(int -> event -> unit) -> on_clear:(unit -> unit) -> unit
(** Install the one subscriber: [on_event seq ev] runs on every emitted
    event, [on_clear] on every {!clear}. {!Monitor} installs itself. *)

val emit : event -> unit

val events : unit -> record list
(** Buffered events, oldest first (at most capacity; earlier events are
    overwritten once the ring wraps).
    @raise Invalid_argument when no ring is kept. *)

val total : unit -> int
(** Events emitted or skipped since the last {!clear}. *)

val clear : unit -> unit
(** Empty the ring, reset the sequence counter and the subscriber's
    state — run before each determinism comparison and each judged run. *)

val to_string : unit -> string
(** The whole buffered trace, one record per line. Deterministic for
    deterministic runs.
    @raise Invalid_argument when no ring is kept. *)
