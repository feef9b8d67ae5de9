module Uid = Rs_util.Uid
module Aid = Rs_util.Aid
module Gid = Rs_util.Gid
module Heap = Rs_objstore.Heap
module Log = Rs_slog.Stable_log
module Log_dir = Rs_slog.Log_dir
module Fsched = Rs_slog.Force_scheduler
module Metrics = Rs_obs.Metrics
module Trace = Rs_obs.Trace

let m_recovery_entries = Metrics.counter "simple_rs.recovery_entries"

(* A snapshot checkpoint in flight: the first slice walks the heap into
   the spare log, the final slice copies post-marker entries and
   switches. *)
type job = {
  old_log : Log.t;
  new_log : Log.t;
  marker : Log.addr;
  mutable walked : Write_objects.snapshot option;
}

type t = {
  heap : Heap.t;
  dir : Log_dir.t;
  mutable log : Log.t;
  sched : Fsched.t; (* group-commit scheduler covering outcome forces *)
  mutable acc : Uid.Set.t; (* the accessibility set (AS) *)
  pat : unit Aid.Tbl.t; (* prepared actions table *)
  mt : Log.addr Uid.Tbl.t; (* latest mutex data entry, for snapshots *)
  committing_active : Gid.t list Aid.Tbl.t;
  mutable job : job option; (* the checkpoint in progress *)
}

let heap t = t.heap
let log t = t.log
let dir t = t.dir
let scheduler t = t.sched

let create heap dir =
  {
    heap;
    dir;
    log = Log_dir.current dir;
    sched = Fsched.create (Log_dir.current dir);
    (* The stable-variables root is accessible by definition; initializing
       the AS with it subsumes §3.3.3.3 step 2. *)
    acc = Uid.Set.singleton Uid.stable_vars;
    pat = Aid.Tbl.create 8;
    mt = Uid.Tbl.create 16;
    committing_active = Aid.Tbl.create 4;
    job = None;
  }

let append t entry =
  ignore (Log_entry.write t.log entry)

(* A forced outcome entry's durability token rides the group-commit
   scheduler (synchronous unless a batching window is configured). *)
let force_append ?on_durable t entry =
  ignore (Log_entry.write t.log entry);
  Fsched.enqueue t.sched ?on_durable ()

let write_data t aid ~uid ~otype version =
  let a = Log_entry.write_data t.log ~uid:(Some uid) ~otype ~aid:(Some aid) version in
  if otype = Log_entry.Mutex then Uid.Tbl.replace t.mt uid a

let sink_for t aid : Write_objects.sink =
  {
    data = (fun ~uid ~otype version -> write_data t aid ~uid ~otype version);
    base_committed =
      (fun ~uid version -> append t (Log_entry.Base_committed { uid; version; prev = None }));
    prepared_data =
      (fun ~uid ~aid version ->
        append t (Log_entry.Prepared_data { uid; version; aid; prev = None }));
  }

(* Table updates precede the forced append so a synchronous [on_durable]
   callback observes the action's state transition. *)
let prepare ?on_durable t aid mos =
  ignore
    (Write_objects.write_mos ~heap:t.heap
       ~accessible:(fun u -> Uid.Set.mem u t.acc)
       ~add_accessible:(fun u -> t.acc <- Uid.Set.add u t.acc)
       ~prepared:(fun a -> Aid.Tbl.mem t.pat a)
       ~aid ~mos ~sink:(sink_for t aid));
  Aid.Tbl.replace t.pat aid ();
  force_append ?on_durable t (Log_entry.Prepared { aid; pairs = None; prev = None })

let commit ?on_durable t aid =
  Aid.Tbl.remove t.pat aid;
  force_append ?on_durable t (Log_entry.Committed { aid; prev = None })

let abort ?on_durable t aid =
  Aid.Tbl.remove t.pat aid;
  force_append ?on_durable t (Log_entry.Aborted { aid; prev = None })

let committing ?on_durable t aid gids =
  Aid.Tbl.replace t.committing_active aid gids;
  force_append ?on_durable t (Log_entry.Committing { aid; gids; prev = None })

let done_ ?on_durable t aid =
  Aid.Tbl.remove t.committing_active aid;
  force_append ?on_durable t (Log_entry.Done { aid; prev = None })

let prepared_actions t = Aid.Tbl.fold (fun a () acc -> a :: acc) t.pat []
let accessible t u = Uid.Set.mem u t.acc

let trim_accessibility_set t =
  let reachable = Heap.reachable_uids t.heap in
  t.acc <- Uid.Set.inter t.acc (Uid.Set.add Uid.stable_vars reachable)

let recover dir =
  Log_dir.scrub dir;
  let dir = Log_dir.open_ dir in
  let log = Log_dir.current dir in
  let heap = Heap.create () in
  let ctx = Restore.create_ctx heap in
  (match Log.get_top log with
  | None -> ()
  | Some top ->
      Seq.iter
        (fun (addr, raw) ->
          ctx.Restore.processed <- ctx.Restore.processed + 1;
          Restore.replay ctx ~read_data:(Log_entry.read_data log) addr (Log_entry.decode raw))
        (Log.read_backward log top));
  let info = Restore.finish ctx ~uid_gen:(Heap.uid_gen heap) in
  Metrics.incr ~by:info.Tables.Recovery_info.entries_processed m_recovery_entries;
  Trace.emit
    (Trace.Recovery_scan
       { system = "simple"; entries = info.Tables.Recovery_info.entries_processed });
  let acc = Uid.Set.add Uid.stable_vars (Heap.reachable_uids heap) in
  let t = { (create heap dir) with acc } in
  List.iter (fun (uid, a) -> Uid.Tbl.replace t.mt uid a) (Tables.Ot.mutexes ctx.Restore.ot);
  List.iter (fun aid -> Aid.Tbl.replace t.pat aid ()) (Tables.Recovery_info.prepared_actions info);
  List.iter
    (fun (aid, gids) -> Aid.Tbl.replace t.committing_active aid gids)
    (Tables.Recovery_info.committing_actions info);
  (t, info)

(* Snapshot checkpointing: the Ch. 5 stable-state snapshot transplanted to
   the simple log, as the same slice machine as the hybrid log's. Data
   entries written here carry no action id, so plain backward recovery
   ignores them; the committed_ss CSSL is the only path to them — exactly
   the semantics of a checkpoint. *)

let housekeeping_active t = Option.is_some t.job

let hk_start t =
  if housekeeping_active t then invalid_arg "Simple_rs.hk_start: already in progress";
  let marker = Log.end_addr t.log in
  let new_log = Log_dir.begin_new t.dir in
  let job = { old_log = t.log; new_log; marker; walked = None } in
  t.job <- Some job;
  job

(* Stage one: the stable-state walk into the spare log — data entries,
   [committed_ss], and entries for prepared actions and committing
   coordinators. It reads live volatile state, so it is one atomic
   slice. *)
let walk t job =
  let write entry = ignore (Log_entry.write job.new_log entry) in
  let s =
    Write_objects.snapshot ~heap:t.heap ~old_log:job.old_log ~mt:t.mt ~pat:t.pat
      ~committing:t.committing_active ~prepared_pairs:None ~write_data:(fun ~uid ~otype ->
        Log_entry.write_data job.new_log ~uid:(Some uid) ~otype ~aid:None)
  in
  write (Log_entry.Committed_ss { cssl = s.cssl; prev = None });
  List.iter write s.in_doubt;
  job.walked <- Some s

(* Stage two: simple-log entries are self-contained; copy the post-marker
   ones verbatim, tracking mutex data entries for the new MT, then force
   and switch logs atomically. *)
let finalize t job (s : Write_objects.snapshot) =
  (* Settle tokens awaiting a force of the OLD log before the switch
     retires it ([set_log] flushes them against it). Their callbacks may
     write fresh entries; they land on the old log, past the marker, and
     are copied below. *)
  Fsched.set_log t.sched job.new_log;
  Uid.Tbl.reset t.mt;
  List.iter (fun (uid, a) -> Uid.Tbl.replace t.mt uid a) s.new_mt;
  Seq.iter
    (fun (_, raw) ->
      let a = Log.write job.new_log raw in
      match Log_entry.decode raw with
      | Log_entry.Data { uid = Some uid; otype = Log_entry.Mutex; _ } -> Uid.Tbl.replace t.mt uid a
      | _ -> ())
    (Log.read_forward job.old_log job.marker);
  (* Nothing on the hot path reads the new generation's pages back. *)
  Log.force ~write_around:true job.new_log;
  (* The snapshot plus the post-marker copy supersede the old stream:
     the switch releases every old segment. *)
  Log_dir.switch t.dir;
  t.log <- Log_dir.current t.dir;
  t.job <- None;
  t.acc <- Uid.Set.inter t.acc s.new_as;
  (* Settle tokens enqueued by the settle-callbacks above: their entries
     were copied and the new log forced. *)
  Fsched.flush t.sched;
  let entries = Log.entry_count t.log in
  Trace.emit (Trace.Checkpoint { system = "simple"; technique = "snapshot"; entries })

(* Two slices whatever the budget: the walk, then the copy and switch. *)
let hk_step t job ~budget:_ =
  (match t.job with
  | Some j when j == job -> ()
  | Some _ | None -> invalid_arg "Simple_rs.hk_step: stale job");
  (match job.walked with Some s -> finalize t job s | None -> walk t job);
  not (housekeeping_active t)

let housekeep t =
  let job = hk_start t in
  while not (hk_step t job ~budget:max_int) do
    ()
  done
