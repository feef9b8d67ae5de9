module Uid = Rs_util.Uid
module Aid = Rs_util.Aid
module Gid = Rs_util.Gid
module Heap = Rs_objstore.Heap
module Flatten = Rs_objstore.Flatten
module Log = Rs_slog.Stable_log
module Log_dir = Rs_slog.Log_dir
module Fsched = Rs_slog.Force_scheduler
module Metrics = Rs_obs.Metrics
module Trace = Rs_obs.Trace

let m_recovery_entries = Metrics.counter "simple_rs.recovery_entries"

type t = {
  heap : Heap.t;
  dir : Log_dir.t;
  mutable log : Log.t;
  sched : Fsched.t; (* group-commit scheduler covering outcome forces *)
  mutable acc : Uid.Set.t; (* the accessibility set (AS) *)
  pat : unit Aid.Tbl.t; (* prepared actions table *)
  mt : Log.addr Uid.Tbl.t; (* latest mutex data entry, for snapshots *)
  committing_active : Gid.t list Aid.Tbl.t;
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
  }

let append t entry =
  ignore (Log.write t.log (Log_entry.encode entry))

(* A forced outcome entry's durability token rides the group-commit
   scheduler (synchronous unless a batching window is configured). *)
let force_append ?on_durable t entry =
  ignore (Log.write t.log (Log_entry.encode entry));
  Fsched.enqueue t.sched ?on_durable ()

let write_data t aid ~uid ~otype version =
  let a =
    Log.write t.log
      (Log_entry.encode (Log_entry.Data { uid = Some uid; otype; aid = Some aid; version }))
  in
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
  let leftovers =
    Write_objects.write_mos ~heap:t.heap
      ~accessible:(fun u -> Uid.Set.mem u t.acc)
      ~add_accessible:(fun u -> t.acc <- Uid.Set.add u t.acc)
      ~prepared:(fun a -> Aid.Tbl.mem t.pat a)
      ~aid ~mos ~sink:(sink_for t aid)
  in
  ignore leftovers;
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

let fetch_data log a =
  match Log_entry.decode (Log.read log a) with
  | Log_entry.Data { otype; version; _ } -> (otype, version)
  | Log_entry.Prepared _ | Log_entry.Committed _ | Log_entry.Aborted _
  | Log_entry.Committing _ | Log_entry.Done _ | Log_entry.Base_committed _
  | Log_entry.Prepared_data _ | Log_entry.Committed_ss _ ->
      failwith "Simple_rs: CSSL points at a non-data entry"

let recover dir =
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
          match Log_entry.decode raw with
          | Log_entry.Prepared { aid; _ } -> Restore.on_prepared ctx aid
          | Log_entry.Committed { aid; _ } -> Restore.on_committed ctx aid
          | Log_entry.Aborted { aid; _ } -> Restore.on_aborted ctx aid
          | Log_entry.Committing { aid; gids; _ } -> Restore.on_committing ctx aid gids
          | Log_entry.Done { aid; _ } -> Restore.on_done ctx aid
          | Log_entry.Base_committed { uid; version; _ } ->
              Restore.on_base_committed ctx ~uid version
          | Log_entry.Prepared_data { uid; version; aid; _ } ->
              Restore.on_prepared_data ctx ~uid ~aid version
          | Log_entry.Data { uid; otype; aid; version } -> (
              match uid with
              | None -> () (* snapshot data entry: reachable through the CSSL *)
              | Some uid ->
                  Restore.on_data ctx ~uid ~aid ~src:addr ~fetch:(fun () -> (otype, version)))
          | Log_entry.Committed_ss { cssl; _ } ->
              Restore.on_committed_ss ctx ~pairs:cssl ~fetch:(fun a ->
                  ctx.Restore.processed <- ctx.Restore.processed + 1;
                  fetch_data log a))
        (Log.read_backward log top));
  let ot_entries = Tables.Ot.to_list ctx.Restore.ot in
  let info = Restore.finish ctx ~uid_gen:(Heap.uid_gen heap) ~aid_gen:None in
  Metrics.incr ~by:info.Tables.Recovery_info.entries_processed m_recovery_entries;
  Trace.emit
    (Trace.Recovery_scan
       { system = "simple"; entries = info.Tables.Recovery_info.entries_processed });
  let t =
    {
      heap;
      dir;
      log;
      sched = Fsched.create log;
      acc = Uid.Set.add Uid.stable_vars (Heap.reachable_uids heap);
      pat = Aid.Tbl.create 8;
      mt = Uid.Tbl.create 16;
      committing_active = Aid.Tbl.create 4;
    }
  in
  List.iter
    (fun (uid, (e : Tables.Ot.entry)) ->
      if e.src >= 0 && Heap.kind_of heap e.vm = Heap.Mutex then Uid.Tbl.replace t.mt uid e.src)
    ot_entries;
  List.iter (fun aid -> Aid.Tbl.replace t.pat aid ()) (Tables.Recovery_info.prepared_actions info);
  List.iter
    (fun (aid, gids) -> Aid.Tbl.replace t.committing_active aid gids)
    (Tables.Recovery_info.committing_actions info);
  (t, info)

(* Snapshot checkpointing: the Ch. 5 stable-state snapshot transplanted to
   the simple log. Data entries written here carry no action id, so plain
   backward recovery ignores them; the committed_ss CSSL is the only path
   to them — exactly the semantics of a checkpoint. *)

type job = {
  old_log : Log.t;
  new_log : Log.t;
  marker : Log.addr;
  new_mt : Log.addr Uid.Tbl.t;
  new_as : Uid.Set.t;
}

let begin_snapshot t =
  let old_log = t.log in
  let marker = Log.end_addr old_log in
  let new_log = Log_dir.begin_new t.dir in
  let new_mt = Uid.Tbl.create 16 in
  let cssl = ref [] in
  let pds = ref [] in
  let new_as = ref (Uid.Set.singleton Uid.stable_vars) in
  let seen = Hashtbl.create 64 in
  let wdata ~uid ~otype version =
    Log.write new_log
      (Log_entry.encode (Log_entry.Data { uid = Some uid; otype; aid = None; version }))
  in
  let flatten v = Flatten.flatten t.heap v in
  let rec go_value v =
    match v with
    | Rs_objstore.Value.Unit | Rs_objstore.Value.Bool _ | Rs_objstore.Value.Int _
    | Rs_objstore.Value.Str _ ->
        ()
    | Rs_objstore.Value.Tup vs -> Array.iter go_value vs
    | Rs_objstore.Value.Ref a -> go_addr a
  and go_addr a =
    if not (Hashtbl.mem seen a) then begin
      Hashtbl.add seen a ();
      match Heap.kind_of t.heap a with
      | Heap.Regular -> go_value (Heap.regular_value t.heap a)
      | Heap.Placeholder -> ()
      | Heap.Atomic -> (
          let uid = Option.get (Heap.uid_of t.heap a) in
          new_as := Uid.Set.add uid !new_as;
          let view = Heap.atomic_view t.heap a in
          cssl := (uid, wdata ~uid ~otype:Log_entry.Atomic (flatten view.base)) :: !cssl;
          (match (view.lock, view.cur) with
          | Heap.Write w, Some cur when Aid.Tbl.mem t.pat w ->
              pds :=
                Log_entry.Prepared_data { uid; version = flatten cur; aid = w; prev = None }
                :: !pds
          | (Heap.Write _ | Heap.Read _ | Heap.Free), _ -> ());
          go_value view.base;
          Option.iter go_value view.cur)
      | Heap.Mutex -> (
          let uid = Option.get (Heap.uid_of t.heap a) in
          new_as := Uid.Set.add uid !new_as;
          (match Uid.Tbl.find_opt t.mt uid with
          | Some oaddr -> (
              match fetch_data old_log oaddr with
              | Log_entry.Mutex, version ->
                  let na = wdata ~uid ~otype:Log_entry.Mutex version in
                  cssl := (uid, na) :: !cssl;
                  Uid.Tbl.replace new_mt uid na
              | Log_entry.Atomic, _ -> failwith "Simple_rs.snapshot: MT points at atomic entry")
          | None ->
              (* Newly accessible, still being prepared: its state reaches
                 the new log via stage two. *)
              ());
          go_value (Heap.mutex_value t.heap a))
    end
  in
  go_addr (Heap.root_addr t.heap);
  ignore (Log.write new_log (Log_entry.encode (Log_entry.Committed_ss { cssl = List.rev !cssl; prev = None })));
  List.iter (fun pd -> ignore (Log.write new_log (Log_entry.encode pd))) (List.rev !pds);
  Aid.Tbl.iter
    (fun aid () ->
      ignore (Log.write new_log (Log_entry.encode (Log_entry.Prepared { aid; pairs = None; prev = None }))))
    t.pat;
  Aid.Tbl.iter
    (fun aid gids ->
      ignore (Log.write new_log (Log_entry.encode (Log_entry.Committing { aid; gids; prev = None }))))
    t.committing_active;
  { old_log; new_log; marker; new_mt; new_as = !new_as }

let finish_snapshot t job =
  if t.log != job.old_log then invalid_arg "Simple_rs.finish_snapshot: stale job";
  (* Stage two: simple-log entries are self-contained; copy them
     verbatim, tracking mutex data entries for the new MT. *)
  Seq.iter
    (fun (_, raw) ->
      let a = Log.write job.new_log raw in
      match Log_entry.decode raw with
      | Log_entry.Data { uid = Some uid; otype = Log_entry.Mutex; _ } ->
          Uid.Tbl.replace job.new_mt uid a
      | Log_entry.Data _ | Log_entry.Prepared _ | Log_entry.Committed _
      | Log_entry.Aborted _ | Log_entry.Committing _ | Log_entry.Done _
      | Log_entry.Base_committed _ | Log_entry.Prepared_data _ | Log_entry.Committed_ss _ ->
          ())
    (Log.read_forward job.old_log job.marker);
  Log.force job.new_log;
  (* The snapshot plus the post-marker copy supersede the old stream:
     the switch retires every old segment below its end. *)
  Log_dir.switch ~low_water:(Log.end_addr job.old_log) t.dir;
  t.log <- Log_dir.current t.dir;
  Fsched.set_log t.sched t.log;
  Uid.Tbl.reset t.mt;
  Uid.Tbl.iter (fun u a -> Uid.Tbl.replace t.mt u a) job.new_mt;
  t.acc <- Uid.Set.inter t.acc job.new_as;
  (* Tokens awaiting a force were carried by the snapshot (their effects
     are in the heap traversal or the post-marker copy) and the new log
     was just forced: settle them now. *)
  Fsched.flush t.sched

let housekeep t =
  let job = begin_snapshot t in
  finish_snapshot t job;
  let entries = Log.entry_count t.log in
  Trace.emit (Trace.Checkpoint { system = "simple"; technique = "snapshot"; entries })
