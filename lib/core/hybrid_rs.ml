module Uid = Rs_util.Uid
module Aid = Rs_util.Aid
module Gid = Rs_util.Gid
module Vec = Rs_util.Vec
module Heap = Rs_objstore.Heap
module Flatten = Rs_objstore.Flatten
module Log = Rs_slog.Stable_log
module Log_dir = Rs_slog.Log_dir
module Fsched = Rs_slog.Force_scheduler
module Metrics = Rs_obs.Metrics
module Trace = Rs_obs.Trace

let m_entries_written = Metrics.counter "hybrid_rs.entries_written"
let m_recovery_entries = Metrics.counter "hybrid_rs.recovery_entries"

type addr = Log_entry.addr

type t = {
  heap : Heap.t;
  mutable dir : Log_dir.t;
  mutable log : Log.t;
  sched : Fsched.t; (* group-commit scheduler covering outcome forces *)
  mutable acc : Uid.Set.t; (* accessibility set (AS) *)
  pat : unit Aid.Tbl.t; (* prepared actions table *)
  pending : addr Uid.Tbl.t Aid.Tbl.t; (* per unprepared action: uid -> data-entry addr *)
  mt : addr Uid.Tbl.t; (* mutex table: uid -> latest data-entry addr (§5.2) *)
  committing_active : Gid.t list Aid.Tbl.t; (* coordinator actions in phase two *)
  mutable last_outcome : addr option; (* head of the backward outcome chain *)
  mutable oel : addr Vec.t option; (* outcome entries list while housekeeping *)
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
    acc = Uid.Set.singleton Uid.stable_vars;
    pat = Aid.Tbl.create 8;
    pending = Aid.Tbl.create 8;
    mt = Uid.Tbl.create 16;
    committing_active = Aid.Tbl.create 4;
    last_outcome = None;
    oel = None;
  }

(* Outcome entries are chained through [prev] and, during housekeeping,
   recorded in the OEL (§5.1.1). A forced append enqueues a durability
   token with the group-commit scheduler instead of forcing inline: with
   no batching window the token forces (and [on_durable] runs) before this
   returns; with a window the entry rides the next covering force. *)
let append_outcome ?(force = false) ?on_durable t entry =
  Metrics.incr m_entries_written;
  let entry = Log_entry.with_prev entry t.last_outcome in
  let raw = Log_entry.encode entry in
  let a = Log.write t.log raw in
  t.last_outcome <- Some a;
  (match t.oel with Some v -> Vec.push v a | None -> ());
  if force then Fsched.enqueue t.sched ?on_durable ()
  else Option.iter (fun k -> k ()) on_durable;
  a

let pending_tbl t aid =
  match Aid.Tbl.find_opt t.pending aid with
  | Some tbl -> tbl
  | None ->
      let tbl = Uid.Tbl.create 8 in
      Aid.Tbl.replace t.pending aid tbl;
      tbl

let write_data t aid ~uid ~otype version =
  Metrics.incr m_entries_written;
  let a =
    Log.write t.log (Log_entry.encode (Log_entry.Data { uid = None; otype; aid = None; version }))
  in
  Uid.Tbl.replace (pending_tbl t aid) uid a;
  if otype = Log_entry.Mutex then Uid.Tbl.replace t.mt uid a;
  a

let sink_for t aid : Write_objects.sink =
  {
    data = (fun ~uid ~otype version -> ignore (write_data t aid ~uid ~otype version));
    base_committed =
      (fun ~uid version ->
        ignore (append_outcome t (Log_entry.Base_committed { uid; version; prev = None })));
    prepared_data =
      (fun ~uid ~aid version ->
        ignore (append_outcome t (Log_entry.Prepared_data { uid; version; aid; prev = None })));
  }

let write_mos t aid mos =
  Write_objects.write_mos ~heap:t.heap
    ~accessible:(fun u -> Uid.Set.mem u t.acc)
    ~add_accessible:(fun u -> t.acc <- Uid.Set.add u t.acc)
    ~prepared:(fun a -> Aid.Tbl.mem t.pat a)
    ~aid ~mos ~sink:(sink_for t aid)

(* Early prepare exploits free time in the guardian (§4.4): besides
   writing the entries, push them to the device now so the eventual
   prepare only forces its own outcome entry. *)
let write_entry t aid mos =
  let leftovers = write_mos t aid mos in
  (* Under a batching window the data entries ride the next covering
     force; pushing them eagerly would defeat the batching. *)
  if not (Fsched.batched t.sched) then Log.force t.log;
  leftovers

let pairs_of t aid =
  match Aid.Tbl.find_opt t.pending aid with
  | None -> []
  | Some tbl ->
      Uid.Tbl.fold (fun u a acc -> (u, a) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> Uid.compare a b)

let pending_pairs = pairs_of

(* Table updates happen before the forced append: with a zero window the
   durability callback runs inside [append_outcome], and it must observe
   this action's state transition (e.g. a commit issued from a prepare's
   [on_durable]). *)
let prepare ?on_durable t aid mos =
  ignore (write_mos t aid mos);
  let pairs = pairs_of t aid in
  Aid.Tbl.remove t.pending aid;
  Aid.Tbl.replace t.pat aid ();
  ignore
    (append_outcome ~force:true ?on_durable t
       (Log_entry.Prepared { aid; pairs = Some pairs; prev = None }))

let commit ?on_durable t aid =
  Aid.Tbl.remove t.pat aid;
  ignore (append_outcome ~force:true ?on_durable t (Log_entry.Committed { aid; prev = None }))

let abort ?on_durable t aid =
  Aid.Tbl.remove t.pat aid;
  Aid.Tbl.remove t.pending aid;
  ignore (append_outcome ~force:true ?on_durable t (Log_entry.Aborted { aid; prev = None }))

let committing ?on_durable t aid gids =
  Aid.Tbl.replace t.committing_active aid gids;
  ignore
    (append_outcome ~force:true ?on_durable t (Log_entry.Committing { aid; gids; prev = None }))

let done_ ?on_durable t aid =
  Aid.Tbl.remove t.committing_active aid;
  ignore (append_outcome ~force:true ?on_durable t (Log_entry.Done { aid; prev = None }))

let prepared_actions t = Aid.Tbl.fold (fun a () acc -> a :: acc) t.pat []
let accessible t u = Uid.Set.mem u t.acc

let trim_accessibility_set t =
  let reachable = Heap.reachable_uids t.heap in
  t.acc <- Uid.Set.inter t.acc (Uid.Set.add Uid.stable_vars reachable)

let mutex_table t =
  Uid.Tbl.fold (fun u a acc -> (u, a) :: acc) t.mt []
  |> List.sort (fun (a, _) (b, _) -> Uid.compare a b)

let last_outcome_addr t = t.last_outcome

(* Reading data entries referenced by pairs. *)
let fetch_data log a =
  match Log_entry.decode (Log.read log a) with
  | Log_entry.Data { otype; version; _ } -> (otype, version)
  | Log_entry.Prepared _ | Log_entry.Committed _ | Log_entry.Aborted _
  | Log_entry.Committing _ | Log_entry.Done _ | Log_entry.Base_committed _
  | Log_entry.Prepared_data _ | Log_entry.Committed_ss _ ->
      failwith "Hybrid_rs: pair points at a non-data entry"

(* Recovery (§4.3.3): walk the backward chain of outcome entries. *)

(* Feed one outcome entry to the restore tables. Both recovery paths —
   the serial chain walk and the segment-parallel scan — dispatch through
   here, in newest-first order, so first-wins semantics are identical. *)
let replay_outcome ctx log entry =
  match entry with
  | Log_entry.Prepared { aid; pairs; _ } ->
      Restore.on_prepared ctx aid;
      Option.iter
        (List.iter (fun (uid, daddr) ->
             Restore.on_data ctx ~uid ~aid:(Some aid) ~src:daddr ~fetch:(fun () ->
                 ctx.Restore.processed <- ctx.Restore.processed + 1;
                 fetch_data log daddr)))
        pairs
  | Log_entry.Committed { aid; _ } -> Restore.on_committed ctx aid
  | Log_entry.Aborted { aid; _ } -> Restore.on_aborted ctx aid
  | Log_entry.Committing { aid; gids; _ } -> Restore.on_committing ctx aid gids
  | Log_entry.Done { aid; _ } -> Restore.on_done ctx aid
  | Log_entry.Base_committed { uid; version; _ } -> Restore.on_base_committed ctx ~uid version
  | Log_entry.Prepared_data { uid; version; aid; _ } ->
      Restore.on_prepared_data ctx ~uid ~aid version
  | Log_entry.Committed_ss { cssl; _ } ->
      Restore.on_committed_ss ctx ~pairs:cssl ~fetch:(fun daddr ->
          ctx.Restore.processed <- ctx.Restore.processed + 1;
          fetch_data log daddr)
  | Log_entry.Data _ -> failwith "Hybrid_rs.recover: data entry on the outcome chain"

(* Common recovery epilogue: finish the restore tables, rebuild the MT
   (§5.2) and duty tables, and wrap it all in a fresh recovery system. *)
let assemble ~heap ~dir ~log ~ctx ~head =
  let ot_entries = Tables.Ot.to_list ctx.Restore.ot in
  let info = Restore.finish ctx ~uid_gen:(Heap.uid_gen heap) ~aid_gen:None in
  Metrics.incr ~by:info.Tables.Recovery_info.entries_processed m_recovery_entries;
  Trace.emit
    (Trace.Recovery_scan
       { system = "hybrid"; entries = info.Tables.Recovery_info.entries_processed });
  let t =
    {
      heap;
      dir;
      log;
      sched = Fsched.create log;
      acc = Uid.Set.add Uid.stable_vars (Heap.reachable_uids heap);
      pat = Aid.Tbl.create 8;
      pending = Aid.Tbl.create 8;
      mt = Uid.Tbl.create 16;
      committing_active = Aid.Tbl.create 4;
      last_outcome = head;
      oel = None;
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

let recover source_dir =
  let dir = Log_dir.open_ source_dir in
  let log = Log_dir.current dir in
  let heap = Heap.create () in
  let ctx = Restore.create_ctx heap in
  (* Locate the chain head: the last outcome entry in the forced log
     (early-prepared data entries may trail it). *)
  let head = ref None in
  (match Log.get_top log with
  | None -> ()
  | Some top ->
      let exception Found of Log_entry.addr in
      try
        Seq.iter
          (fun (a, raw) ->
            ctx.Restore.processed <- ctx.Restore.processed + 1;
            if Log_entry.is_outcome (Log_entry.decode raw) then raise (Found a))
          (Log.read_backward log top)
      with Found a -> head := Some a);
  let rec walk = function
    | None -> ()
    | Some a ->
        let entry = Log_entry.decode (Log.read log a) in
        if a <> Option.get !head then ctx.Restore.processed <- ctx.Restore.processed + 1;
        replay_outcome ctx log entry;
        walk (Log_entry.prev entry)
  in
  walk !head;
  assemble ~heap ~dir ~log ~ctx ~head:!head

(* Segment-parallel recovery: instead of random-access chain chasing,
   partitioned readers bulk-scan the live segments forward (every page
   fetched once), keeping just the outcome entries — data entries are
   skipped on their tag byte without decoding the payload. Because every
   outcome entry in the live log is on the backward chain and the chain
   runs in address order, replaying the collected outcomes newest-first
   is exactly the serial chain walk — the readers never need to stitch
   [prev] pointers across partitions. Cost is one sequential pass over
   live bytes plus the fetched data entries, so restart time is bounded
   by live data, not history. *)
let recover_parallel ?stats source_dir =
  let dir = Log_dir.open_ source_dir in
  let log = Log_dir.current dir in
  let heap = Heap.create () in
  let ctx = Restore.create_ctx heap in
  let outcomes = ref [] in
  let head = ref None in
  (* delivered ascending; consed, so the list ends up newest-first and the
     last outcome address seen is the chain head *)
  let scans =
    Log.scan_segments log (fun a buf ~off ~len ->
        ctx.Restore.processed <- ctx.Restore.processed + 1;
        if Log_entry.is_outcome_at buf ~off ~len then begin
          outcomes := Log_entry.decode_at buf ~off ~len :: !outcomes;
          head := Some a
        end)
  in
  Option.iter (fun r -> r := scans) stats;
  List.iter (fun entry -> replay_outcome ctx log entry) !outcomes;
  assemble ~heap ~dir ~log ~ctx ~head:!head

(* Promotion (warm failover): build a recovery system around a heap that a
   standby restored from its continuously applied warm image, skipping the
   backward log walk entirely — the caller already fed [Restore] and holds
   the finished [info]. [dir] is the standby's replica directory, whose
   current log is byte-identical to the shipped prefix of the dead
   primary's; appends chain onto [last_outcome] exactly as they would have
   on the primary. *)
let adopt ~heap ~dir ~last_outcome ~info ~mutexes =
  let log = Log_dir.current dir in
  let t =
    {
      heap;
      dir;
      log;
      sched = Fsched.create log;
      acc = Uid.Set.add Uid.stable_vars (Heap.reachable_uids heap);
      pat = Aid.Tbl.create 8;
      pending = Aid.Tbl.create 8;
      mt = Uid.Tbl.create 16;
      committing_active = Aid.Tbl.create 4;
      last_outcome;
      oel = None;
    }
  in
  List.iter (fun (uid, src) -> Uid.Tbl.replace t.mt uid src) mutexes;
  List.iter (fun aid -> Aid.Tbl.replace t.pat aid ()) (Tables.Recovery_info.prepared_actions info);
  List.iter
    (fun (aid, gids) -> Aid.Tbl.replace t.committing_active aid gids)
    (Tables.Recovery_info.committing_actions info);
  t

(* Housekeeping (Chapter 5). *)

type technique = Compaction | Snapshot

(* Stage-one object table: tracks which objects already reached the new
   log, and — for mutex objects — the OLD-log address of the version
   copied, for the latest-version comparisons of §5.1.1/§5.2. *)
type hk_ot_entry = { mutable hstate : [ `Prepared | `Restored ]; mutable old_src : addr }

(* Checkpoints run as a resumable slice machine so a background fiber can
   interleave them with live commits: [Walk] consumes the old outcome
   chain (stage one), [Carry] rewrites the OEL onto the new log (stage
   two), and the final slice performs the force-and-switch atomically. *)
type stage = Walk | Carry | Finished

type job = {
  technique : technique;
  old_log : Log.t;
  new_log : Log.t;
  oel : addr Vec.t;
  hk_ot : hk_ot_entry Uid.Tbl.t;
  new_mt : addr Uid.Tbl.t;
  pt : Tables.Pt.t; (* compaction walk state, persists across slices *)
  ct : Tables.Ct.t;
  mutable cssl : (Uid.t * addr) list; (* reversed accumulation *)
  mutable chained : Log_entry.t list; (* discovery order: newest first; prev filled later *)
  mutable new_head : addr option;
  mutable new_as : Uid.Set.t option; (* snapshot only *)
  mutable cursor : addr option; (* next old-chain entry the walk will visit *)
  mutable stage : stage;
  mutable carried : int; (* OEL entries already carried to the new log *)
  mutable carry_head : addr option; (* prev-chain head threaded through stage two *)
}

let wdata job ~otype version =
  Log.write job.new_log
    (Log_entry.encode (Log_entry.Data { uid = None; otype; aid = None; version }))

(* Copy a committed version to the new log and record it in the CSSL. *)
let copy_committed job ~uid ~otype version =
  let a = wdata job ~otype version in
  job.cssl <- (uid, a) :: job.cssl;
  a

(* Mutex latest-version rule against OLD-log addresses; returns true and
   updates the trackers when [oaddr] wins. *)
let mutex_is_latest job ~uid ~oaddr =
  match Uid.Tbl.find_opt job.hk_ot uid with
  | Some e when oaddr <= e.old_src -> false
  | Some e ->
      e.old_src <- oaddr;
      true
  | None ->
      Uid.Tbl.replace job.hk_ot uid { hstate = `Restored; old_src = oaddr };
      true

let copy_mutex_if_latest job ~uid ~oaddr version =
  if mutex_is_latest job ~uid ~oaddr then begin
    let a = copy_committed job ~uid ~otype:Log_entry.Mutex version in
    Uid.Tbl.replace job.new_mt uid a
  end

(* Atomic-object dedup for committed versions: the first (newest) version
   seen wins; a pending `Prepared state means only the base is still owed. *)
let atomic_committed job ~uid version =
  match Uid.Tbl.find_opt job.hk_ot uid with
  | Some { hstate = `Restored; _ } -> ()
  | Some ({ hstate = `Prepared; _ } as e) ->
      e.hstate <- `Restored;
      ignore (copy_committed job ~uid ~otype:Log_entry.Atomic version)
  | None ->
      Uid.Tbl.replace job.hk_ot uid { hstate = `Restored; old_src = -1 };
      ignore (copy_committed job ~uid ~otype:Log_entry.Atomic version)

let atomic_mark_prepared job ~uid =
  if not (Uid.Tbl.mem job.hk_ot uid) then
    Uid.Tbl.replace job.hk_ot uid { hstate = `Prepared; old_src = -1 }

(* One step of log compaction's stage one (§5.1.1): rebuild the stable
   state by reading the old chain, as recovery would, but writing entries
   to the new log instead of objects to volatile memory. Processes the
   entry at [a] and returns the next (older) chain address. The chain
   below the starting head is immutable, and the walk reads no volatile
   tables, so slicing it against live commits is safe: concurrent
   appends land above the head and reach the new log via the OEL. *)
let compaction_entry job a =
  let pt = job.pt and ct = job.ct in
  let entry = Log_entry.decode (Log.read job.old_log a) in
  (match entry with
  | Log_entry.Committed { aid; _ } -> Tables.Pt.add_if_absent pt aid Tables.Pt.Committed
  | Log_entry.Aborted { aid; _ } -> Tables.Pt.add_if_absent pt aid Tables.Pt.Aborted
  | Log_entry.Done { aid; _ } -> Tables.Ct.add_if_absent ct aid Tables.Ct.Done
  | Log_entry.Committing { aid; gids; _ } ->
      if Tables.Ct.find ct aid = None then begin
        Tables.Ct.add_if_absent ct aid (Tables.Ct.Committing gids);
        job.chained <-
          Log_entry.Committing { aid; gids; prev = None } :: job.chained
      end
  | Log_entry.Base_committed { uid; version; _ } -> atomic_committed job ~uid version
  | Log_entry.Prepared_data { uid; version; aid; _ } -> (
      match Tables.Pt.find pt aid with
      | Some Tables.Pt.Aborted -> ()
      | Some Tables.Pt.Committed -> atomic_committed job ~uid version
      | Some Tables.Pt.Prepared | None ->
          Tables.Pt.add_if_absent pt aid Tables.Pt.Prepared;
          if not (Uid.Tbl.mem job.hk_ot uid) then begin
            atomic_mark_prepared job ~uid;
            job.chained <-
              Log_entry.Prepared_data { uid; version; aid; prev = None } :: job.chained
          end)
  | Log_entry.Prepared { aid; pairs; _ } -> (
      let pairs = Option.value pairs ~default:[] in
      match
        match Tables.Pt.find pt aid with
        | Some s -> s
        | None ->
            Tables.Pt.add_if_absent pt aid Tables.Pt.Prepared;
            Tables.Pt.Prepared
      with
      | Tables.Pt.Committed ->
          List.iter
            (fun (uid, oaddr) ->
              match fetch_data job.old_log oaddr with
              | Log_entry.Atomic, version -> atomic_committed job ~uid version
              | Log_entry.Mutex, version -> copy_mutex_if_latest job ~uid ~oaddr version)
            pairs
      | Tables.Pt.Aborted ->
          List.iter
            (fun (uid, oaddr) ->
              match fetch_data job.old_log oaddr with
              | Log_entry.Atomic, _ -> ()
              | Log_entry.Mutex, version -> copy_mutex_if_latest job ~uid ~oaddr version)
            pairs
      | Tables.Pt.Prepared ->
          (* Outcome unknown: rebuild the prepared entry with pairs
             pointing into the new log. *)
          let newlist =
            List.filter_map
              (fun (uid, oaddr) ->
                match fetch_data job.old_log oaddr with
                | Log_entry.Atomic, version ->
                    (match Uid.Tbl.find_opt job.hk_ot uid with
                    | Some _ -> None (* a later entry for this action's object won *)
                    | None ->
                        atomic_mark_prepared job ~uid;
                        Some (uid, wdata job ~otype:Log_entry.Atomic version))
                | Log_entry.Mutex, version ->
                    copy_mutex_if_latest job ~uid ~oaddr version;
                    None)
              pairs
          in
          (* Unlike §5.1.1 we keep even an empty prepared entry, so a
             mutex-only prepared action keeps its PT status after a
             crash. *)
          job.chained <- Log_entry.Prepared { aid; pairs = Some newlist; prev = None } :: job.chained)
  | Log_entry.Committed_ss { cssl; _ } ->
      List.iter
        (fun (uid, oaddr) ->
          match fetch_data job.old_log oaddr with
          | Log_entry.Atomic, version -> atomic_committed job ~uid version
          | Log_entry.Mutex, version -> copy_mutex_if_latest job ~uid ~oaddr version)
        cssl
  | Log_entry.Data _ -> failwith "Hybrid_rs.compaction: data entry on the outcome chain");
  Log_entry.prev entry

(* Stage one of the stable-state snapshot (§5.2): traverse the stable
   state in volatile memory. *)
let snapshot_stage1 t job new_as =
  let seen = Hashtbl.create 64 in
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
      | Heap.Regular ->
          go_value (Heap.regular_value t.heap a)
      | Heap.Placeholder -> ()
      | Heap.Atomic -> (
          let uid = Option.get (Heap.uid_of t.heap a) in
          new_as := Uid.Set.add uid !new_as;
          let view = Heap.atomic_view t.heap a in
          ignore (copy_committed job ~uid ~otype:Log_entry.Atomic (flatten view.base));
          Uid.Tbl.replace job.hk_ot uid { hstate = `Restored; old_src = -1 };
          (match (view.lock, view.cur) with
          | Heap.Write w, Some cur when Aid.Tbl.mem t.pat w ->
              job.chained <-
                Log_entry.Prepared_data { uid; version = flatten cur; aid = w; prev = None }
                :: job.chained
          | (Heap.Write _ | Heap.Read _ | Heap.Free), _ -> ());
          go_value view.base;
          Option.iter go_value view.cur)
      | Heap.Mutex -> (
          let uid = Option.get (Heap.uid_of t.heap a) in
          new_as := Uid.Set.add uid !new_as;
          (match Uid.Tbl.find_opt t.mt uid with
          | Some oaddr ->
              let otype, version = fetch_data job.old_log oaddr in
              (match otype with
              | Log_entry.Mutex -> copy_mutex_if_latest job ~uid ~oaddr version
              | Log_entry.Atomic -> failwith "Hybrid_rs.snapshot: MT points at an atomic entry")
          | None ->
              (* Newly accessible, still being prepared: its state reaches
                 the new log via stage two (§5.2). *)
              ());
          go_value (Heap.mutex_value t.heap a))
    end
  in
  go_addr (Heap.root_addr t.heap);
  (* PT status of prepared actions and CT status of committing
     coordinators is invisible to the heap traversal; emit it explicitly
     (an oversight in §5.2 that compaction does not share). *)
  Aid.Tbl.iter
    (fun aid () -> job.chained <- Log_entry.Prepared { aid; pairs = Some []; prev = None } :: job.chained)
    t.pat;
  Aid.Tbl.iter
    (fun aid gids -> job.chained <- Log_entry.Committing { aid; gids; prev = None } :: job.chained)
    t.committing_active

(* Close stage one: the committed_ss goes at the TAIL of the chain (so
   recovery processes it last) and the collected outcome entries are
   written oldest-first on top of it, preserving backward (newest-first)
   recovery order. *)
let close_stage1 job =
  let css = Log_entry.Committed_ss { cssl = List.rev job.cssl; prev = None } in
  let head = ref (Log.write job.new_log (Log_entry.encode css)) in
  List.iter
    (fun entry ->
      let entry = Log_entry.with_prev entry (Some !head) in
      head := Log.write job.new_log (Log_entry.encode entry))
    (List.rev job.chained);
  job.new_head <- Some !head;
  job.carry_head <- Some !head

(* Stage two (§5.1.1, shared by both techniques): carry one post-marker
   outcome entry over to the new log, rewriting prepared-entry pairs. *)
let carry_one (job : job) oaddr =
  let emit entry =
    let entry = Log_entry.with_prev entry job.carry_head in
    job.carry_head <- Some (Log.write job.new_log (Log_entry.encode entry))
  in
  match Log_entry.decode (Log.read job.old_log oaddr) with
  | Log_entry.Prepared { aid; pairs; _ } ->
      let pairs = Option.value pairs ~default:[] in
      let newlist =
        List.filter_map
          (fun (uid, oa) ->
            match fetch_data job.old_log oa with
            | Log_entry.Atomic, version ->
                Some (uid, wdata job ~otype:Log_entry.Atomic version)
            | Log_entry.Mutex, version ->
                if
                  match Uid.Tbl.find_opt job.hk_ot uid with
                  | Some e when oa < e.old_src -> false
                  | Some e ->
                      e.old_src <- oa;
                      true
                  | None ->
                      Uid.Tbl.replace job.hk_ot uid { hstate = `Restored; old_src = oa };
                      true
                then begin
                  let a = wdata job ~otype:Log_entry.Mutex version in
                  Uid.Tbl.replace job.new_mt uid a;
                  Some (uid, a)
                end
                else None)
          pairs
      in
      emit (Log_entry.Prepared { aid; pairs = Some newlist; prev = None })
  | Log_entry.Committed { aid; _ } -> emit (Log_entry.Committed { aid; prev = None })
  | Log_entry.Aborted { aid; _ } -> emit (Log_entry.Aborted { aid; prev = None })
  | Log_entry.Committing { aid; gids; _ } ->
      emit (Log_entry.Committing { aid; gids; prev = None })
  | Log_entry.Done { aid; _ } -> emit (Log_entry.Done { aid; prev = None })
  | Log_entry.Base_committed { uid; version; _ } ->
      emit (Log_entry.Base_committed { uid; version; prev = None })
  | Log_entry.Prepared_data { uid; version; aid; _ } ->
      emit (Log_entry.Prepared_data { uid; version; aid; prev = None })
  | Log_entry.Committed_ss _ -> failwith "Hybrid_rs: committed_ss in the OEL"
  | Log_entry.Data _ -> failwith "Hybrid_rs: data entry in the OEL"

let technique_name = function Compaction -> "compaction" | Snapshot -> "snapshot"

let housekeeping_active (t : t) = t.oel <> None

let hk_start (t : t) technique =
  if t.oel <> None then invalid_arg "Hybrid_rs.hk_start: already in progress";
  let oel = Vec.create () in
  let job =
    {
      technique;
      old_log = t.log;
      new_log = Log_dir.begin_new t.dir;
      oel;
      hk_ot = Uid.Tbl.create 64;
      new_mt = Uid.Tbl.create 16;
      pt = Tables.Pt.create ();
      ct = Tables.Ct.create ();
      cssl = [];
      chained = [];
      new_head = None;
      new_as = None;
      cursor = t.last_outcome;
      stage = Walk;
      carried = 0;
      carry_head = None;
    }
  in
  t.oel <- Some oel;
  job

let check_current fn (t : t) (job : job) =
  match t.oel with
  | Some v when v == job.oel -> ()
  | Some _ | None -> invalid_arg ("Hybrid_rs." ^ fn ^ ": stale job")

(* Close out the checkpoint: settle the force scheduler against the old
   log, drain the OEL tail, rewrite in-flight data entries, then force
   and switch. Runs within one slice, atomically with respect to live
   commits (the guardian is single-threaded and cooperative). *)
let hk_finalize (t : t) (job : job) =
  (* Settle tokens that were awaiting a force of the OLD log before the
     scheduler is retargeted ([set_log] flushes them against it). Their
     durability callbacks may start fresh work; it still lands on the old
     log — t.log is untouched until the switch — and is drained below. *)
  Fsched.set_log t.sched job.new_log;
  while job.carried < Vec.length job.oel do
    carry_one job (Vec.get job.oel job.carried);
    job.carried <- job.carried + 1
  done;
  (* Data entries of in-flight, still-unprepared actions are not lost:
     rewrite them to the new log (§5.1.1, last paragraph). *)
  Aid.Tbl.iter
    (fun _aid tbl ->
      let rewrites =
        Uid.Tbl.fold (fun uid oa acc -> (uid, oa) :: acc) tbl []
        |> List.sort (fun (_, a) (_, b) -> compare a b)
      in
      List.iter
        (fun (uid, oa) ->
          let otype, version = fetch_data job.old_log oa in
          let a = wdata job ~otype version in
          Uid.Tbl.replace tbl uid a;
          if otype = Log_entry.Mutex then Uid.Tbl.replace job.new_mt uid a)
        rewrites)
    t.pending;
  Log.force job.new_log;
  (* The checkpoint supersedes the whole old stream: everything below its
     end is dead to recovery, so the switch can retire every old segment. *)
  Log_dir.switch ~low_water:(Log.end_addr job.old_log) t.dir;
  t.log <- Log_dir.current t.dir;
  t.last_outcome <- job.carry_head;
  t.oel <- None;
  Uid.Tbl.reset t.mt;
  Uid.Tbl.iter (fun u a -> Uid.Tbl.replace t.mt u a) job.new_mt;
  (match job.new_as with
  | Some new_as -> t.acc <- Uid.Set.inter t.acc new_as
  | None -> ());
  job.stage <- Finished;
  let entries = Log.entry_count t.log in
  Trace.emit
    (Trace.Checkpoint { system = "hybrid"; technique = technique_name job.technique; entries });
  (* Settle tokens enqueued during the settle-callbacks above: their
     entries were carried and the new log forced. Runs last — a callback
     may start fresh work against the switched log. *)
  Fsched.flush t.sched

(* One bounded slice of checkpoint work: up to [budget] chain entries
   walked or OEL entries carried. Returns [true] once the checkpoint has
   completed (the log switch happened inside the final slice). *)
let hk_step (t : t) (job : job) ~budget =
  check_current "hk_step" t job;
  let budget = max 1 budget in
  (match job.stage with
  | Walk -> (
      match job.technique with
      | Snapshot ->
          (* The heap traversal reads live volatile state, so it cannot
             be sliced against concurrent mutation: one atomic step. *)
          let new_as = ref (Uid.Set.singleton Uid.stable_vars) in
          snapshot_stage1 t job new_as;
          job.new_as <- Some !new_as;
          close_stage1 job;
          job.stage <- Carry
      | Compaction ->
          let n = ref 0 in
          while !n < budget && job.cursor <> None do
            job.cursor <- compaction_entry job (Option.get job.cursor);
            incr n
          done;
          if job.cursor = None then begin
            close_stage1 job;
            job.stage <- Carry
          end)
  | Carry ->
      let n = ref 0 in
      while !n < budget && job.carried < Vec.length job.oel do
        carry_one job (Vec.get job.oel job.carried);
        job.carried <- job.carried + 1;
        incr n
      done;
      if job.carried >= Vec.length job.oel then hk_finalize t job
  | Finished -> ());
  job.stage = Finished

let housekeep t technique =
  let job = hk_start t technique in
  while not (hk_step t job ~budget:max_int) do
    ()
  done
