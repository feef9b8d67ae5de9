module Uid = Rs_util.Uid
module Aid = Rs_util.Aid
module Gid = Rs_util.Gid
module Vec = Rs_util.Vec
module Heap = Rs_objstore.Heap
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
  pending : (addr * Log_entry.otype) Uid.Tbl.t Aid.Tbl.t; (* per unprepared action: uid -> data entry *)
  mt : addr Uid.Tbl.t; (* mutex table: uid -> latest prepared data-entry addr (§5.2) *)
  committing_active : Gid.t list Aid.Tbl.t; (* coordinator actions in phase two *)
  mutable last_outcome : addr option; (* head of the backward outcome chain *)
  mutable oel : addr Vec.t option; (* outcome entries list while housekeeping *)
  mutable base_bytes : int; (* stream bytes [log] held when it became current *)
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
    base_bytes = 0;
  }

(* Outcome entries are chained through [prev] and, during housekeeping,
   recorded in the OEL (§5.1.1). A forced append enqueues a durability
   token with the group-commit scheduler instead of forcing inline: with
   no batching window the token forces (and [on_durable] runs) before this
   returns; with a window the entry rides the next covering force. *)
let append_outcome ?(force = false) ?on_durable t entry =
  Metrics.incr m_entries_written;
  let entry = Log_entry.with_prev entry t.last_outcome in
  let a = Log_entry.write t.log entry in
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
  let a = Log_entry.write_data t.log ~uid:None ~otype ~aid:None version in
  Uid.Tbl.replace (pending_tbl t aid) uid (a, otype);
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

let pending_pairs t aid =
  match Aid.Tbl.find_opt t.pending aid with
  | None -> []
  | Some tbl ->
      Uid.Tbl.fold (fun u (a, _) acc -> (u, a) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> Uid.compare a b)

(* Table updates happen before the forced append: with a zero window the
   durability callback runs inside [append_outcome], and it must observe
   this action's state transition (e.g. a commit issued from a prepare's
   [on_durable]). *)
let prepare ?(force = true) ?on_durable t aid mos =
  ignore (write_mos t aid mos);
  let pairs = pending_pairs t aid in
  (* The MT names only versions recovery would restore: a mutex version
     counts once its action prepares, and the larger address wins (§4.4),
     so an early-prepared version of an action that never prepares cannot
     reach a snapshot. *)
  Option.iter
    (Uid.Tbl.iter (fun uid (a, otype) ->
         if otype = Log_entry.Mutex then
           match Uid.Tbl.find_opt t.mt uid with
           | Some b when b > a -> ()
           | Some _ | None -> Uid.Tbl.replace t.mt uid a))
    (Aid.Tbl.find_opt t.pending aid);
  Aid.Tbl.remove t.pending aid;
  Aid.Tbl.replace t.pat aid ();
  ignore
    (append_outcome ~force ?on_durable t
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

(* Lazy: a lost done record only makes the recovered coordinator re-send
   commit (§2.2.3), which the participants ack again. *)
let done_ ?on_durable t aid =
  Aid.Tbl.remove t.committing_active aid;
  ignore (append_outcome ?on_durable t (Log_entry.Done { aid; prev = None }))

let prepared_actions t = Aid.Tbl.fold (fun a () acc -> a :: acc) t.pat []
let accessible t u = Uid.Set.mem u t.acc

let mutex_table t =
  Uid.Tbl.fold (fun u a acc -> (u, a) :: acc) t.mt []
  |> List.sort (fun (a, _) (b, _) -> Uid.compare a b)

let last_outcome_addr t = t.last_outcome
let base_bytes t = t.base_bytes

(* Recovery (§4.3.3): walk the backward chain of outcome entries. *)

(* Promotion (warm failover) and both recovery paths end here: a recovery
   system around a restored heap, with the MT (§5.2) and the PAT and CT
   duty tables. Appends chain onto [last_outcome]. *)
let adopt ~heap ~dir ~last_outcome ~info ~mutexes =
  let acc = Uid.Set.add Uid.stable_vars (Heap.reachable_uids heap) in
  let base_bytes = Log.stream_bytes (Log_dir.current dir) in
  let t = { (create heap dir) with acc; last_outcome; base_bytes } in
  List.iter (fun (uid, src) -> Uid.Tbl.replace t.mt uid src) mutexes;
  List.iter (fun aid -> Aid.Tbl.replace t.pat aid ()) (Tables.Recovery_info.prepared_actions info);
  List.iter
    (fun (aid, gids) -> Aid.Tbl.replace t.committing_active aid gids)
    (Tables.Recovery_info.committing_actions info);
  t

(* Common recovery epilogue: finish the restore tables and read the MT
   off the object table. *)
let assemble ~heap ~dir ~ctx ~head =
  let info = Restore.finish ctx ~uid_gen:(Heap.uid_gen heap) in
  Metrics.incr ~by:info.Tables.Recovery_info.entries_processed m_recovery_entries;
  Trace.emit
    (Trace.Recovery_scan
       { system = "hybrid"; entries = info.Tables.Recovery_info.entries_processed });
  (adopt ~heap ~dir ~last_outcome:head ~info ~mutexes:(Tables.Ot.mutexes ctx.Restore.ot), info)

let recover source_dir =
  Log_dir.scrub source_dir;
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
        (match entry with
        | Log_entry.Data _ -> failwith "Hybrid_rs.recover: data entry on the outcome chain"
        | _ -> Restore.replay ctx ~read_data:(Log_entry.read_data log) a entry);
        walk (Log_entry.prev entry)
  in
  walk !head;
  assemble ~heap ~dir ~ctx ~head:!head

(* Segment-parallel recovery: instead of random-access chain chasing,
   partitioned readers bulk-scan the live segments forward (every page
   fetched once), keeping just the outcome entries — data entries are
   skipped on their tag byte without decoding the payload. Because every
   outcome entry in the live log is on the backward chain and the chain
   runs in address order, replaying the collected outcomes newest-first
   is exactly the serial chain walk — the readers never need to stitch
   [prev] pointers across partitions. The data entries the outcomes name
   are answered from the readers' buffers, located during the same scan,
   so each live page is read once. Cost is one sequential pass over live
   bytes, so restart time is bounded by live data, not history. *)
let recover_parallel ?stats source_dir =
  Log_dir.scrub source_dir;
  let dir = Log_dir.open_ source_dir in
  let log = Log_dir.current dir in
  let heap = Heap.create () in
  let ctx = Restore.create_ctx heap in
  let outcomes = ref [] in
  let head = ref None in
  let data = Hashtbl.create 256 in
  (* delivered ascending; consed, so the list ends up newest-first and the
     last outcome address seen is the chain head *)
  let scans =
    Log.scan_segments log (fun a buf ~off ~len ->
        ctx.Restore.processed <- ctx.Restore.processed + 1;
        if Log_entry.is_outcome_at buf ~off ~len then begin
          outcomes := (a, Log_entry.decode_at buf ~off ~len) :: !outcomes;
          head := Some a
        end
        else Hashtbl.replace data a (buf, off, len))
  in
  Option.iter (fun r -> r := scans) stats;
  let read_data a =
    Hashtbl.find_opt data a
    |> Option.map (fun (buf, off, len) -> Log_entry.decode_at buf ~off ~len)
    |> Log_entry.data_of a
  in
  List.iter (fun (a, entry) -> Restore.replay ctx ~read_data a entry) !outcomes;
  assemble ~heap ~dir ~ctx ~head:!head

(* Housekeeping (Chapter 5). *)

type technique = Compaction | Snapshot

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
  ctx : Restore.ctx;
      (* compaction's replay, persisting across slices; for both
         techniques its OT holds each mutex copied to the new log, with its
         old-log source (which the carry compares against) and new-log
         address (the new MT) *)
  cssl : (Uid.t * addr) Vec.t; (* compaction's CSSL, in write order *)
  chained : Log_entry.t Vec.t; (* compaction's outcome entries, in write order; prev filled later *)
  mutable new_as : Uid.Set.t option; (* snapshot only *)
  mutable cursor : addr option; (* next old-chain entry the walk will visit *)
  mutable stage : stage;
  mutable carried : int; (* OEL entries already carried to the new log *)
  mutable carry_head : addr option; (* prev-chain head threaded through stage two *)
}

let wdata log ~otype version =
  Log_entry.write log (Log_entry.Data { uid = None; otype; aid = None; version })

(* Compaction's output: stage one rebuilds the stable state as recovery
   would, writing it to the new log instead of volatile memory (§5.1.1).
   A committed version becomes a data entry the CSSL names; a
   still-prepared action's version named by a pair becomes a data entry
   its rebuilt prepared entry names; a [Prepared_data] version is chained
   as it is. *)
let new_log_output ~new_log ~cssl ~chained : Restore.output =
  let committed ~uid otype version =
    let a = wdata new_log ~otype version in
    Vec.push cssl (uid, a);
    a
  in
  {
    committed;
    owed_base = (fun ~uid ~vm:_ version -> ignore (committed ~uid Log_entry.Atomic version));
    current = (fun ~uid:_ ~aid:_ version -> wdata new_log ~otype:Log_entry.Atomic version);
    prepared_data =
      (fun ~uid ~aid version ->
        Vec.push chained (Log_entry.Prepared_data { uid; version; aid; prev = None });
        -1 (* no data entry of its own *));
    settle = ignore;
  }

(* One step of log compaction's stage one: replay the entry at [a] into
   the new log and return the next (older) chain address. The replay
   decides what recovery would; what stays here is the chaining only
   compaction does — a coordinator's first outcome, if [Committing], and
   a still-prepared action's prepared entry, rebuilt with pairs naming
   the versions this replay wrote. The chain below the starting head is
   immutable, and the walk reads no volatile tables, so slicing it
   against live commits is safe: concurrent appends land above the head
   and reach the new log via the OEL. *)
let compaction_entry job a =
  let ctx = job.ctx in
  let entry = Log_entry.decode (Log.read job.old_log a) in
  let chain e = Vec.push job.chained (Log_entry.with_prev e None) in
  let unplaced =
    match entry with
    | Log_entry.Data _ -> failwith "Hybrid_rs.compaction: data entry on the outcome chain"
    | Log_entry.Committing { aid; _ } ->
        if Tables.Ct.find ctx.ct aid = None then chain entry;
        []
    | Log_entry.Prepared { pairs = Some pairs; _ } ->
        List.filter (fun (uid, _) -> Tables.Ot.find ctx.ot uid = None) pairs
    | _ -> []
  in
  Restore.replay ctx ~read_data:(Log_entry.read_data job.old_log) a entry;
  (match entry with
  | Log_entry.Prepared { aid; _ } when Tables.Pt.find ctx.pt aid = Some Tables.Pt.Prepared ->
      (* Unlike §5.1.1 we keep even an empty prepared entry, so a
         mutex-only prepared action keeps its PT status after a crash. *)
      let pairs =
        List.filter_map
          (fun (uid, _) ->
            match Tables.Ot.find ctx.ot uid with
            | Some { state = Tables.Ot.Prepared; vm; _ } -> Some (uid, vm)
            | Some { state = Tables.Ot.Restored; _ } | None -> None)
          unplaced
      in
      chain (Log_entry.Prepared { aid; pairs = Some pairs; prev = None })
  | _ -> ());
  Log_entry.prev entry

(* Stage one of the stable-state snapshot (§5.2): the walk of the stable
   state in volatile memory. Each copied mutex's old-log source enters the
   job's OT for the carry's comparisons. *)
let snapshot_stage1 t job =
  let s =
    Write_objects.snapshot ~heap:t.heap ~old_log:job.old_log ~mt:t.mt ~pat:t.pat
      ~committing:t.committing_active ~prepared_pairs:(Some []) ~write_data:(fun ~uid:_ ~otype ->
        Log_entry.write_data job.new_log ~uid:None ~otype ~aid:None)
  in
  List.iter
    (fun (uid, a) ->
      Tables.Ot.add job.ctx.ot uid Tables.Ot.Restored ~kind:Log_entry.Mutex ~vm:a
        ~src:(Uid.Tbl.find t.mt uid))
    s.new_mt;
  job.new_as <- Some s.new_as;
  (s.cssl, s.in_doubt)

(* Close stage one: the committed_ss goes at the TAIL of the chain (so
   recovery processes it last) and the collected outcome entries are
   written on top of it in order. *)
let close_stage1 job (cssl, chained) =
  let css = Log_entry.Committed_ss { cssl; prev = None } in
  let head = ref (Log_entry.write job.new_log css) in
  List.iter
    (fun entry ->
      let entry = Log_entry.with_prev entry (Some !head) in
      head := Log_entry.write job.new_log entry)
    chained;
  job.carry_head <- Some !head

(* Stage two (§5.1.1, shared by both techniques): carry one post-marker
   outcome entry over to the new log, rewriting prepared-entry pairs. *)
let carry_one (job : job) oaddr =
  let emit entry =
    let entry = Log_entry.with_prev entry job.carry_head in
    job.carry_head <- Some (Log_entry.write job.new_log entry)
  in
  match Log_entry.decode (Log.read job.old_log oaddr) with
  | Log_entry.Prepared { aid; pairs; _ } ->
      let pairs = Option.value pairs ~default:[] in
      let newlist =
        List.filter_map
          (fun (uid, oa) ->
            match Log_entry.read_data job.old_log oa with
            | Log_entry.Atomic, version ->
                Some (uid, wdata job.new_log ~otype:Log_entry.Atomic version)
            | Log_entry.Mutex, version -> (
                match Tables.Ot.find job.ctx.ot uid with
                | Some e when oa < e.src -> None
                | Some _ | None ->
                    let a = wdata job.new_log ~otype:Log_entry.Mutex version in
                    Tables.Ot.add job.ctx.ot uid Tables.Ot.Restored ~kind:Log_entry.Mutex ~vm:a
                      ~src:oa;
                    Some (uid, a)))
          pairs
      in
      emit (Log_entry.Prepared { aid; pairs = Some newlist; prev = None })
  | ( Log_entry.Committed _ | Log_entry.Aborted _ | Log_entry.Committing _ | Log_entry.Done _
    | Log_entry.Base_committed _ | Log_entry.Prepared_data _ ) as entry ->
      emit entry
  | Log_entry.Committed_ss _ -> failwith "Hybrid_rs: committed_ss in the OEL"
  | Log_entry.Data _ -> failwith "Hybrid_rs: data entry in the OEL"

(* Carry up to [n] more OEL entries to the new log. *)
let carry job n =
  let k = ref 0 in
  while !k < n && job.carried < Vec.length job.oel do
    carry_one job (Vec.get job.oel job.carried);
    job.carried <- job.carried + 1;
    incr k
  done

let technique_name = function Compaction -> "compaction" | Snapshot -> "snapshot"

let housekeeping_active (t : t) = t.oel <> None

let hk_start (t : t) technique =
  if t.oel <> None then invalid_arg "Hybrid_rs.hk_start: already in progress";
  let oel = Vec.create () in
  let new_log = Log_dir.begin_new t.dir in
  let cssl = Vec.create () and chained = Vec.create () in
  let job =
    {
      technique;
      old_log = t.log;
      new_log;
      oel;
      ctx = Restore.create (new_log_output ~new_log ~cssl ~chained);
      cssl;
      chained;
      new_as = None;
      cursor = t.last_outcome;
      stage = Walk;
      carried = 0;
      carry_head = None;
    }
  in
  t.oel <- Some oel;
  job

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
  carry job max_int;
  (* Data entries of in-flight, still-unprepared actions are not lost:
     rewrite them to the new log (§5.1.1, last paragraph), oldest first
     across actions, so rewritten mutex versions keep their address order.
     A mutex version older than the MT's prepared one can never win
     recovery; it is dropped instead of rewritten above it. *)
  Aid.Tbl.fold
    (fun _aid tbl acc -> Uid.Tbl.fold (fun uid (oa, otype) acc -> (oa, otype, uid, tbl) :: acc) tbl acc)
    t.pending []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)
  |> List.iter (fun (oa, otype, uid, tbl) ->
         match (otype, Uid.Tbl.find_opt t.mt uid) with
         | Log_entry.Mutex, Some b when b > oa -> Uid.Tbl.remove tbl uid
         | (Log_entry.Mutex | Log_entry.Atomic), _ ->
                let _, version = Log_entry.read_data job.old_log oa in
             Uid.Tbl.replace tbl uid (wdata job.new_log ~otype version, otype));
  (* Nothing on the hot path reads the new generation's pages back. *)
  Log.force ~write_around:true job.new_log;
  (* The checkpoint supersedes the whole old stream: the switch releases
     every old segment. *)
  Log_dir.switch t.dir;
  t.log <- Log_dir.current t.dir;
  t.base_bytes <- Log.stream_bytes t.log;
  t.last_outcome <- job.carry_head;
  t.oel <- None;
  Uid.Tbl.reset t.mt;
  List.iter
    (fun (u, (e : Tables.Ot.entry)) -> if e.kind = Log_entry.Mutex then Uid.Tbl.replace t.mt u e.vm)
    (Tables.Ot.to_list job.ctx.ot);
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
  (match t.oel with
  | Some v when v == job.oel -> ()
  | Some _ | None -> invalid_arg "Hybrid_rs.hk_step: stale job");
  let budget = max 1 budget in
  (match job.stage with
  | Walk -> (
      match job.technique with
      | Snapshot ->
          (* The heap traversal reads live volatile state, so it cannot
             be sliced against concurrent mutation: one atomic step. *)
          close_stage1 job (snapshot_stage1 t job);
          (* The walk read the committed state, the PAT and the
             committing table after every outcome entry appended so far:
             it already holds their effects, so carrying them too would
             only copy them. *)
          job.carried <- Vec.length job.oel;
          job.stage <- Carry
      | Compaction ->
          let n = ref 0 in
          while !n < budget && job.cursor <> None do
            job.cursor <- compaction_entry job (Option.get job.cursor);
            incr n
          done;
          if job.cursor = None then begin
            close_stage1 job (Vec.to_list job.cssl, Vec.to_list job.chained);
            job.stage <- Carry
          end)
  | Carry ->
      carry job budget;
      if job.carried >= Vec.length job.oel then hk_finalize t job
  | Finished -> ());
  job.stage = Finished

let housekeep t technique =
  let job = hk_start t technique in
  while not (hk_step t job ~budget:max_int) do
    ()
  done
