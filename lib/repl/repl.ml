(* Primary/backup replication by log shipping (see repl.mli).

   The replica is kept byte-identical to the shipped prefix of the
   primary's log: shipped entries are appended through the ordinary
   [Stable_log.write] path, so segment allocation and linking replay
   locally and every entry lands at the address it had on the primary —
   which is what lets the warm tables reference data entries by their
   primary log addresses, and what makes promotion's [Hybrid_rs.adopt]
   chain new outcome entries directly onto the replicated tail. *)

module Log = Rs_slog.Stable_log
module Log_dir = Rs_slog.Log_dir
module Heap = Rs_objstore.Heap
module Log_entry = Core.Log_entry
module Restore = Core.Restore
module Tables = Core.Tables
module Hybrid_rs = Core.Hybrid_rs
module System = Rs_guardian.System
module Guardian = Rs_guardian.Guardian
module Directory = Rs_dir.Directory
module Net = Rs_sim.Net
module Trace = Rs_obs.Trace
module Metrics = Rs_obs.Metrics
module Gid = Rs_util.Gid
module Aid = Rs_util.Aid
module Uid = Rs_util.Uid

type addr = Log.addr


let m_ships = Metrics.counter "repl.ships"
let m_ship_bytes = Metrics.counter "repl.ship_bytes"
let m_applies = Metrics.counter "repl.applies"
let m_resets = Metrics.counter "repl.resets"
let m_resyncs = Metrics.counter "repl.resyncs"
let m_fenced = Metrics.counter "repl.fenced"
let m_failovers = Metrics.counter "repl.failovers"

(* ------------------------------------------------------------------ *)
(* Replica: the standby's stable log + warm recovery tables.          *)

module Replica = struct
  (* Committed base version of an atomic object: by log address (the
     normal case — the data entry is in the replica log) or inline (from
     a [Base_committed] or a committed [Prepared_data] entry). *)
  type csrc = Caddr of addr | Cinline of Rs_objstore.Fvalue.t

  type t = {
    mutable dir : Log_dir.t;
    mutable log : Log.t;
    (* Warm tables, maintained forward with last-wins semantics — the
       inversion of recovery's backward first-wins walk. *)
    ppairs : (Uid.t * addr) list Aid.Tbl.t;  (** prepared aid → atomic pairs *)
    pinline : (Uid.t * Rs_objstore.Fvalue.t) list Aid.Tbl.t;
    committed : csrc Uid.Tbl.t;
    mutexes : addr Uid.Tbl.t;  (** latest data-entry address per mutex *)
    ct : Tables.Ct.state Aid.Tbl.t;
    mutable last_outcome : addr option;
    mutable applied_entries : int;
    mutable diverged : string option;
    mutable warm : bool;  (** false after the hosting standby crashed *)
  }

  let create ~page_size ~segment_pages () =
    let dir = Log_dir.create ~page_size ~segment_pages () in
    Log_dir.set_label dir "replica";
    {
      dir;
      log = Log_dir.current dir;
      ppairs = Aid.Tbl.create 16;
      pinline = Aid.Tbl.create 8;
      committed = Uid.Tbl.create 64;
      mutexes = Uid.Tbl.create 16;
      ct = Aid.Tbl.create 16;
      last_outcome = None;
      applied_entries = 0;
      diverged = None;
      warm = true;
    }

  let dir t = t.dir
  let log t = t.log
  let watermark t = Log.end_addr t.log
  let applied_entries t = t.applied_entries
  let diverged t = t.diverged

  let note_mutex t uid a =
    match Uid.Tbl.find_opt t.mutexes uid with
    | Some prev when prev >= a -> ()
    | Some _ | None -> Uid.Tbl.replace t.mutexes uid a

  (* Forward application of one log entry to the warm tables. Last wins
     throughout: a later entry for the same action or object supersedes
     an earlier one, which is the forward-order equivalent of recovery's
     "first (latest) outcome seen is final". *)
  let apply_warm t (a, raw) =
    let e = Log_entry.decode raw in
    t.applied_entries <- t.applied_entries + 1;
    if Log_entry.is_outcome e then t.last_outcome <- Some a;
    match e with
    | Log_entry.Data _ -> ()
    (* referenced later by address through a prepared entry's pairs *)
    | Log_entry.Prepared { aid; pairs; _ } ->
        let atomics =
          List.filter_map
            (fun (uid, da) ->
              match fst (Log_entry.read_data t.log da) with
              | Log_entry.Atomic -> Some (uid, da)
              | Log_entry.Mutex ->
                  (* §4.4 mutex rule: greatest data-entry address wins,
                     and the write survives even an abort. *)
                  note_mutex t uid da;
                  None)
            (Option.value pairs ~default:[])
        in
        Aid.Tbl.replace t.ppairs aid atomics
    | Log_entry.Prepared_data { uid; version; aid; _ } ->
        let prev = Option.value (Aid.Tbl.find_opt t.pinline aid) ~default:[] in
        Aid.Tbl.replace t.pinline aid ((uid, version) :: prev)
    | Log_entry.Committed { aid; _ } ->
        (match Aid.Tbl.find_opt t.ppairs aid with
        | Some l -> List.iter (fun (uid, da) -> Uid.Tbl.replace t.committed uid (Caddr da)) l
        | None -> ());
        (match Aid.Tbl.find_opt t.pinline aid with
        | Some l ->
            List.iter (fun (uid, v) -> Uid.Tbl.replace t.committed uid (Cinline v)) (List.rev l)
        | None -> ());
        Aid.Tbl.remove t.ppairs aid;
        Aid.Tbl.remove t.pinline aid
    | Log_entry.Aborted { aid; _ } ->
        (* current versions die; mutex effects stay (§2.4.2) *)
        Aid.Tbl.remove t.ppairs aid;
        Aid.Tbl.remove t.pinline aid
    | Log_entry.Committing { aid; gids; _ } ->
        Aid.Tbl.replace t.ct aid (Tables.Ct.Committing gids)
    | Log_entry.Done { aid; _ } -> Aid.Tbl.replace t.ct aid Tables.Ct.Done
    | Log_entry.Base_committed { uid; version; _ } ->
        Uid.Tbl.replace t.committed uid (Cinline version)
    | Log_entry.Committed_ss { cssl; _ } ->
        List.iter
          (fun (uid, da) ->
            match fst (Log_entry.read_data t.log da) with
            | Log_entry.Atomic -> Uid.Tbl.replace t.committed uid (Caddr da)
            | Log_entry.Mutex -> note_mutex t uid da)
          cssl

  type apply_result = Applied | Gap of addr

  let apply t ~base ~entries ~table ~low_water =
    if not t.warm then invalid_arg "Repl.Replica.apply: reopen the replica first";
    let end0 = Log.end_addr t.log in
    if base > end0 then Gap end0
    else begin
      (* Idempotent by address: anything below the watermark was applied
         by an earlier delivery of the same (or an overlapping) batch. *)
      let fresh = List.filter (fun (a, _) -> a >= end0) entries in
      List.iter
        (fun (a, raw) ->
          let a' = Log.write t.log raw in
          if a' <> a && t.diverged = None then
            t.diverged <-
              Some (Printf.sprintf "entry shipped for address %d landed at %d" a a'))
        fresh;
      Log.force t.log;
      List.iter (apply_warm t) fresh;
      if low_water > Log.low_water t.log then Log.retire_below t.log low_water;
      (* The shipped control state must match the locally replayed
         placement: same segment indexes, same low-water mark. (Pool ids
         may differ — the replica draws from its own pool.) *)
      let idx l = List.map fst l in
      if t.diverged = None && idx table <> idx (Log.segment_table t.log) then
        t.diverged <-
          Some
            (Printf.sprintf "segment table skew: %d shipped vs %d local segments"
               (List.length table)
               (List.length (Log.segment_table t.log)));
      if t.diverged = None && low_water <> Log.low_water t.log then
        t.diverged <-
          Some
            (Printf.sprintf "low-water skew: %d shipped vs %d local" low_water
               (Log.low_water t.log));
      Applied
    end

  let clear_warm t =
    Aid.Tbl.reset t.ppairs;
    Aid.Tbl.reset t.pinline;
    Uid.Tbl.reset t.committed;
    Uid.Tbl.reset t.mutexes;
    Aid.Tbl.reset t.ct;
    t.last_outcome <- None;
    t.applied_entries <- 0

  let invalidate t =
    t.warm <- false;
    clear_warm t

  let reopen t =
    Log_dir.scrub t.dir;
    t.dir <- Log_dir.open_ t.dir;
    t.log <- Log_dir.current t.dir;
    clear_warm t;
    t.warm <- true;
    Seq.iter (apply_warm t) (Log.read_forward t.log (Log.low_water t.log))

  (* Actions with a warm committing/done record: the durable verdicts
     [System.resolve_orphans] resolves [Committed] at promotion. *)
  let decided t =
    Aid.Tbl.fold (fun aid _ acc -> Aid.Set.add aid acc) t.ct Aid.Set.empty

  (* Promotion: feed the warm tables to the shared recovery state
     machine. Restore is first-wins (it normally consumes the log
     backward), so the feed order mirrors a backward walk: still-prepared
     actions first (their pairs install current versions and re-grant
     write locks), then the commit table, then the committed state as one
     checkpoint-style pass — exactly "a commit and prepare of an
     anonymous action" over the live CSSL. *)
  let build_recovery t =
    if not t.warm then invalid_arg "Repl.Replica.build_recovery: reopen the replica first";
    let log = t.log in
    let heap = Heap.create () in
    let ctx = Restore.create_ctx heap in
    let prepared_aids =
      Aid.Tbl.fold (fun aid _ acc -> Aid.Set.add aid acc) t.ppairs Aid.Set.empty
      |> fun s ->
      Aid.Tbl.fold (fun aid _ acc -> Aid.Set.add aid acc) t.pinline s |> Aid.Set.elements
    in
    List.iter
      (fun aid ->
        Restore.on_prepared ctx aid;
        (match Aid.Tbl.find_opt t.ppairs aid with
        | Some l ->
            List.iter
              (fun (uid, da) ->
                Restore.on_data ctx ~uid ~aid:(Some aid) ~src:da ~fetch:(fun () ->
                    Log_entry.read_data log da))
              l
        | None -> ());
        match Aid.Tbl.find_opt t.pinline aid with
        | Some l -> List.iter (fun (uid, v) -> Restore.on_prepared_data ctx ~uid ~aid v) l
        | None -> ())
      prepared_aids;
    Aid.Tbl.fold (fun aid st acc -> (aid, st) :: acc) t.ct []
    |> List.sort (fun (a, _) (b, _) -> Aid.compare a b)
    |> List.iter (fun (aid, st) ->
           match st with
           | Tables.Ct.Committing gids -> Restore.on_committing ctx aid gids
           | Tables.Ct.Done -> Restore.on_done ctx aid);
    let css =
      Uid.Tbl.fold
        (fun uid src acc -> match src with Caddr a -> (uid, a) :: acc | Cinline _ -> acc)
        t.committed []
      @ Uid.Tbl.fold (fun uid a acc -> (uid, a) :: acc) t.mutexes []
      |> List.sort (fun (a, _) (b, _) -> Uid.compare a b)
    in
    Restore.on_committed_ss ctx ~pairs:css ~fetch:(Log_entry.read_data log);
    Uid.Tbl.fold
      (fun uid src acc -> match src with Cinline v -> (uid, v) :: acc | Caddr _ -> acc)
      t.committed []
    |> List.sort (fun (a, _) (b, _) -> Uid.compare a b)
    |> List.iter (fun (uid, v) -> Restore.on_base_committed ctx ~uid v);
    let info = Restore.finish ctx ~uid_gen:(Heap.uid_gen heap) in
    let mutexes =
      Uid.Tbl.fold (fun u a acc -> (u, a) :: acc) t.mutexes []
      |> List.sort (fun (a, _) (b, _) -> Uid.compare a b)
    in
    let rs = Hybrid_rs.adopt ~heap ~dir:t.dir ~last_outcome:t.last_outcome ~info ~mutexes in
    (rs, info)
end

(* ------------------------------------------------------------------ *)
(* Protocol messages.                                                 *)

type msg =
  | Ship of {
      epoch : int;
      base : addr;
      entries : (addr * string) list;
      table : (int * int) list;
      low_water : addr;
      reset : bool;
      page_size : int;
      segment_pages : int;
    }
  | Ship_ack of { epoch : int; watermark : addr; applied : int }
  | Resync of { epoch : int; from_ : addr }

(* ------------------------------------------------------------------ *)
(* Pair: orchestration over a System.                                 *)

module Pair = struct
  type t = {
    sys : System.t;
    rnet : msg Net.t;
    directory : Directory.t option;
    mutable primary : Gid.t;
    mutable standby : Gid.t;
    mutable epoch : int;
    mutable replica : Replica.t option;
    mutable attached : bool;  (** a standby replica is receiving ships *)
    mutable standby_shadow : bool;
        (** the standby is a demoted old primary: its guardian must stay
            off the 2PC network (its address belongs to the heir) *)
    mutable shipped : addr;
    mutable shipped_entries : int;
    mutable acked : addr;
    mutable acked_entries : int;
    mutable failovers : int;
    mutable buffer : (addr * (addr * string) list * (int * int) list * addr) list;
        (** out-of-order ships parked at the standby, sorted by base *)
    mutable last_diverged : string option;
  }

  let primary t = t.primary
  let standby t = t.standby
  let epoch t = t.epoch
  let shipped t = t.shipped
  let acked t = t.acked
  let applied t = match t.replica with Some r -> Replica.watermark r | None -> 0
  let lag_entries t = max 0 (t.shipped_entries - t.acked_entries)
  let failovers t = t.failovers
  let attached t = t.attached
  let replica t = t.replica

  let diverged t =
    match t.last_diverged with
    | Some _ as d -> d
    | None -> Option.join (Option.map Replica.diverged t.replica)

  let primary_guardian t = System.guardian t.sys t.primary

  (* Always through the dir: during a switch the hook fires before the
     recovery system has swapped its own cached log handle. *)
  let primary_log t = Log_dir.current (Hybrid_rs.dir (Guardian.rs (primary_guardian t)))

  let fenced () = Metrics.incr m_fenced

  (* ---- primary side ---------------------------------------------- *)

  let send_ship t ~base ~entries ~table ~low_water ~reset =
    let dir = Hybrid_rs.dir (Guardian.rs (primary_guardian t)) in
    let bytes = List.fold_left (fun acc (_, e) -> acc + String.length e) 0 entries in
    Metrics.incr m_ships;
    Metrics.incr ~by:bytes m_ship_bytes;
    Trace.emit
      (Trace.Repl_ship
         {
           src = Gid.to_string t.primary;
           dst = Gid.to_string t.standby;
           epoch = t.epoch;
           base;
           entries = List.length entries;
           bytes;
         });
    Net.send t.rnet ~src:t.primary ~dst:t.standby
      (Ship
         {
           epoch = t.epoch;
           base;
           entries;
           table;
           low_water;
           reset;
           page_size = Log_dir.page_size dir;
           segment_pages = Log_dir.segment_pages dir;
         })

  (* Ship the covered batch of one completed force. Runs synchronously
     inside the force, after the header write — the batch is durable on
     the primary before the ship enters the network, which is what makes
     the ship causally precede any client ack of the covered commits. *)
  let on_force t log fb =
    if t.attached then begin
      t.shipped <- Log.stream_bytes log;
      t.shipped_entries <- t.shipped_entries + List.length fb.Log.fb_entries;
      send_ship t ~base:fb.Log.fb_base ~entries:fb.Log.fb_entries ~table:fb.Log.fb_table
        ~low_water:fb.Log.fb_low_water ~reset:false
    end

  (* Re-seed the standby from address zero: the primary's full live
     prefix. Valid only while nothing has been retired from the current
     log (always true in practice: retirement happens at a generation
     switch, which restarts addresses — and triggers this reset). *)
  let ship_reset t =
    let log = primary_log t in
    if Log.low_water log <> 0 then
      invalid_arg "Repl.Pair: cannot reset-seed from a partially retired log";
    let entries =
      Log.read_forward log 0
      |> Seq.filter (fun (a, _) -> Log.is_forced log a)
      |> List.of_seq
    in
    t.shipped <- Log.stream_bytes log;
    t.shipped_entries <- Log.forced_count log;
    t.acked <- 0;
    t.acked_entries <- 0;
    Metrics.incr m_resets;
    send_ship t ~base:0 ~entries ~table:(Log.segment_table log)
      ~low_water:(Log.low_water log) ~reset:true

  let ship_tail t from_ =
    let log = primary_log t in
    if from_ < Log.low_water log then ship_reset t
    else begin
      let entries =
        Log.read_forward log from_
        |> Seq.filter (fun (a, _) -> Log.is_forced log a)
        |> List.of_seq
      in
      t.shipped <- Log.stream_bytes log;
      send_ship t ~base:from_ ~entries ~table:(Log.segment_table log)
        ~low_water:(Log.low_water log) ~reset:false
    end

  let rec install_hooks t =
    let dir = Hybrid_rs.dir (Guardian.rs (primary_guardian t)) in
    let log = Log_dir.current dir in
    Log.set_on_force log (Some (fun fb -> on_force t log fb));
    (* A housekeeping switch restarts log addresses at zero, so the
       shipped stream must restart too: re-hook the new generation and
       re-seed the standby wholesale. *)
    Log_dir.set_on_switch dir
      (Some
         (fun () ->
           install_hooks t;
           if t.attached then ship_reset t))

  (* ---- standby side ---------------------------------------------- *)

  let send_ack t r =
    Net.send t.rnet ~src:t.standby ~dst:t.primary
      (Ship_ack
         {
           epoch = t.epoch;
           watermark = Replica.watermark r;
           applied = Replica.applied_entries r;
         })

  let apply_batch t r ~base ~entries ~table ~low_water =
    match Replica.apply r ~base ~entries ~table ~low_water with
    | Replica.Applied ->
        Trace.emit
          (Trace.Repl_apply
             {
               gid = Gid.to_string t.standby;
               epoch = t.epoch;
               watermark = Replica.watermark r;
               entries = List.length entries;
             });
        Metrics.incr m_applies;
        true
    | Replica.Gap from_ ->
        (* Park the batch and ask for the hole; the parked batches drain
           once the resync ship closes it. *)
        t.buffer <-
          List.sort
            (fun (a, _, _, _) (b, _, _, _) -> compare a b)
            ((base, entries, table, low_water) :: t.buffer);
        Metrics.incr m_resyncs;
        Net.send t.rnet ~src:t.standby ~dst:t.primary (Resync { epoch = t.epoch; from_ });
        false

  let rec drain_buffer t r =
    match t.buffer with
    | (base, entries, table, low_water) :: rest when base <= Replica.watermark r ->
        t.buffer <- rest;
        ignore (Replica.apply r ~base ~entries ~table ~low_water);
        drain_buffer t r
    | _ -> ()

  let on_standby_msg t msg =
    match msg with
    | Ship { epoch; base; entries; table; low_water; reset; page_size; segment_pages } ->
        if epoch < t.epoch then fenced ()
        else begin
          if epoch > t.epoch then t.epoch <- epoch;
          if reset then begin
            let r = Replica.create ~page_size ~segment_pages () in
            Log_dir.set_label (Replica.dir r) (Gid.to_string t.standby ^ ":replica");
            t.replica <- Some r;
            t.buffer <- []
          end;
          match t.replica with
          | None -> () (* detached: no replica to apply into *)
          | Some r ->
              if apply_batch t r ~base ~entries ~table ~low_water then begin
                drain_buffer t r;
                send_ack t r
              end
        end
    | Ship_ack _ | Resync _ -> ()

  let on_primary_msg t msg =
    match msg with
    | Ship_ack { epoch; watermark; applied } ->
        if epoch <> t.epoch then fenced ()
        else begin
          if watermark > t.acked then t.acked <- watermark;
          if applied > t.acked_entries then t.acked_entries <- applied
        end
    | Resync { epoch; from_ } -> if epoch <> t.epoch then fenced () else ship_tail t from_
    | Ship _ -> ()

  let handler t self ~src:_ msg =
    if Gid.equal self t.primary then on_primary_msg t msg
    else if Gid.equal self t.standby then on_standby_msg t msg

  (* ---- lifecycle -------------------------------------------------- *)

  let create ?directory ~system ~primary ~standby () =
    if Gid.equal primary standby then invalid_arg "Repl.Pair.create: primary = standby";
    if not (Guardian.is_up (System.guardian system primary)) then
      invalid_arg "Repl.Pair.create: primary is down";
    let rnet = Net.create (System.sim system) () in
    let t =
      {
        sys = system;
        rnet;
        directory;
        primary;
        standby;
        epoch = 1;
        replica = None;
        attached = true;
        standby_shadow = false;
        shipped = 0;
        shipped_entries = 0;
        acked = 0;
        acked_entries = 0;
        failovers = 0;
        buffer = [];
        last_diverged = None;
      }
    in
    Net.register rnet primary (handler t primary);
    Net.register rnet standby (handler t standby);
    install_hooks t;
    ship_reset t;
    t

  let crash t g =
    if Guardian.is_up (System.guardian t.sys g) then System.crash t.sys g;
    if Gid.equal g t.primary || Gid.equal g t.standby then begin
      Net.set_up t.rnet g false;
      if Gid.equal g t.standby then Option.iter Replica.invalidate t.replica
    end

  let restart_primary t =
    if Guardian.is_up (primary_guardian t) then
      invalid_arg "Repl.Pair.restart_primary: primary is up";
    let report = System.restart t.sys t.primary in
    Net.set_up t.rnet t.primary true;
    (* Recovery reopened the log directory: fresh handles, fresh hooks.
       The standby may hold applies the primary never saw acked — it
       skips the overlap by address. *)
    install_hooks t;
    if t.attached then ship_tail t t.acked;
    report

  let restart_standby t =
    (* A demoted old primary stays off the 2PC network: its address is
       served by the heir. An original standby resumes guardian duty. *)
    if (not t.standby_shadow) && not (Guardian.is_up (System.guardian t.sys t.standby))
    then ignore (System.restart t.sys t.standby);
    Net.set_up t.rnet t.standby true;
    match t.replica with
    | None -> ()
    | Some r ->
        Replica.reopen r;
        Metrics.incr m_resyncs;
        Net.send t.rnet ~src:t.standby ~dst:t.primary
          (Resync { epoch = t.epoch; from_ = Replica.watermark r })

  let promotable t =
    match t.replica with
    | None -> false
    | Some r -> Replica.diverged r = None && Replica.watermark r >= t.shipped

  let promote t =
    let old = t.primary and heir = t.standby in
    if Guardian.is_up (System.guardian t.sys old) then
      invalid_arg "Repl.Pair.promote: primary is still up";
    let r =
      match t.replica with
      | Some r -> r
      | None -> invalid_arg "Repl.Pair.promote: no standby replica attached"
    in
    if not r.Replica.warm then Replica.reopen r;
    let heir_g = System.guardian t.sys heir in
    (* The standby guardian's own (empty) duty ends here: drop its
       volatile state so [adopt] can rebuild it around the warm image.
       The standby must not coordinate client traffic of its own — its
       in-flight handles, if any, resolve by presumed abort. *)
    if Guardian.is_up heir_g then System.crash t.sys heir;
    Net.set_up t.rnet heir true;
    t.epoch <- t.epoch + 1;
    t.failovers <- t.failovers + 1;
    let rs, info = Replica.build_recovery r in
    Guardian.adopt heir_g ~dir:(Replica.dir r) ~info rs;
    Guardian.take_over_address heir_g ~gid:old;
    System.reinstall_runtime t.sys heir;
    ignore (System.resolve_orphans t.sys ~coordinator:old ~decided:(Replica.decided r));
    ignore (System.resolve_orphans t.sys ~coordinator:heir ~decided:Aid.Set.empty);
    Option.iter (fun d -> Directory.retarget d ~from_:old ~to_:heir) t.directory;
    Trace.emit
      (Trace.Repl_promote
         {
           heir = Gid.to_string heir;
           for_ = Gid.to_string old;
           epoch = t.epoch;
           watermark = Replica.watermark r;
         });
    Metrics.incr m_failovers;
    (match Replica.diverged r with
    | Some _ as d -> t.last_diverged <- d
    | None -> ());
    t.primary <- heir;
    t.standby <- old;
    t.standby_shadow <- true;
    t.replica <- None;
    t.attached <- false;
    t.buffer <- [];
    t.shipped <- 0;
    t.shipped_entries <- 0;
    t.acked <- 0;
    t.acked_entries <- 0;
    install_hooks t;
    info

  let rejoin t =
    if t.attached then invalid_arg "Repl.Pair.rejoin: standby already attached";
    Net.set_up t.rnet t.standby true;
    t.attached <- true;
    (* The new standby needs a stream that starts at address zero. The
       current log always does (retirement happens only at a switch); a
       housekeeping pass would also get us there via the switch hook. *)
    let log = primary_log t in
    if Log.low_water log = 0 then ship_reset t
    else Guardian.housekeep (primary_guardian t) Hybrid_rs.Snapshot

  let status t =
    Printf.sprintf
      "repl epoch=%d primary=%s standby=%s%s attached=%b shipped=%d acked=%d applied=%d \
       lag=%d failovers=%d%s"
      t.epoch (Gid.to_string t.primary) (Gid.to_string t.standby)
      (if t.standby_shadow then "(shadow)" else "")
      t.attached t.shipped t.acked (applied t) (lag_entries t) t.failovers
      (match diverged t with None -> "" | Some d -> " DIVERGED: " ^ d)
end
