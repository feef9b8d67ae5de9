module Aid = Rs_util.Aid
module Gid = Rs_util.Gid
module Heap = Rs_objstore.Heap
module Log_dir = Rs_slog.Log_dir
module Stable_log = Rs_slog.Stable_log
module Sim = Rs_sim.Sim
module Net = Rs_sim.Net
module Twopc = Rs_twopc.Twopc
module Hybrid_rs = Core.Hybrid_rs
module Metrics = Rs_obs.Metrics
module Trace = Rs_obs.Trace

let m_prepares = Metrics.counter "guardian.prepares"
let m_commits = Metrics.counter "guardian.commits"
let m_hk_runs = Metrics.counter "guardian.housekeeping_runs"

type t = {
  gid : Gid.t;
  sim : Sim.t;
  net : Twopc.msg Net.t;
  mutable dir : Log_dir.t; (* replaced on promotion: the standby's replica dir *)
  aid_gen : Aid.Gen.t;
  force_window : float; (* group-commit window in virtual time; 0 = sync *)
  prepare_timeout : float option; (* 2PC knobs threaded to the endpoint *)
  retry_interval : float option;
  mutable heap : Heap.t;
  mutable rs : Hybrid_rs.t;
  mutable twopc : Twopc.t option;
  mutable up : bool;
  mutable crashes : int;
  mutable known : Aid.Set.t; (* volatile: actions that executed here *)
  mutable decided : Aid.Set.t; (* coordinated actions whose committing record exists *)
  mutable auto_hk : (int * Hybrid_rs.technique * (int * float)) option;
      (* threshold bytes, technique, (entries per slice, delay between) *)
  mutable hk_job : Hybrid_rs.job option; (* the background checkpoint in flight *)
  mutable hk_runs : int;
  (* MOS leftovers of early-prepared actions, consumed at prepare (§4.4). *)
  early : Rs_objstore.Value.addr list Aid.Tbl.t;
}

let gid t = t.gid
let heap t = t.heap
let rs t = t.rs
let log_dir t = t.dir
let is_up t = t.up
let fresh_aid t = Aid.Gen.fresh t.aid_gen
let note_participation t aid = t.known <- Aid.Set.add aid t.known
let participated t aid = Aid.Set.mem aid t.known
let crashes t = t.crashes

let hk_done t =
  t.hk_job <- None;
  t.hk_runs <- t.hk_runs + 1;
  Metrics.incr m_hk_runs

(* One slice of a background checkpoint, self-rescheduling over the
   simulator's virtual clock until the job completes. A slice runs only
   while its job is still [t.hk_job]: a crash, or a {!housekeep} that
   finished the job itself, turns any still-queued slice into a no-op — a
   spare log abandoned by a crash is orphan-swept at the next recovery. *)
let rec hk_slice_fiber t job ~budget ~delay () =
  match t.hk_job with
  | Some j when j == job ->
      if Hybrid_rs.hk_step t.rs job ~budget then hk_done t
      else Sim.schedule t.sim ~delay (hk_slice_fiber t job ~budget ~delay)
  | Some _ | None -> ()

(* Whether enough old information has accumulated (§2.3 operation 7).
   While the log's starting size (the last checkpoint's output, or the
   recovered log) fits under the threshold, that is the log passing the
   threshold. A larger start passes it at once, and a checkpoint then
   would only rewrite what it just wrote: a segmented log gives space
   back a segment at a time, so wait until the log has run past the end
   of the segment its start ended in — the first checkpoint that can
   free one. *)
let checkpoint_due t ~threshold =
  let log = Hybrid_rs.log t.rs in
  let base = Hybrid_rs.base_bytes t.rs in
  let cap = Stable_log.segment_pages log * Stable_log.page_size log in
  let limit = if base <= threshold || cap = 0 then threshold else ((base - 1) / cap + 1) * cap in
  Stable_log.stream_bytes log > limit

(* §2.3 operation 7: reorganize stable storage once enough log has
   accumulated. Triggered after outcome records, the quiet points of the
   recovery system's sequential operation. The pass runs as a background
   fiber in bounded slices interleaved with live commits; while one is in
   flight, further triggers are ignored. *)
let maybe_housekeep t =
  match t.auto_hk with
  | Some (threshold, technique, (budget, delay))
    when (not (Hybrid_rs.housekeeping_active t.rs)) && checkpoint_due t ~threshold ->
      let job = Hybrid_rs.hk_start t.rs technique in
      t.hk_job <- Some job;
      Sim.schedule t.sim ~delay (hk_slice_fiber t job ~budget ~delay)
  | Some _ | None -> ()

let twopc t =
  match t.twopc with
  | Some p -> p
  | None -> invalid_arg "Guardian: endpoint not initialized"

let coordinating t = Twopc.coordinating (twopc t)

let hooks_of t : Twopc.hooks =
  {
    on_prepare =
      (fun ~force aid ->
        (* An action unknown here never ran, aborted locally, or was wiped
           out by a crash: refuse (§2.2.2). *)
        if not (Aid.Set.mem aid t.known) then begin
          if Trace.enabled () then
            Trace.emit
              (Trace.Action_prepare
                 { gid = Gid.to_string t.gid; aid = Aid.to_string aid; refused = true });
          `Refused
        end
        else begin
          let mos =
            match Aid.Tbl.find_opt t.early aid with
            | Some leftovers -> leftovers (* the rest was early-prepared *)
            | None -> Heap.mos t.heap aid
          in
          Aid.Tbl.remove t.early aid;
          Hybrid_rs.prepare ~force t.rs aid mos;
          Metrics.incr m_prepares;
          if Trace.enabled () then
            Trace.emit
              (Trace.Action_prepare
                 { gid = Gid.to_string t.gid; aid = Aid.to_string aid; refused = false });
          `Prepared
        end);
    on_commit =
      (fun aid ->
        Metrics.incr m_commits;
        if Trace.enabled () then
          Trace.emit (Trace.Action_commit { gid = Gid.to_string t.gid; aid = Aid.to_string aid });
        Hybrid_rs.commit t.rs aid;
        Heap.commit_action t.heap aid;
        maybe_housekeep t);
    on_abort =
      (fun aid ->
        if Trace.enabled () then
          Trace.emit (Trace.Action_abort { gid = Gid.to_string t.gid; aid = Aid.to_string aid });
        Hybrid_rs.abort t.rs aid;
        Heap.abort_action t.heap aid;
        maybe_housekeep t);
    on_committing =
      (fun aid gids ->
        Hybrid_rs.committing t.rs aid gids;
        t.decided <- Aid.Set.add aid t.decided);
    on_done = (fun aid -> Hybrid_rs.done_ t.rs aid);
    coordinator_outcome =
      (fun aid ->
        (* The committing record is the commit point; an unknown action
           was never committed and must abort (§2.2.3). *)
        if Aid.Set.mem aid t.decided then `Commit else `Abort);
  }

(* Attach the guardian's batching window (if any) to the current recovery
   system's group-commit scheduler, on the simulator's virtual clock. *)
let configure_scheduler t =
  if t.force_window > 0.0 then
    Rs_slog.Force_scheduler.configure (Hybrid_rs.scheduler t.rs) ~window:t.force_window
      ~timer:(Some (fun ~delay k -> Sim.schedule t.sim ~delay k))

let wire_protocol t =
  let endpoint =
    Twopc.create ~gid:t.gid ~sim:t.sim
      ~send:(fun ~src ~dst msg -> Net.send t.net ~src ~dst msg)
      ~hooks:(hooks_of t)
      ?prepare_timeout:t.prepare_timeout ?retry_interval:t.retry_interval
      ~await_durable:(fun k ->
        Rs_slog.Force_scheduler.enqueue (Hybrid_rs.scheduler t.rs) ~on_durable:k ())
      ()
  in
  t.twopc <- Some endpoint;
  Net.register t.net t.gid (fun ~src msg -> Twopc.handle endpoint ~src msg)

let create ~gid ~sim ~net ?(page_size = 1024) ?(force_window = 0.0) ?prepare_timeout
    ?retry_interval () =
  let dir = Log_dir.create ~page_size () in
  Log_dir.set_label dir (Gid.to_string gid);
  let heap = Heap.create () in
  Heap.set_label heap (Gid.to_string gid);
  let rs = Hybrid_rs.create heap dir in
  let t =
    {
      gid;
      sim;
      net;
      dir;
      aid_gen = Aid.Gen.create gid;
      force_window;
      prepare_timeout;
      retry_interval;
      heap;
      rs;
      twopc = None;
      up = true;
      crashes = 0;
      known = Aid.Set.empty;
      decided = Aid.Set.empty;
      auto_hk = None;
      hk_job = None;
      hk_runs = 0;
      early = Aid.Tbl.create 8;
    }
  in
  wire_protocol t;
  configure_scheduler t;
  t

let early_prepare t aid =
  if t.up then
    let leftovers = Hybrid_rs.write_entry t.rs aid (Heap.mos t.heap aid) in
    Aid.Tbl.replace t.early aid leftovers

let start_commit t aid ~participants ~on_result =
  if not t.up then invalid_arg "Guardian.start_commit: guardian is down";
  Twopc.start_commit (twopc t) aid ~participants ~on_result

let abort_local t aid = Heap.abort_action t.heap aid

let crash t =
  if t.up then begin
    t.up <- false;
    t.crashes <- t.crashes + 1;
    Trace.emit (Trace.Crash { gid = Gid.to_string t.gid });
    Net.set_up t.net t.gid false;
    Twopc.stop (twopc t);
    (* Unforced tokens die with the crash; any armed flush timer still in
       the simulator becomes a no-op. *)
    Rs_slog.Force_scheduler.stop (Hybrid_rs.scheduler t.rs);
    t.known <- Aid.Set.empty;
    t.decided <- Aid.Set.empty;
    Aid.Tbl.reset t.early;
    t.hk_job <- None;
    (* Volatile memory is gone. The dying heap lingers in closures the
       runtime is still abandoning (waiter cancellations can serve queued
       grants on it); orphan its trace stream so those post-mortem events
       don't pollute the lock monitor's state for this guardian. *)
    Heap.set_label t.heap "";
    t.heap <- Heap.create ();
    Heap.set_label t.heap (Gid.to_string t.gid)
  end

(* Common tail of [restart] and [adopt]: announce the guardian back, wire
   the (already rebuilt) rs into the protocol and resume in-flight 2PC
   duties from the tables. *)
let resume_duties t info =
  Trace.emit
    (Trace.Restart
       {
         gid = Gid.to_string t.gid;
         prepared = List.length (Core.Tables.Recovery_info.prepared_actions info);
         committing = List.length (Core.Tables.Recovery_info.committing_actions info);
       });
  t.heap <- Hybrid_rs.heap t.rs;
  Heap.set_label t.heap (Gid.to_string t.gid);
  configure_scheduler t; (* the rebuilt rs starts with a sync scheduler *)
  wire_protocol t;
  Net.set_up t.net t.gid true;
  t.up <- true;
  (* Resume aid generation past every action seen in the log. *)
  List.iter (fun (a, _) -> Aid.Gen.reset_past t.aid_gen a) info.Core.Tables.Recovery_info.pt;
  List.iter (fun (a, _) -> Aid.Gen.reset_past t.aid_gen a) info.Core.Tables.Recovery_info.ct;
  (* Every action with a committing (or done) record committed. *)
  List.iter
    (fun (aid, state) ->
      match state with
      | Core.Tables.Ct.Committing _ | Core.Tables.Ct.Done ->
          t.decided <- Aid.Set.add aid t.decided)
    info.Core.Tables.Recovery_info.ct;
  (* Coordinators mid phase two resume sending commits (§2.2.3)... *)
  List.iter
    (fun (aid, gids) -> Twopc.resume_coordinator (twopc t) aid gids)
    (Core.Tables.Recovery_info.committing_actions info);
  (* ...and prepared participants chase their coordinators for verdicts. *)
  List.iter
    (fun aid ->
      Twopc.await_verdict (twopc t) aid ~coordinator:(Aid.coordinator aid);
      t.known <- Aid.Set.add aid t.known)
    (Core.Tables.Recovery_info.prepared_actions info)

let restart t =
  if t.up then invalid_arg "Guardian.restart: guardian is up";
  let rs, report =
    Core.Tables.Recovery_report.measure (fun () -> Hybrid_rs.recover_parallel t.dir)
  in
  let info = report.Core.Tables.Recovery_report.info in
  t.rs <- rs;
  t.dir <- Hybrid_rs.dir rs; (* recovery reopened the directory *)
  resume_duties t info;
  report

let adopt t ~dir ~info rs =
  if t.up then invalid_arg "Guardian.adopt: guardian is up";
  t.dir <- dir;
  Log_dir.set_label dir (Gid.to_string t.gid);
  t.rs <- rs;
  resume_duties t info

let take_over_address t ~gid:old =
  if not t.up then invalid_arg "Guardian.take_over_address: guardian is down";
  (* Dynamic dispatch: the registration survives a later re-wire of the
     heir's endpoint (its own crash/restart cycle), and goes quiet while
     the heir is down. *)
  Net.register t.net old (fun ~src msg -> if t.up then Twopc.handle ~self:old (twopc t) ~src msg);
  Net.set_up t.net old true

(* The recovery system runs one checkpoint at a time: finish the
   background one first (its queued slice then finds nothing to do). *)
let housekeep t technique =
  Option.iter
    (fun job ->
      while not (Hybrid_rs.hk_step t.rs job ~budget:max_int) do
        ()
      done;
      hk_done t)
    t.hk_job;
  Hybrid_rs.housekeep t.rs technique

let set_auto_housekeeping t ?(threshold_bytes = 65536) ~slice technique =
  t.auto_hk <- Option.map (fun tech -> (threshold_bytes, tech, slice)) technique

let housekeeping_runs t = t.hk_runs
let checkpoint_active t = Hybrid_rs.housekeeping_active t.rs
