module Aid = Rs_util.Aid
module Gid = Rs_util.Gid
module Heap = Rs_objstore.Heap
module Sim = Rs_sim.Sim
module Net = Rs_sim.Net
module Twopc = Rs_twopc.Twopc

type work = Heap.t -> Aid.t -> unit
type outcome = Action.outcome = Committed | Aborted
type mode = Update | Read_only
type ro_ctx = { ro_heap : Heap.t; ro_snapshot : Heap.snapshot }

exception Abort_action
exception Overloaded of { gid : Gid.t; in_flight : int }
exception Guardian_down of { gid : Gid.t }

let m_lock_conflicts = Rs_obs.Metrics.counter "guardian.lock_conflicts"
let m_wait_aborts = Rs_obs.Metrics.counter "guardian.wait_aborts"
let m_sheds = Rs_obs.Metrics.counter "guardian.sheds"

(* A suspended action: its step hit a lock queue on [p_gid]'s heap and the
   fiber is parked until the lock transfers ([continue true]) or the wait
   is cancelled — virtual-time timeout or guardian crash ([continue
   false], surfacing as {!Heap.Wait_timeout} inside the fiber). *)
type parked = {
  p_aid : Aid.t;
  p_gid : Gid.t;
  p_addr : Heap.addr;
  p_k : (bool, unit) Effect.Deep.continuation;
}

type _ Effect.t += Wait : { gid : Gid.t; addr : Heap.addr; aid : Aid.t } -> bool Effect.t

type t = {
  sim : Sim.t;
  net : Twopc.msg Net.t;
  guardians : Guardian.t array;
  early_prepare : bool;
  wait_timeout : float;
  max_in_flight : int option;
  parked : parked Aid.Tbl.t;
  handles : Action.handle Aid.Tbl.t; (* unresolved handles only *)
  in_flight : int array; (* per coordinator guardian *)
  epochs : int array; (* incarnation counter, bumped at each crash *)
}

let sim t = t.sim
let net t = t.net

let guardian t gid =
  let i = Gid.to_int gid in
  if i < 0 || i >= Array.length t.guardians then
    invalid_arg (Format.asprintf "System.guardian: no guardian %a" Gid.pp gid);
  t.guardians.(i)

let guardians t = Array.to_list t.guardians
let n_guardians t = Array.length t.guardians

(* Wire the heap's wait queues to the simulator: block performs an effect
   caught by the fiber handler in [submit]; wake reschedules the parked
   continuation as a fresh event, so a granted waiter interleaves with
   2PC messaging instead of running inside the releaser's stack. *)
let install_runtime t gid =
  let heap = Guardian.heap (guardian t gid) in
  Heap.set_runtime heap
    (Some
       {
         Heap.block = (fun ~addr ~aid -> Effect.perform (Wait { gid; addr; aid }));
         wake =
           (fun ~addr:_ ~aid ->
             match Aid.Tbl.find_opt t.parked aid with
             | Some p ->
                 Aid.Tbl.remove t.parked aid;
                 Sim.schedule t.sim ~delay:0.0 (fun () -> Effect.Deep.continue p.p_k true)
             | None -> ());
       })

let create ?(seed = 1) ?(latency = 1.0) ?(jitter = 0.0) ?(drop_prob = 0.0)
    ?(early_prepare = false) ?(force_window = 0.0) ?(wait_timeout = 20.0) ?max_in_flight
    ?prepare_timeout ?retry_interval ~n () =
  if n <= 0 then invalid_arg "System.create: need at least one guardian";
  if wait_timeout <= 0.0 then invalid_arg "System.create: wait_timeout must be positive";
  let sim = Sim.create ~seed () in
  Rs_obs.Trace.set_clock (fun () -> Sim.now sim);
  let net = Net.create ~latency ~jitter ~drop_prob sim () in
  let guardians =
    Array.init n (fun i ->
        Guardian.create ~gid:(Gid.of_int i) ~sim ~net ~force_window ?prepare_timeout
          ?retry_interval ())
  in
  let t =
    {
      sim;
      net;
      guardians;
      early_prepare;
      wait_timeout;
      max_in_flight;
      parked = Aid.Tbl.create 64;
      handles = Aid.Tbl.create 64;
      in_flight = Array.make n 0;
      epochs = Array.make n 0;
    }
  in
  for i = 0 to n - 1 do
    install_runtime t (Gid.of_int i)
  done;
  t

let dedup_gids gids =
  List.fold_left (fun acc g -> if List.mem g acc then acc else g :: acc) [] gids
  |> List.rev

let resolve_handle t h o =
  if not (Action.resolved h) then begin
    let aid = Action.aid h in
    Aid.Tbl.remove t.handles aid;
    let ci = Gid.to_int (Aid.coordinator aid) in
    t.in_flight.(ci) <- t.in_flight.(ci) - 1;
    if Rs_obs.Trace.enabled () then
      Rs_obs.Trace.emit
        (Rs_obs.Trace.Handle_resolve
           {
             gid = Gid.to_string (Aid.coordinator aid);
             aid = Aid.to_string aid;
             committed = (o = Committed);
           });
    Action.resolve h ~now:(Sim.now t.sim) o
  end

(* Run an action's steps as a fiber. A step that hits a lock queue
   performs [Wait]; the handler parks the continuation and arms a
   virtual-time timeout that cancels the wait (deliberate abort — the
   deadlock breaker). [submit] then returns with the action suspended;
   the heap's wake hook resumes it when the lock transfers. *)
let run_fiber t f =
  Effect.Deep.match_with f ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Wait { gid; addr; aid } ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  let p = { p_aid = aid; p_gid = gid; p_addr = addr; p_k = k } in
                  Aid.Tbl.replace t.parked aid p;
                  Sim.schedule t.sim ~delay:t.wait_timeout (fun () ->
                      match Aid.Tbl.find_opt t.parked aid with
                      | Some p' when p' == p ->
                          Aid.Tbl.remove t.parked aid;
                          Heap.cancel_wait (Guardian.heap (guardian t gid)) aid addr;
                          Effect.Deep.continue k false
                      | Some _ | None -> () (* already granted or cancelled *)))
          | _ -> None);
    }

let submit ?(mode = Update) t ~coordinator ~steps =
  let coord = guardian t coordinator in
  if not (Guardian.is_up coord) then raise (Guardian_down { gid = coordinator });
  (* A read-only action touches every target guardian synchronously before
     the handle exists, so check them all up front — a later Guardian_down
     must not leak an unresolved handle. *)
  if mode = Read_only then
    List.iter
      (fun (g, _) ->
        if not (Guardian.is_up (guardian t g)) then raise (Guardian_down { gid = g }))
      steps;
  let ci = Gid.to_int coordinator in
  (* Admission control protects lock and 2PC resources; read-only actions
     consume neither and complete synchronously, so they are never shed. *)
  (match t.max_in_flight with
  | Some cap when mode = Update && t.in_flight.(ci) >= cap ->
      Rs_obs.Metrics.incr m_sheds;
      if Rs_obs.Trace.enabled () then
        Rs_obs.Trace.emit
          (Rs_obs.Trace.Action_shed
             { gid = Gid.to_string coordinator; in_flight = t.in_flight.(ci) });
      raise (Overloaded { gid = coordinator; in_flight = t.in_flight.(ci) })
  | Some _ | None -> ());
  let aid = Guardian.fresh_aid coord in
  let h = Action.make ~aid ~now:(Sim.now t.sim) in
  Aid.Tbl.replace t.handles aid h;
  t.in_flight.(ci) <- t.in_flight.(ci) + 1;
  if Rs_obs.Trace.enabled () then
    Rs_obs.Trace.emit
      (Rs_obs.Trace.Handle_submit
         {
           gid = Gid.to_string coordinator;
           aid = Aid.to_string aid;
         });
  match mode with
  | Read_only ->
      (* MVCC path: one snapshot per distinct target guardian, all opened
         at this same virtual instant — a consistent cross-guardian cut.
         Snapshot reads never lock, never queue and never wait, so the
         whole action runs synchronously; there is nothing to prepare, so
         2PC (and the commit record) is skipped entirely. *)
      let snaps =
        List.map
          (fun g ->
            let heap = Guardian.heap (guardian t g) in
            let s = Heap.snapshot heap in
            Heap.begin_read_only heap aid s;
            (heap, s))
          (dedup_gids (List.map fst steps))
      in
      let finish () =
        List.iter
          (fun (heap, s) ->
            Heap.end_read_only heap aid;
            Heap.release_snapshot heap s)
          snaps
      in
      (match List.iter (fun (g, work) -> work (Guardian.heap (guardian t g)) aid) steps with
      | () ->
          finish ();
          resolve_handle t h Committed
      | exception Abort_action ->
          finish ();
          resolve_handle t h Aborted
      | exception e ->
          finish ();
          resolve_handle t h Aborted;
          raise e);
      h
  | Update ->
  (* Every guardian this fiber leaned on, with the incarnation it saw
     first. A crash bumps the epoch; a fiber that resumes afterwards — a
     lock grant was already in flight when the crash hit, so it was not
     parked and not failed — finds itself stale and must abort: its
     volatile writes and locks died with the old heap, and committing the
     survivors would be a phantom (the client was told Aborted and
     retried). *)
  let epoch g = t.epochs.(Gid.to_int g) in
  let coord_epoch = epoch coordinator in
  let touched = ref [] in
  let touch g = if not (List.mem_assoc g !touched) then touched := (g, epoch g) :: !touched in
  let stale () =
    epoch coordinator <> coord_epoch
    || List.exists (fun (g, e) -> epoch g <> e) !touched
  in
  let abort_all () =
    List.iter (fun (g, _) -> Guardian.abort_local (guardian t g) aid) !touched;
    resolve_handle t h Aborted
  in
  let rec exec = function
    | [] ->
        (* The coordinator may have crashed while a step waited — even if
           it is already back up, this incarnation's state is gone. *)
        if stale () || not (Guardian.is_up coord) then abort_all ()
        else
          let participants = dedup_gids (List.map fst steps) in
          Guardian.start_commit coord aid ~participants ~on_result:(fun verdict ->
              (match verdict with
              | `Committed -> ()
              | `Aborted ->
                  (* The Argus system aborts orphaned subactions whose abort
                     message may have been lost; locks must not leak. A
                     participant that prepared still resolves through the
                     query path and writes its aborted record. *)
                  List.iter
                    (fun (g, _) -> Guardian.abort_local (guardian t g) aid)
                    !touched);
              resolve_handle t h
                (match verdict with `Committed -> Committed | `Aborted -> Aborted))
    | (g, work) :: rest ->
        let target = guardian t g in
        if stale () || not (Guardian.is_up target) then abort_all ()
        else begin
          touch g;
          Guardian.note_participation target aid;
          match work (Guardian.heap target) aid with
          | () ->
              if t.early_prepare then Guardian.early_prepare target aid;
              exec rest
          | exception Heap.Lock_conflict _ ->
              Rs_obs.Metrics.incr m_lock_conflicts;
              abort_all ()
          | exception Heap.Wait_timeout _ ->
              Rs_obs.Metrics.incr m_wait_aborts;
              abort_all ()
          | exception Abort_action -> abort_all ()
        end
  in
  run_fiber t (fun () -> exec steps);
  h

(* The unified committed-read entry point: one read-only action on [gid],
   returning [f]'s value directly — the underlying handle resolves
   synchronously (see the [Read_only] branch of [submit]), so there is
   nothing to await. *)
let read_only t gid f =
  let result = ref None in
  let h =
    submit ~mode:Read_only t ~coordinator:gid
      ~steps:
        [
          ( gid,
            fun heap aid ->
              let s =
                match Heap.read_only_of heap aid with Some s -> s | None -> assert false
              in
              result := Some (f { ro_heap = heap; ro_snapshot = s }) );
        ]
  in
  match !result with
  | Some v -> v
  | None ->
      (* [f] raised [Abort_action]; the handle already resolved Aborted. *)
      ignore (h : Action.handle);
      raise Abort_action

let ro_read ctx a = Heap.snapshot_read ctx.ro_heap ctx.ro_snapshot a
let ro_var ctx name = Heap.snapshot_var ctx.ro_heap ctx.ro_snapshot name

let outcome h = Action.outcome h

let await ?(limit = 10_000.0) t h =
  match Action.outcome h with
  | Some o -> o
  | None ->
      let deadline = Sim.now t.sim +. limit in
      let rec go () =
        match Action.outcome h with
        | Some o -> o
        | None ->
            if Sim.now t.sim > deadline then
              failwith
                (Format.asprintf "System.await: %a unresolved after %.0f time units" Aid.pp
                   (Action.aid h) limit)
            else if Sim.step t.sim then go ()
            else
              failwith
                (Format.asprintf "System.await: %a never resolved (simulator drained)" Aid.pp
                   (Action.aid h))
      in
      go ()

let in_flight t gid = t.in_flight.(Gid.to_int gid)

let sorted_parked t pred =
  Aid.Tbl.fold (fun _ p acc -> if pred p then p :: acc else acc) t.parked []
  |> List.sort (fun a b -> Aid.compare a.p_aid b.p_aid)

let crash t gid =
  Guardian.crash (guardian t gid);
  t.epochs.(Gid.to_int gid) <- t.epochs.(Gid.to_int gid) + 1;
  (* Waiters parked on the discarded heap will never be woken: fail their
     waits so the actions abort and release locks held elsewhere. Sorted
     for determinism (table order is hash order). *)
  let victims = sorted_parked t (fun p -> Gid.equal p.p_gid gid) in
  List.iter
    (fun p ->
      Aid.Tbl.remove t.parked p.p_aid;
      Effect.Deep.continue p.p_k false)
    victims;
  install_runtime t gid

(* Resolve in-flight handles [coordinator] coordinated: clients survive
   the crash (they are outside the fault model), so the handle is the one
   place the verdict can land. The durable committing record is the commit
   point; an action without one died with the volatile state and is
   presumed aborted (§2.2.3). Parked fibers are skipped — they are still
   executing steps and will resolve through their own 2PC run. Used by
   [restart] and, with the standby's recovered commit table, by the
   replication failover driver after a promotion. *)
let resolve_orphans t ~coordinator ~decided =
  let orphans =
    Aid.Tbl.fold
      (fun aid h acc ->
        if Gid.equal (Aid.coordinator aid) coordinator && not (Aid.Tbl.mem t.parked aid) then
          (aid, h) :: acc
        else acc)
      t.handles []
    |> List.sort (fun (a, _) (b, _) -> Aid.compare a b)
  in
  List.iter
    (fun (aid, h) ->
      resolve_handle t h (if Aid.Set.mem aid decided then Committed else Aborted))
    orphans;
  List.length orphans

let decided_of_info info =
  List.fold_left
    (fun acc (aid, state) ->
      match state with
      | Core.Tables.Ct.Committing _ | Core.Tables.Ct.Done -> Aid.Set.add aid acc)
    Aid.Set.empty info.Core.Tables.Recovery_info.ct

let restart t gid =
  let report = Guardian.restart (guardian t gid) in
  install_runtime t gid;
  let decided = decided_of_info report.Core.Tables.Recovery_report.info in
  ignore (resolve_orphans t ~coordinator:gid ~decided);
  report

let reinstall_runtime t gid = install_runtime t gid

let epoch t gid = t.epochs.(Gid.to_int gid)

let partition t gid = Net.set_up t.net gid false
let heal t gid = Net.set_up t.net gid true
let run ?until t = Sim.run ?until t.sim

let quiesce ?(limit = 10_000.0) t =
  let deadline = Sim.now t.sim +. limit in
  ignore (Sim.run ~until:deadline t.sim);
  if Sim.pending t.sim > 0 then
    failwith
      (Printf.sprintf "System.quiesce: %d events still pending after %.0f time units"
         (Sim.pending t.sim) limit)
