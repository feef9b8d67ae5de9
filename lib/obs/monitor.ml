(* Spec monitors: incremental folds over every emitted trace event. *)

type violation = { monitor : string; detail : string }

let pp_violation fmt v = Format.fprintf fmt "[%s] %s" v.monitor v.detail

(* One monitor's fold: [step seq ev] consumes the next event, [verdict]
   reads the state without changing it. The live folds are fed by
   [Trace.emit]; the [_on] variants run a fresh one over a list. *)
type fold = { step : int -> Trace.event -> unit; verdict : unit -> violation list }

(* A monitor's violations so far: how to add one, and the list. *)
let reporter monitor =
  let found = ref [] in
  ((fun detail -> found := { monitor; detail } :: !found), fun () -> List.rev !found)

let find tbl k ~default = Option.value (Hashtbl.find_opt tbl k) ~default

(* [tbl]'s entry under [k], made on first use. *)
let entry tbl k make =
  match Hashtbl.find_opt tbl k with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.replace tbl k v;
      v

(* commit-implies-durable: every [Action_commit {gid}] must be followed by a
   [Log_force] on that guardian's log — the commit record is appended and
   forced only after the hook fires, so a quiesced run always shows the
   covering force later. A later [Crash {gid}] forgives a missing force:
   the commit died unacknowledged with the guardian. State: the commits
   still waiting for a covering force. *)
let commit_implies_durable_fold () =
  let waiting : (string, (string * int) list) Hashtbl.t = Hashtbl.create 16 in
  let step seq = function
    | Trace.Action_commit { gid; aid } ->
        Hashtbl.replace waiting gid ((aid, seq) :: find waiting gid ~default:[])
    | Trace.Log_force { log = gid; _ } | Trace.Crash { gid } -> Hashtbl.remove waiting gid
    | _ -> ()
  in
  let report (seq, aid, gid) =
    let detail = Printf.sprintf "commit of %s on %s (seq %d) has no covering log force" in
    { monitor = "commit-implies-durable"; detail = detail aid gid seq }
  in
  let verdict () =
    Hashtbl.fold (fun gid cs acc -> List.map (fun (a, seq) -> (seq, a, gid)) cs @ acc) waiting []
    |> List.sort compare |> List.map report
  in
  { step; verdict }

(* repl-ship-order: the replication stream must respect the epoch fence —
   per (src,dst) pair, shipped epochs never go backward, and per standby the
   applied epochs never go backward either. The applied watermark must be
   monotone within an epoch, except across a standby crash or a reset ship
   (base 0 re-seeds the replica after a housekeeping log switch). *)
let repl_ship_order_fold () =
  let ship_epoch : (string * string, int) Hashtbl.t = Hashtbl.create 8 in
  (* gid -> (epoch, watermark) *)
  let apply_state : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  (* gid -> watermark the replica had reached when a reset ship (or crash)
     granted forgiveness: the re-seed replays the stream from base 0, so
     applies may run below that mark, over several applies, until the
     watermark re-passes it. *)
  let reset_ok : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let forgive gid =
    let w = match Hashtbl.find_opt apply_state gid with Some (_, w) -> w | None -> 0 in
    Hashtbl.replace reset_ok gid w
  in
  let add, verdict = reporter "repl-ship-order" in
  let bad fmt = Printf.ksprintf add fmt in
  let step seq = function
    | Trace.Repl_ship { src; dst; epoch; base; _ } ->
        (match Hashtbl.find_opt ship_epoch (src, dst) with
        | Some e when epoch < e ->
            bad "ship %s->%s epoch went backward %d -> %d (seq %d)" src dst e epoch seq
        | _ -> ());
        Hashtbl.replace ship_epoch (src, dst) epoch;
        if base = 0 then forgive dst
    | Trace.Crash { gid } -> forgive gid
    | Trace.Repl_apply { gid; epoch; watermark; _ } ->
        (match Hashtbl.find_opt apply_state gid with
        | Some (e, _) when epoch < e ->
            bad "apply on %s epoch went backward %d -> %d (seq %d)" gid e epoch seq
        | Some (e, w) when epoch = e && watermark < w && not (Hashtbl.mem reset_ok gid) ->
            bad "apply watermark on %s went backward %d -> %d (seq %d)" gid w watermark seq
        | _ -> ());
        (match Hashtbl.find_opt reset_ok gid with
        | Some threshold when watermark >= threshold -> Hashtbl.remove reset_ok gid
        | Some _ | None -> ());
        Hashtbl.replace apply_state gid (epoch, watermark)
    | _ -> ()
  in
  { step; verdict }

(* log-monotonicity: within one labeled log stream, append addresses are
   strictly increasing. [Log_switch] on a label forgives — the stream behind
   it legitimately restarted (fresh pending log, housekeeping switch,
   relabel). [Crash {gid}] forgives every stream the guardian owned ([gid]
   and [gid:...]): recovery may rebuild from scratch. State: the last
   address per stream. *)
let log_monotonic_fold () =
  let last : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let owned_by gid label =
    label = gid
    || String.length label > String.length gid
       && String.sub label 0 (String.length gid + 1) = gid ^ ":"
  in
  let add, verdict = reporter "log-monotonicity" in
  let step seq = function
    | Trace.Log_write { log; addr; _ } when log <> "" ->
        (match Hashtbl.find_opt last log with
        | Some prev when addr <= prev ->
            Printf.ksprintf add "log %s address went backward %d -> %d (seq %d)" log prev addr seq
        | _ -> ());
        Hashtbl.replace last log addr
    | Trace.Log_switch { log } -> Hashtbl.remove last log
    | Trace.Crash { gid } ->
        Hashtbl.fold (fun label _ acc -> if owned_by gid label then label :: acc else acc) last []
        |> List.iter (Hashtbl.remove last)
    | _ -> ()
  in
  { step; verdict }

(* lock-legality: the Argus lock model over [Lock_*] events, per labeled
   heap (label "" is skipped; mutexes never emit acquire/release). Two
   rules at every [Lock_acquire]:
   - {e compatibility}: a write grant admits no other holder; a read grant
     admits no write holder. The grantee's own read lock is exempt
     (sole-reader in-place upgrade, idempotent re-acquire).
   - {e no barging}: a grant that did not come off the wait queue must not
     overtake another action's queued write-waiter (readers may batch past
     queued readers; writers and upgraders queue at the front).
   [Lock_cancel] removes the waiter before successors are served.
   [Crash {gid}] and [Heap_label {heap}] clear the heap's state: the heap
   was discarded or replaced. Releases and cancels for unknown parties are
   ignored: recovery re-grants write locks silently. State: per heap and
   object, the holders and the queued (aid, write) waiters; an object goes
   once both lists are empty. *)
type lock_obj = {
  mutable holders : (string * Trace.lock_kind) list;
  mutable waiters : (string * bool) list;
}

let lock_legal_fold () =
  let heaps : (string, (int, lock_obj) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let obj heap addr =
    entry (entry heaps heap (fun () -> Hashtbl.create 64)) addr (fun () ->
        { holders = []; waiters = [] })
  in
  (* Update a known object; forget it once nothing is held or queued. *)
  let update heap addr f =
    let objs = entry heaps heap (fun () -> Hashtbl.create 64) in
    match Hashtbl.find_opt objs addr with
    | Some o ->
        f o;
        if o.holders = [] && o.waiters = [] then Hashtbl.remove objs addr
    | None -> ()
  in
  let without aid l = List.filter (fun (a, _) -> a <> aid) l in
  let add, verdict = reporter "lock-legality" in
  let bad fmt = Printf.ksprintf add fmt in
  let step seq = function
    | Trace.Lock_wait { heap; aid; addr; write; _ } when heap <> "" ->
        let o = obj heap addr in
        o.waiters <- o.waiters @ [ (aid, write) ]
    | Trace.Lock_cancel { heap; aid; addr } ->
        update heap addr (fun o -> o.waiters <- without aid o.waiters)
    | Trace.Lock_release { heap; aid; addr } ->
        update heap addr (fun o -> o.holders <- without aid o.holders)
    | Trace.Crash { gid = heap } | Trace.Heap_label { heap } -> Hashtbl.remove heaps heap
    | Trace.Lock_acquire { heap; aid; addr; kind } when heap <> "" ->
        let o = obj heap addr in
        let hs = o.holders and ws = o.waiters in
        let others = without aid hs in
        let self_upgrade = kind = Trace.Write && List.mem (aid, Trace.Read) hs in
        (match (kind, List.find_opt (fun (_, k) -> k = Trace.Write) others) with
        | Trace.Write, _ when others <> [] ->
            bad "%s: write grant to %s on addr %d overlaps holder(s) %s (seq %d)" heap aid addr
              (String.concat "," (List.map fst others))
              seq
        | Trace.Read, Some (w, _) ->
            bad "%s: read grant to %s on addr %d overlaps write holder %s (seq %d)" heap aid addr w
              seq
        | _ -> ());
        (match List.find_opt (fun (a, w) -> a <> aid && w) ws with
        | Some (w, _) when (not self_upgrade) && not (List.mem_assoc aid ws) ->
            bad "%s: direct %s grant to %s on addr %d barged past queued writer %s (seq %d)" heap
              (match kind with Trace.Read -> "read" | Trace.Write -> "write")
              aid addr w seq
        | _ -> ());
        o.waiters <- without aid ws;
        o.holders <-
          (match kind with
          | Trace.Write -> (aid, Trace.Write) :: others
          | Trace.Read -> if List.mem (aid, Trace.Read) hs then hs else (aid, Trace.Read) :: hs)
    | _ -> ()
  in
  { step; verdict }

(* handle-liveness: every [Handle_submit] is eventually matched by a
   [Handle_resolve] — the funnel all submitted actions pass through,
   including presumed-abort orphan resolution after a coordinator restart.
   If any crashed guardian never came back (no later [Restart] and no
   [Repl_promote] naming it), its in-flight handles legitimately dangle and
   the check abstains. A guardian comes back through a cold restart or by
   adopting a promoted standby image; both emit [Restart], so the heir of
   a promotion leaves the down set too. [Repl_promote]'s [for_] covers the
   dead primary, whose address the heir took over. State: the open
   handles and the guardians down. *)
let handle_liveness_fold () =
  let pending : (string, string * int) Hashtbl.t = Hashtbl.create 64 in
  let down : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let step seq = function
    | Trace.Handle_submit { gid; aid } -> Hashtbl.replace pending aid (gid, seq)
    | Trace.Handle_resolve { aid; _ } -> Hashtbl.remove pending aid
    | Trace.Crash { gid } -> Hashtbl.replace down gid ()
    | Trace.Restart { gid; _ } | Trace.Repl_promote { for_ = gid; _ } -> Hashtbl.remove down gid
    | _ -> ()
  in
  let report aid (gid, seq) acc =
    let detail = Printf.sprintf "handle %s on %s (seq %d) never resolved" aid gid seq in
    { monitor = "handle-liveness"; detail } :: acc
  in
  let verdict () =
    if Hashtbl.length down > 0 then [] else List.sort compare (Hashtbl.fold report pending [])
  in
  { step; verdict }

(* snapshot-legality: every MVCC read must return the version a serial
   order at its stamp would — over [Version_install]/[Snap_read] events,
   per labeled heap (bare heaps, label "", are skipped). Two rules at each
   [Snap_read {stamp; vstamp}] on (heap, addr):
   - no version from the future: [vstamp <= stamp];
   - no {e skipped} install: no earlier [Version_install] on the same
     object satisfies [vstamp < install <= stamp] — that newer version,
     still at or before the snapshot stamp, is what a serial execution
     paused at the stamp would show.
   [Crash {gid}] and [Heap_label {heap}] clear the heap's history: stamps
   are volatile and a fresh heap restarts its commit sequence at zero.
   State: per heap, the open snapshots' stamps; per object, the installs
   newer than the oldest open snapshot plus the newest one at or below it
   (only the newest when none is open). Reads come from open snapshots and
   installs carry rising stamps, so a dropped install is only ever skipped
   together with the kept one above it. *)
type snap_heap = {
  mutable opened : int list; (* stamps of the open snapshots *)
  installs : (int, int list) Hashtbl.t; (* addr -> stamps, newest first *)
}

let snapshot_legal_fold () =
  let heaps : (string, snap_heap) Hashtbl.t = Hashtbl.create 8 in
  let heap_of heap = entry heaps heap (fun () -> { opened = []; installs = Hashtbl.create 64 }) in
  let installs heap addr =
    match Hashtbl.find_opt heaps heap with Some h -> find h.installs addr ~default:[] | None -> []
  in
  let rec prune oldest = function
    | st :: rest when st > oldest -> st :: prune oldest rest
    | st :: _ -> [ st ]
    | [] -> []
  in
  let rec close stamp = function
    | s :: rest -> if s = stamp then rest else s :: close stamp rest
    | [] -> []
  in
  let add, verdict = reporter "snapshot-legality" in
  let bad fmt = Printf.ksprintf add fmt in
  let step seq = function
    | Trace.Snap_open { heap; stamp } when heap <> "" ->
        let h = heap_of heap in
        h.opened <- stamp :: h.opened
    | Trace.Snap_close { heap; stamp } ->
        Option.iter (fun h -> h.opened <- close stamp h.opened) (Hashtbl.find_opt heaps heap)
    | Trace.Version_install { heap; addr; stamp; _ } when heap <> "" ->
        let h = heap_of heap in
        let oldest = List.fold_left min max_int h.opened in
        Hashtbl.replace h.installs addr (prune oldest (stamp :: installs heap addr))
    | Trace.Crash { gid = heap } | Trace.Heap_label { heap } -> Hashtbl.remove heaps heap
    | Trace.Snap_read { heap; addr; stamp; vstamp } when heap <> "" -> (
        if vstamp > stamp then
          bad "%s: snap read of addr %d at stamp %d returned future version %d (seq %d)" heap addr
            stamp vstamp seq
        else
          match List.find_opt (fun st -> vstamp < st && st <= stamp) (installs heap addr) with
          | Some newer ->
              bad
                "%s: snap read of addr %d at stamp %d returned version %d, skipping install %d \
                 (seq %d)"
                heap addr stamp vstamp newer seq
          | None -> ())
    | _ -> ()
  in
  { step; verdict }

let run make records =
  let m = make () in
  List.iter (fun (r : Trace.record) -> m.step r.seq r.event) records;
  m.verdict ()

let commit_implies_durable_on = run commit_implies_durable_fold
let repl_ship_order_on = run repl_ship_order_fold
let log_monotonic_on = run log_monotonic_fold
let lock_legal_on = run lock_legal_fold
let handle_liveness_on = run handle_liveness_fold
let snapshot_legal_on = run snapshot_legal_fold

(* The live folds, in report order: fed every emitted event, and replaced
   by fresh ones on [Trace.clear]. *)
let makers =
  [| commit_implies_durable_fold; repl_ship_order_fold; log_monotonic_fold; lock_legal_fold;
     handle_liveness_fold; snapshot_legal_fold |]

let live = Array.map (fun make -> make ()) makers

let () =
  Trace.subscribe
    ~on_event:(fun seq ev ->
      for i = 0 to Array.length live - 1 do
        live.(i).step seq ev
      done)
    ~on_clear:(fun () -> Array.iteri (fun i make -> live.(i) <- make ()) makers)

let lock_legal () = live.(3).verdict ()
let handle_liveness () = live.(4).verdict ()
let snapshot_legal () = live.(5).verdict ()
let check () = List.concat_map (fun m -> m.verdict ()) (Array.to_list live)

let assert_ok ~where () =
  match check () with
  | [] -> ()
  | vs ->
      let buf = Buffer.create 256 in
      List.iter (fun v -> Buffer.add_string buf (Format.asprintf "  %a\n" pp_violation v)) vs;
      failwith
        (Printf.sprintf "spec monitors failed (%s): %d violation(s)\n%s" where (List.length vs)
           (Buffer.contents buf))
