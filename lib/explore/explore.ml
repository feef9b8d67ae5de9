module Scheme = Rs_workload.Scheme
module Synth = Rs_workload.Synth
module Store = Rs_storage.Stable_store
module Disk = Rs_storage.Disk
module Slog = Rs_slog.Stable_log
module Log_dir = Rs_slog.Log_dir
module System = Rs_guardian.System
module Guardian = Rs_guardian.Guardian
module Directory = Rs_dir.Directory
module Pair = Rs_repl.Repl.Pair
module Load = Rs_load.Load
module Heap = Rs_objstore.Heap
module Value = Rs_objstore.Value
module Sim = Rs_sim.Sim
module Net = Rs_sim.Net
module Trace = Rs_obs.Trace
module Monitor = Rs_obs.Monitor
module Gid = Rs_util.Gid

type config = { seed : int; budget : int; max_depth : int }

let default_config = { seed = 11; budget = 200; max_depth = 2 }

type counterexample = { schedule : Fault.schedule; violation : Oracle.violation }

type outcome = {
  target : string;
  points : int;
  schedules : int;
  counterexample : counterexample option;
}

let violation oracle fmt = Printf.ksprintf (fun detail -> { Oracle.oracle; detail }) fmt

(* No violation when [ok], else the one [violation oracle fmt ...]. *)
let expect ok oracle fmt =
  Printf.ksprintf (fun detail -> if ok then [] else [ { Oracle.oracle; detail } ]) fmt

let opt_int = function Some v -> string_of_int v | None -> "-"

(* ------------------------------------------------------------------ *)
(* The world a schedule runs in: crash, restart, judge.               *)

type client = { mutable issued : int; mutable resolved : int; mutable committed : int }

type world = {
  sys : System.t;
  dir : Directory.t option;
  pair : Pair.t option;
  load : Load.t option;
  client : client;
}

let world ?dir ?pair ?load sys =
  { sys; dir; pair; load; client = { issued = 0; resolved = 0; committed = 0 } }

let pair_of w gid =
  match w.pair with
  | Some p when Gid.equal gid (Pair.primary p) || Gid.equal gid (Pair.standby p) -> Some p
  | Some _ | None -> None

let down w gid =
  match (pair_of w gid, w.dir) with
  | Some p, _ -> Pair.crash p gid
  | None, Some d -> Directory.crash d gid
  | None, None -> System.crash w.sys gid

let up w gid =
  match (pair_of w gid, w.dir) with
  | Some p, _ when Gid.equal gid (Pair.standby p) ->
      Pair.restart_standby p;
      `Restarted
  | Some p, _ when Pair.promotable p ->
      ignore (Pair.promote p);
      `Promoted
  | Some p, _ ->
      (* Overlapping faults left the replica stale or missing: the lost
         tail lives only in the dead primary's own log, so fall back to a
         cold restart instead of promoting away acked commits. *)
      ignore (Pair.restart_primary p);
      `Restarted
  | None, Some d ->
      ignore (Directory.restart d gid);
      `Restarted
  | None, None ->
      ignore (System.restart w.sys gid);
      `Restarted

type subject = World of world | Single of Scheme.t

let fsck_guardian g =
  let ldir = Guardian.log_dir g in
  let name = Gid.to_string (Guardian.gid g) in
  Oracle.check_log (Some (Log_dir.current ldir))
  @ Oracle.check_segments (Some ldir)
  @ Oracle.check_stores (Log_dir.stores ldir)
  |> List.map (fun (v : Oracle.violation) -> { v with detail = name ^ ": " ^ v.detail })

let judge subject =
  let own =
    match subject with
    | Single scheme -> Oracle.check_scheme scheme
    | World w ->
        let unresolved, committed =
          match w.load with
          | Some l -> (Load.unresolved l, (Load.stats l).Load.committed)
          | None -> (w.client.issued - w.client.resolved, w.client.committed)
        in
        List.concat
          [
            expect (unresolved = 0) "liveness" "%d handles unresolved after the drain" unresolved;
            expect (committed > 0) "progress" "no action ever committed";
            (match Option.map Load.check w.load with
            | Some (Error e) -> [ violation "consistency" "%s" e ]
            | Some (Ok ()) | None -> []);
            List.concat_map fsck_guardian (List.filter Guardian.is_up (System.guardians w.sys));
            (match Option.map Directory.verify_unique_uids w.dir with
            | Some (Error e) -> [ violation "uid-unique" "%s" e ]
            | Some (Ok ()) | None -> []);
          ]
  in
  own
  @ List.map
      (fun (v : Monitor.violation) -> { Oracle.oracle = "monitor:" ^ v.monitor; detail = v.detail })
      (Monitor.check ())

(* ------------------------------------------------------------------ *)
(* Generic driver: run schedules until a violation, then shrink it.   *)

(* Greedy delta-debugging: drop any slot whose removal still fails,
   repeat until no single removal preserves the failure. *)
let shrink run schedule v0 =
  let rec go sched v =
    let rec try_at i =
      if i >= List.length sched then (sched, v)
      else
        let cand = List.filteri (fun j _ -> j <> i) sched in
        match run cand with v' :: _ -> go cand v' | [] -> try_at (i + 1)
    in
    try_at 0
  in
  go schedule v0

(* Baseline first, then every depth-1 schedule in census order, then
   depth-2 pairs (strictly increasing op index) in seeded-shuffle order
   so a budget prefix samples the pair space evenly. *)
let enumerate cfg points =
  let singles = List.map (fun p -> [ p ]) points in
  let pairs =
    if cfg.max_depth < 2 then []
    else begin
      let arr =
        Array.of_list
          (List.concat_map
             (fun p1 ->
               List.filter_map
                 (fun p2 -> if p1.Fault.op < p2.Fault.op then Some [ p1; p2 ] else None)
                 points)
             points)
      in
      Rs_util.Rng.shuffle (Rs_util.Rng.create (cfg.seed lxor 0x9e3779b9)) arr;
      Array.to_list arr
    end
  in
  List.filteri (fun i _ -> i < cfg.budget) (([] : Fault.schedule) :: singles @ pairs)

(* A schedule body stops at its first violation by raising it. *)
exception Found of Oracle.violation

let fail_on = function [] -> () | v :: _ -> raise (Found v)

(* A target's row: census its fault points, then run its enumerated
   schedules, each in a fresh world on a freshly cleared trace, so the
   spec monitors judge that run alone. Every world stamps the trace with
   its own simulator's clock; the default clock is back when the row's
   exploration returns. *)
let row target ~census ~run =
  ( target,
    fun cfg ->
      Fun.protect ~finally:Trace.clear_clock @@ fun () ->
      let points = census cfg in
      let runs = ref 0 in
      let run sched =
        Trace.clear ();
        Trace.emit (Trace.Explore_schedule { id = !runs; points = List.length sched });
        incr runs;
        match run cfg sched with
        | vs -> vs
        | exception Found v -> [ v ]
        | exception exn -> [ violation "exception" "%s" (Printexc.to_string exn) ]
      in
      let outcome schedules counterexample =
        { target; points = List.length points; schedules; counterexample }
      in
      let rec go id = function
        | [] -> outcome id None
        | sched :: rest -> (
            match run sched with
            | [] -> go (id + 1) rest
            | v :: _ ->
                Trace.emit
                  (Trace.Explore_violation
                     { oracle = v.Oracle.oracle; schedule = Fault.schedule_to_string sched });
                let shrunk, v' = shrink run sched v in
                Trace.emit
                  (Trace.Explore_shrunk
                     { points = List.length shrunk; schedule = Fault.schedule_to_string shrunk });
                outcome (id + 1) (Some { schedule = shrunk; violation = v' }))
      in
      go 0 (enumerate cfg points) )

(* At most 20 event boundaries, evenly spread over [n] events. *)
let spread n =
  let cap = min n 20 in
  List.init cap (fun i -> 1 + (i * n / cap)) |> List.sort_uniq compare

(* Run up to [upto] simulator events; returns how many ran. *)
let step_all ?(upto = max_int) sim =
  let n = ref 0 in
  while !n < upto && Sim.step sim do
    incr n
  done;
  !n

(* ------------------------------------------------------------------ *)
(* Single-guardian targets: one phase loop over a Synth facade.       *)

(* One phase of a single-guardian scenario. [run] does the phase's
   synchronous work and returns the simulator whose events finish it, if
   any; [slice] is a housekeeping phase's stage one alone, where a
   [Hk_boundary] crash lands. *)
type phase = { run : Synth.t -> Sim.t option; slice : (Synth.t -> unit) option }

(* One fresh run of a single-guardian target: its seeded facade, its
   phases, its oracle over recovered counters (which resyncs the target's
   model to them), and the closing probe run before the final crash. *)
type scenario = {
  synth : Synth.t;
  phases : phase list;
  oracle : int array -> Oracle.violation list;
  probe : Synth.t -> unit;
}

let finish t phase = Option.iter (fun sim -> ignore (step_all sim)) (phase.run t)

(* ---- census ------------------------------------------------------ *)

let seg_stages = [| Fault.Seg_alloc; Fault.Seg_link; Fault.Seg_retire |]

let seg_stage_index : Slog.segment_event -> int = function
  | Slog.Seg_alloc _ -> 0
  | Slog.Seg_link -> 1
  | Slog.Seg_retire _ -> 2

(* One clean run of the scenario with the process-wide census hooks
   installed: per phase, how many physical page writes land on each
   stable store (both disk replicas counted together, matching what
   [Store.arm_crash ~after_writes] counts), how many log forces complete,
   how many segment events of each stage fire, and how many simulator
   events it runs. Segments allocated mid-run are invisible to the write
   census (their disks are not in the start-of-run store list) — their
   crash windows are covered by the segment-boundary points.

   Per-phase point order: housekeeping boundary, segment boundaries,
   force boundaries, the store-write sweep, then event boundaries.
   Rarer, structural boundaries come first so a modest budget's depth-1
   prefix reaches them before the long tail of store writes. *)
let census sc =
  let stores = Scheme.stable_stores (Synth.scheme sc.synth) in
  let disk_of =
    List.concat
      (List.mapi
         (fun i s ->
           let a, b = Store.disks s in
           [ (a, i); (b, i) ])
         stores)
  in
  let n = List.length sc.phases in
  let writes = Array.init n (fun _ -> Array.make (List.length stores) 0) in
  let forces = Array.make n 0 in
  let segs = Array.init n (fun _ -> Array.make (Array.length seg_stages) 0) in
  let events = Array.make n 0 in
  let cur = ref (-1) in
  Disk.set_write_hook
    (Some
       (fun d _page ->
         if !cur >= 0 then
           match List.find_opt (fun (d', _) -> d' == d) disk_of with
           | Some (_, i) -> writes.(!cur).(i) <- writes.(!cur).(i) + 1
           | None -> ()));
  Slog.set_force_hook (Some (fun () -> if !cur >= 0 then forces.(!cur) <- forces.(!cur) + 1));
  Slog.set_segment_hook
    (Some
       (fun ev ->
         if !cur >= 0 then
           let s = seg_stage_index ev in
           segs.(!cur).(s) <- segs.(!cur).(s) + 1));
  Fun.protect
    ~finally:(fun () ->
      Disk.set_write_hook None;
      Slog.set_force_hook None;
      Slog.set_segment_hook None)
    (fun () ->
      List.iteri
        (fun j phase ->
          cur := j;
          events.(j) <- Option.fold ~none:0 ~some:(fun sim -> step_all sim) (phase.run sc.synth))
        sc.phases);
  List.concat
    (List.mapi
       (fun j phase ->
         let at point = { Fault.op = j; point } in
         let per counts mk =
           List.concat (List.mapi (fun s n -> List.init n (mk s)) (Array.to_list counts))
         in
         (if phase.slice <> None then [ at Fault.Hk_boundary ] else [])
         @ per segs.(j) (fun s k ->
               at (Fault.Segment_boundary { stage = seg_stages.(s); nth = k + 1 }))
         @ List.init forces.(j) (fun k -> at (Fault.Force_boundary { nth = k + 1 }))
         @ per writes.(j) (fun s k -> at (Fault.Store_write { store = s; after_writes = k }))
         @ List.map (fun nth -> at (Fault.Event_boundary { nth })) (spread events.(j)))
       sc.phases)

(* ---- one schedule ------------------------------------------------ *)

(* Run [phase] over [t] with [point] armed; true iff the crash fired. A
   [Hk_boundary] (censused only on a housekeeping phase) always crashes,
   after the phase's first slice alone; an [Event_boundary] crashes after
   that many of the phase's simulator events, if it runs that many. *)
let inject t phase point =
  let crashed f = match f () with () -> false | exception Disk.Crash -> true in
  let armed disarm = Fun.protect ~finally:disarm (fun () -> crashed (fun () -> finish t phase)) in
  let nth_hook nth =
    let count = ref 0 in
    fun () ->
      incr count;
      if !count = nth then raise Disk.Crash
  in
  match point with
  | Fault.Store_write { store; after_writes } ->
      let stores = Scheme.stable_stores (Synth.scheme t) in
      Option.iter (fun s -> Store.arm_crash s ~after_writes) (List.nth_opt stores store);
      armed (fun () -> List.iter Store.clear_crash stores)
  | Fault.Force_boundary { nth } ->
      Slog.set_force_hook (Some (nth_hook nth));
      armed (fun () -> Slog.set_force_hook None)
  | Fault.Segment_boundary { stage; nth } ->
      let hit = nth_hook nth in
      Slog.set_segment_hook
        (Some (fun ev -> if seg_stages.(seg_stage_index ev) = stage then hit ()));
      armed (fun () -> Slog.set_segment_hook None)
  | Fault.Hk_boundary ->
      Option.get phase.slice t;
      true
  | Fault.Event_boundary { nth } ->
      crashed (fun () ->
          Option.iter
            (fun sim -> if step_all ~upto:nth sim = nth then raise Disk.Crash)
            (phase.run t))
  | Fault.Msg_crash _ | Fault.Msg_drop _ | Fault.Msg_delay _ -> armed ignore

(* Crash recovery plus in-doubt resolution (presumed abort, §2.2.3),
   then the scenario's oracle on the recovered counters and the judge. *)
let crash_recover sc t =
  let t, info = Synth.crash_recover t in
  let scheme = Synth.scheme t in
  List.iter (Scheme.abort scheme) (Core.Tables.Recovery_report.prepared_actions info);
  match Synth.counters t with
  | actual ->
      fail_on (sc.oracle actual);
      fail_on (judge (Single scheme));
      t
  | exception Failure msg ->
      (* objects vanished wholesale — committed state did not survive *)
      raise (Found (violation "durability" "recovered state incomplete: %s" msg))

(* Phase [j] runs under the slot scheduled at [j], recovering when its
   crash fires. The closing probe then commits once more and a crash
   that interrupts nothing must keep it: this is what catches a force
   that lies about stability (e.g. the seeded skip-header mutation). *)
let run_phases sc sched =
  let t = ref sc.synth in
  List.iteri
    (fun j phase ->
      match List.find_opt (fun s -> s.Fault.op = j) sched with
      | None -> finish !t phase
      | Some { Fault.point; _ } -> if inject !t phase point then t := crash_recover sc !t)
    sc.phases;
  sc.probe !t;
  ignore (crash_recover sc !t);
  []

let single name scenario =
  row name ~census:(fun cfg -> census (scenario cfg)) ~run:(fun cfg -> run_phases (scenario cfg))

(* ---- the schemes: a Synth workload of commits, aborts, housekeeping *)

type op =
  | Act of { indices : int list; outcome : [ `Commit | `Abort ] }
  | Housekeep of Scheme.technique

let base_acts =
  [
    Act { indices = [ 0; 3 ]; outcome = `Commit };
    Act { indices = [ 1; 2 ]; outcome = `Abort };
    Act { indices = [ 2; 4 ]; outcome = `Commit };
  ]

let tail_act = Act { indices = [ 0; 5 ]; outcome = `Commit }

(* The serial state after [op] completes, given the state before it. *)
let post_state expected op =
  match op with
  | Act { indices; outcome = `Commit } ->
      let a = Array.copy expected in
      List.iter (fun i -> a.(i) <- a.(i) + 1) indices;
      a
  | Act { outcome = `Abort; _ } | Housekeep _ -> Array.copy expected

(* One phase per op over a seeded random history. The oracle: the
   recovered counters sit on a serial state — [allowed] lists those a
   crash may land on right now, [expected] is the state once the running
   phase completes. *)
let scheme make ops cfg =
  let t = Synth.create ~seed:cfg.seed ~scheme:(make ()) ~n_objects:8 () in
  Synth.run_random_actions t ~n:4 ~objects_per_action:2 ~abort_rate:0.25 ();
  let expected = ref (Synth.counters t) and allowed = ref [] in
  let phase op =
    let run t =
      let post = post_state !expected op in
      allowed := [ !expected; post ];
      (match op with
      | Act { indices; outcome } -> Synth.run_action t ~indices ~outcome
      | Housekeep tech -> Scheme.housekeep (Synth.scheme t) tech);
      expected := post;
      None
    in
    let slice =
      match op with
      | Housekeep tech ->
          (* stage one only: the half-built spare log must vanish *)
          Some
            (fun t ->
              allowed := [ !expected ];
              Scheme.housekeep_first_slice (Synth.scheme t) tech)
      | Act _ -> None
    in
    { run; slice }
  in
  let oracle actual =
    let vs = Oracle.check_counters ~oracle:"atomicity" ~allowed:!allowed ~actual in
    expected := actual;
    vs
  in
  let probe t =
    let indices = [ 1; 4 ] in
    allowed := [ post_state !expected (Act { indices; outcome = `Commit }) ];
    Synth.run_action t ~indices ~outcome:`Commit
  in
  { synth = t; phases = List.map phase ops; oracle; probe }

(* ---- group: concurrent clients over a windowed hybrid ------------- *)

(* Three clients, each owning an object pair (2c, 2c+1) incremented
   together, run chained actions on a virtual-time simulator while the
   hybrid scheme batches forces under a group-commit window — an
   e8-style workload. Fault points cover every store write, every
   physical force (including one raised *inside* a flush, after the
   waiters were cleared but before the force completed) and every
   simulator event boundary, which lands crashes between a token's
   enqueue and its covering flush. The oracle brackets each recovered
   pair between the client's durably-acked floor and issued ceiling:
   below the floor a confirmed commit was lost, above the ceiling a
   phantom effect appeared, and a split pair breaks atomicity. *)
let group cfg =
  let module Fsched = Rs_slog.Force_scheduler in
  let n_clients = 3 and window = 2.0 in
  (* Actions per client per phase; client 0's second action of phase 0
     aborts, so abort records ride the batches too. *)
  let plan = [| [| 2; 2; 2 |]; [| 1; 1; 1 |] |] in
  let aborts ~phase ~client ~k = phase = 0 && client = 0 && k = 1 in
  let scheduler t = Option.get (Scheme.scheduler (Synth.scheme t)) in
  let t = Synth.create ~seed:cfg.seed ~scheme:(Scheme.hybrid ()) ~n_objects:(2 * n_clients) () in
  let issued = Array.make n_clients 0 and acked = Array.make n_clients 0 in
  (* Launch one phase's clients on a fresh simulator: chained actions,
     each next hop scheduled from the previous one's durability callback,
     client starts staggered so enqueues interleave inside the window. *)
  let phase phase =
    let run t =
      let sim = Sim.create ~seed:(cfg.seed + phase) () in
      Fsched.configure (scheduler t) ~window
        ~timer:(Some (fun ~delay k -> Sim.schedule sim ~delay k));
      for c = 0 to n_clients - 1 do
        let rec act k =
          if k < plan.(phase).(c) then begin
            let outcome = if aborts ~phase ~client:c ~k then `Abort else `Commit in
            if outcome = `Commit then issued.(c) <- issued.(c) + 1;
            Synth.run_action_async t
              ~indices:[ 2 * c; (2 * c) + 1 ]
              ~outcome
              ~on_done:(fun () ->
                if outcome = `Commit then acked.(c) <- acked.(c) + 1;
                Sim.schedule sim ~delay:0.5 (fun () -> act (k + 1)))
          end
        in
        Sim.schedule sim ~delay:(0.3 *. float_of_int (c + 1)) (fun () -> act 0)
      done;
      Some sim
    in
    { run; slice = None }
  in
  let oracle actual =
    List.concat
      (List.init n_clients (fun c ->
           let a = actual.(2 * c) and b = actual.((2 * c) + 1) in
           if a <> b then
             [ violation "atomicity" "client %d: pair split %d/%d after recovery" c a b ]
           else begin
             let floor = acked.(c) and ceiling = issued.(c) in
             (* the crash resolved every in-flight action: resync *)
             acked.(c) <- a;
             issued.(c) <- a;
             expect (a >= floor) "durability" "client %d: %d commits durably acked, %d survived" c
               floor a
             @ expect (a <= ceiling) "durability"
                 "client %d: %d effects recovered, only %d commits issued" c a ceiling
           end))
  in
  (* Drop back to synchronous forces and commit once more: a scheduler
     that acked tokens before their covering force was stable fails the
     acked floor here. *)
  let probe t =
    Fsched.configure (scheduler t) ~window:0.0 ~timer:None;
    Synth.run_action t ~indices:[ 0; 1 ] ~outcome:`Commit;
    issued.(0) <- issued.(0) + 1;
    acked.(0) <- acked.(0) + 1
  in
  { synth = t; phases = List.init (Array.length plan) phase; oracle; probe }

(* ------------------------------------------------------------------ *)
(* Guardian-system targets.                                           *)

let g = Gid.of_int

let set_var name v : System.work =
 fun heap aid ->
  match Heap.get_stable_var heap name with
  | Some (Value.Ref a) -> Heap.set_current heap aid a (Value.Int v)
  | Some _ -> failwith "Explore: stable var is not a ref"
  | None ->
      let a = Heap.alloc_atomic heap ~creator:aid (Value.Int v) in
      Heap.set_stable_var heap aid name (Value.Ref a)

let heap_int heap name =
  Heap.with_snapshot heap (fun s ->
      match Heap.snapshot_var heap s name with
      | Some (Value.Ref a) -> (
          match Heap.snapshot_read heap s a with Value.Int v -> Some v | _ -> None)
      | Some _ | None -> None)

let stable_int sys gid name = heap_int (Guardian.heap (System.guardian sys gid)) name

(* One client action on the world's client counters: submit [route ()]
   (re-evaluated per attempt, so a failover re-routes), retrying after
   1.5 around a down or overloaded guardian and — with [retry_aborts] —
   after 1.0 on an abort, at most [tries] attempts in all. *)
let rec attempt w ~tries ~retry_aborts ~on_commit route () =
  if tries > 0 then begin
    let retry delay =
      Sim.schedule (System.sim w.sys) ~delay
        (attempt w ~tries:(tries - 1) ~retry_aborts ~on_commit route)
    in
    let coordinator, steps = route () in
    match System.submit w.sys ~coordinator ~steps with
    | h ->
        let c = w.client in
        c.issued <- c.issued + 1;
        Rs_guardian.Action.on_resolve h (fun _ o ->
            c.resolved <- c.resolved + 1;
            match o with
            | System.Committed ->
                c.committed <- c.committed + 1;
                on_commit ()
            | System.Aborted -> if retry_aborts then retry 1.0)
    | exception (System.Guardian_down _ | System.Overloaded _) -> retry 1.5
  end

(* ---- twopc: a two-guardian transfer under message faults ---------- *)

let twopc =
  let once w coordinator steps =
    attempt w ~tries:1 ~retry_aborts:false ~on_commit:ignore (fun () -> (coordinator, steps)) ()
  in
  (* x on guardian 0, y on guardian 1, both committed to 1; the explored
     action is the distributed transfer writing both to 2. *)
  let build config =
    let w = world (System.create ~seed:config.seed ~n:2 ()) in
    once w (g 0) [ (g 0, set_var "x" 1) ];
    System.quiesce w.sys;
    once w (g 0) [ (g 1, set_var "y" 1) ];
    System.quiesce w.sys;
    w
  in
  let transfer w = once w (g 0) [ (g 0, set_var "x" 2); (g 1, set_var "y" 2) ] in
  (* census: one clean transfer, counting message deliveries and sends *)
  let census config =
    let w = build config in
    let net = System.net w.sys in
    let d0 = Net.messages_delivered net and s0 = Net.messages_sent net in
    transfer w;
    System.quiesce w.sys;
    let deliveries = Net.messages_delivered net - d0 and sends = Net.messages_sent net - s0 in
    let at point = { Fault.op = 0; point } in
    List.concat
      [
        List.concat_map
          (fun victim ->
            List.init deliveries (fun k ->
                at (Fault.Msg_crash { after_deliveries = k + 1; victim })))
          [ 1; 0 ];
        List.init sends (fun k -> at (Fault.Msg_drop { nth = k + 1 }));
        List.init sends (fun k -> at (Fault.Msg_delay { nth = k + 1; by = 7.5 }));
      ]
  in
  let run config sched =
    let w = build config in
    let net = System.net w.sys in
    let d0 = Net.messages_delivered net in
    let fault_send nth fault =
      let count = ref 0 in
      Net.set_send_hook
        (Some
           (fun () ->
             incr count;
             if !count = nth then fault else Net.Deliver))
    in
    (match sched with
    | { Fault.point = Fault.Msg_drop { nth }; _ } :: _ -> fault_send nth Net.Drop
    | { Fault.point = Fault.Msg_delay { nth; by }; _ } :: _ -> fault_send nth (Net.Delay by)
    | _ -> ());
    Fun.protect
      ~finally:(fun () -> Net.set_send_hook None)
      (fun () ->
        transfer w;
        (match sched with
        | { Fault.point = Fault.Msg_crash { after_deliveries; victim }; _ } :: _ ->
            while
              Net.messages_delivered net < d0 + after_deliveries && Sim.step (System.sim w.sys)
            do
              ()
            done;
            down w (g victim);
            ignore (up w (g victim))
        | _ -> ());
        System.quiesce w.sys);
    (* atomicity across guardians: both sides of the transfer, or neither *)
    (match (stable_int w.sys (g 0) "x", stable_int w.sys (g 1) "y") with
    | Some 2, Some 2 | Some 1, Some 1 -> []
    | x, y -> [ violation "atomicity" "x=%s y=%s after recovery" (opt_int x) (opt_int y) ])
    @ judge (World w)
  in
  row "twopc" ~census ~run

(* ---- event-boundary targets ---------------------------------------- *)

type 's target = {
  setup : config -> world * 's;
  victim : world -> 's -> i:int -> nth:int -> unit;
  extra_oracles : world -> 's -> Fault.schedule -> Oracle.violation list;
}

(* Census the clean run's simulator events; crash at the scheduled
   boundaries, drain, then the target's closing oracles — first, so
   whatever probe they drive is judged with the rest of the run. *)
let events name tgt =
  let census config =
    let w, _ = tgt.setup config in
    spread (step_all (System.sim w.sys))
    (* one op ordinal per boundary so [enumerate] pairs distinct ones *)
    |> List.mapi (fun i nth -> { Fault.op = i; point = Fault.Event_boundary { nth } })
  in
  let run config sched =
    let w, st = tgt.setup config in
    let sim = System.sim w.sys in
    let stepped = ref 0 in
    List.filter_map
      (function { Fault.point = Fault.Event_boundary { nth }; _ } -> Some nth | _ -> None)
      sched
    |> List.sort_uniq compare
    |> List.iteri (fun i nth ->
           stepped := !stepped + step_all ~upto:(nth - !stepped) sim;
           tgt.victim w st ~i ~nth);
    (match w.load with Some l -> ignore (Load.drain l) | None -> ignore (step_all sim));
    let extra = tgt.extra_oracles w st sched in
    extra @ judge (World w)
  in
  row name ~census ~run

(* Crash guardian [(nth + i) mod n] and bring it straight back. *)
let rotate w _ ~i ~nth =
  let victim = g ((nth + i) mod System.n_guardians w.sys) in
  down w victim;
  ignore (up w victim)

let load_world cfg =
  let t = Load.create cfg in
  Load.start t;
  world ?dir:(Load.directory t) ~load:t (Load.system t)

(* Two guardians at high conflict: every client fighting for the hot
   objects keeps the wait queues populated, so crashes land while
   actions are parked on locks, mid-2PC, or both. *)
let contended seed =
  {
    Load.default with
    seed;
    guardians = 2;
    conflict = 0.8;
    duration = 40.0;
    objects_per_guardian = 3;
    mode = Load.Closed { clients = 6; think = 0.5 };
    wait_timeout = 10.0;
  }

let load =
  {
    setup = (fun c -> (load_world (contended c.seed), ()));
    victim = rotate;
    extra_oracles = (fun _ () _ -> []);
  }

(* Directory-mode traffic over three shards with a deliberately tiny uid
   batch, plus a drip of object creates: every few time units a create
   forces another batch reservation against the master, so crashes land
   inside reservations, routed submits and cross-shard 2PC alike. *)
let shards =
  {
    setup =
      (fun c ->
        let w =
          load_world
            {
              Load.default with
              seed = c.seed;
              guardians = 3;
              directory = true;
              cross_shard = 0.4;
              uid_batch = 4;
              conflict = 0.5;
              duration = 40.0;
              objects_per_guardian = 2;
              mode = Load.Closed { clients = 5; think = 0.5 };
              wait_timeout = 10.0;
            }
        in
        let minted = ref [] in
        List.iteri
          (fun i delay ->
            Sim.schedule (System.sim w.sys) ~delay (fun () ->
                Directory.create_object_async (Option.get w.dir)
                  ~key:(Printf.sprintf "extra%d" i)
                  ~init:(Value.Int 0)
                  ~on_done:(fun u -> minted := u :: !minted)))
          [ 2.0; 6.0; 10.0; 14.0; 18.0; 22.0 ];
        (w, minted));
    victim = rotate;
    extra_oracles =
      (fun _ minted _ ->
        (* the scripted creates retry through crashes and must mint
           distinct uids *)
        expect
          (List.length (List.sort_uniq Rs_util.Uid.compare !minted) = List.length !minted)
          "uid-unique" "a create observed a reused uid");
  }

(* Half the operations are MVCC read-only actions pinning snapshots while
   writers install versions, so crashes land with chains grown,
   snapshots open and writers mid-2PC. *)
let mvcc =
  {
    setup = (fun c -> (load_world { (contended c.seed) with read_fraction = 0.5 }, ()));
    victim = rotate;
    extra_oracles =
      (fun w () _ ->
        let reads = (Load.stats (Option.get w.load)).Load.reads_committed in
        expect (reads > 0) "progress" "no snapshot read ever committed"
        (* No stale version survives the drain: with no snapshot left
           open, every chain must have pruned back to its base version. *)
        @ List.concat_map
            (fun gd ->
              let heap = Guardian.heap gd and gi = Gid.to_int (Guardian.gid gd) in
              let active = Heap.active_snapshots heap in
              let stale = ref [] in
              Heap.iter_objects heap (fun a kind ->
                  if kind = Heap.Atomic then
                    let len = Heap.chain_length heap a in
                    if len <> 1 then
                      stale :=
                        violation "stale-version"
                          "G%d: object %d still holds %d versions after drain" gi a len
                        :: !stale);
              expect (active = 0) "snapshot-leak" "G%d: %d snapshots still active after drain" gi
                active
              @ List.rev !stale)
            (System.guardians w.sys));
  }

(* A replicated pair under closed-loop clients incrementing both "x" and
   "y" on whichever guardian is primary. The victim alternates between
   the primary (killed at a ship boundary, then promoted over) and the
   standby (killed at an apply boundary, cold-restarted into a resync
   two time units later). *)
let repl =
  let bump key heap aid =
    match Heap.get_stable_var heap key with
    | Some (Value.Ref a) -> (
        Heap.write_lock heap aid a;
        match Heap.read_atomic heap aid a with
        | Value.Int v -> Heap.set_current heap aid a (Value.Int (v + 1))
        | _ -> failwith "not an int")
    | Some _ | None -> failwith ("counter " ^ key ^ " not bootstrapped")
  in
  let work : System.work = fun heap aid -> List.iter (fun key -> bump key heap aid) [ "x"; "y" ] in
  let fail_over w p =
    let dead = Pair.primary p in
    down w dead;
    (* Let in-flight ships land before promoting: the commit point
       guarantees every acked commit's ship is already in the network,
       one latency from the standby. *)
    let sim = System.sim w.sys in
    let until = Sim.now sim +. 2.5 in
    while Sim.now sim < until && Sim.step sim do
      ()
    done;
    match up w dead with `Promoted -> Pair.rejoin p | `Restarted -> ()
  in
  {
    setup =
      (fun c ->
        let sys = System.create ~seed:c.seed ~latency:1.0 ~n:2 () in
        let p = Pair.create ~system:sys ~primary:(g 0) ~standby:(g 1) () in
        let w = world ~pair:p sys in
        (* Bootstrap both counters in one awaited action, so the clients
           never race on the first binding. *)
        let init : System.work =
         fun heap aid ->
          List.iter
            (fun key ->
              let a = Heap.alloc_atomic heap ~creator:aid (Value.Int 0) in
              Heap.set_stable_var heap aid key (Value.Ref a))
            [ "x"; "y" ]
        in
        ignore (System.await sys (System.submit sys ~coordinator:(g 0) ~steps:[ (g 0, init) ]));
        System.quiesce sys;
        for i = 0 to 11 do
          Sim.schedule (System.sim sys) ~delay:(1.0 +. (float_of_int i *. 2.0))
            (attempt w ~tries:25 ~retry_aborts:true ~on_commit:ignore (fun () ->
                 let target = Pair.primary p in
                 (target, [ (target, work) ])))
        done;
        (w, p));
    victim =
      (fun w p ~i ~nth ->
        if (nth + i) mod 2 = 0 then fail_over w p
        else begin
          down w (Pair.standby p);
          Sim.schedule (System.sim w.sys) ~delay:2.0 (fun () -> ignore (up w (Pair.standby p)))
        end);
    extra_oracles =
      (fun w p _ ->
        (* Every schedule ends with a failover probe: kill whichever
           guardian is primary now and promote — all acked commits must
           be present on the heir. *)
        fail_over w p;
        ignore (step_all (System.sim w.sys));
        let heir = Pair.primary p in
        let x = stable_int w.sys heir "x" and y = stable_int w.sys heir "y" in
        let xv = Option.value x ~default:0 and c = w.client in
        List.concat
          [
            Option.to_list (Option.map (violation "divergence" "%s") (Pair.diverged p));
            expect (x = y) "consistency" "x and y split after failover: x=%s y=%s" (opt_int x)
              (opt_int y);
            expect (xv >= c.committed) "commit-survival"
              "%d commits acked but only %d increments survived failover" c.committed xv;
            expect (xv <= c.issued) "ceiling"
              "%d increments survived but only %d attempts were issued" xv c.issued;
          ]);
  }

(* Two guardians with incremental background checkpointing (compaction
   on G0, snapshot on G1) under sequential two-guardian commits; the
   checkpoint fiber's slices are simulator events, so crashes land
   between slices as well as inside 2PC. The closing image-equivalence
   probe crashes each guardian and recovers its directory twice — serial
   chain walk and segment-parallel scan — demanding identical stable
   state, prepared set and chain head: a crash mid-checkpoint must have
   abandoned the spare log, so both paths see the old log unchanged. *)
let ckpt =
  {
    setup =
      (fun c ->
        let sys = System.create ~seed:c.seed ~latency:1.0 ~n:2 () in
        Guardian.set_auto_housekeeping (System.guardian sys (g 0)) ~threshold_bytes:1200
          ~slice:(2, 0.05) (Some Core.Hybrid_rs.Compaction);
        Guardian.set_auto_housekeeping (System.guardian sys (g 1)) ~threshold_bytes:1200
          ~slice:(3, 0.07) (Some Core.Hybrid_rs.Snapshot);
        let w = world sys in
        (* The value written is the action's index, so the surviving
           counter names the newest acked commit. *)
        let acked_max = ref 0 in
        for i = 1 to 16 do
          Sim.schedule (System.sim sys) ~delay:(1.0 +. (float_of_int i *. 2.0))
            (attempt w ~tries:10 ~retry_aborts:false
               ~on_commit:(fun () -> acked_max := max !acked_max i)
               (fun () -> (g 0, [ (g 0, set_var "x" i); (g 1, set_var "y" i) ])))
        done;
        (w, acked_max));
    victim = rotate;
    extra_oracles =
      (fun w acked_max sched ->
        let hk_runs =
          List.fold_left (fun n gd -> n + Guardian.housekeeping_runs gd) 0 (System.guardians w.sys)
        in
        let x = stable_int w.sys (g 0) "x" and y = stable_int w.sys (g 1) "y" in
        let xv = Option.value x ~default:0 in
        let image (gid, key) =
          down w gid;
          let dir = Guardian.log_dir (System.guardian w.sys gid) in
          let rs_s, info_s = Core.Hybrid_rs.recover dir in
          let rs_p, info_p = Core.Hybrid_rs.recover_parallel dir in
          let vs = heap_int (Core.Hybrid_rs.heap rs_s) key in
          let vp = heap_int (Core.Hybrid_rs.heap rs_p) key in
          let prep i = List.sort compare (Core.Tables.Recovery_info.prepared_actions i) in
          expect
            (vs = vp
            && prep info_s = prep info_p
            && Core.Hybrid_rs.last_outcome_addr rs_s = Core.Hybrid_rs.last_outcome_addr rs_p)
            "image-divergence" "serial and parallel recovery disagree on G%d (%s=%s vs %s)"
            (Gid.to_int gid) key (opt_int vs) (opt_int vp)
          @ Oracle.check_log (Some (Core.Hybrid_rs.log rs_p))
          @ Oracle.check_stores (Log_dir.stores (Core.Hybrid_rs.dir rs_p))
        in
        List.concat
          [
            expect (sched <> [] || hk_runs > 0) "progress"
              "the clean run never completed an incremental checkpoint";
            expect (x = y) "consistency" "x and y split: x=%s y=%s" (opt_int x) (opt_int y);
            expect (xv >= !acked_max) "commit-survival"
              "commit of action %d was acked but x=%d survived" !acked_max xv;
            (* Image-equivalence probe, once the judge-relevant state is read. *)
            List.concat_map image [ (g 0, "x"); (g 1, "y") ];
          ]);
  }

let targets =
  [
    single "simple" (scheme Scheme.simple (base_acts @ [ Housekeep Scheme.Snapshot; tail_act ]));
    single "hybrid"
      (scheme Scheme.hybrid
         (base_acts @ [ Housekeep Scheme.Compaction; tail_act; Housekeep Scheme.Snapshot ]));
    single "shadow" (scheme Scheme.shadow (base_acts @ [ tail_act ]));
    (* Segment churn: tiny segments (two 128-byte pages) make every act
       allocate and every housekeeping pass retire, so the census is
       dense in Seg_alloc/Seg_link/Seg_retire boundaries. *)
    single "segments"
      (scheme
         (Scheme.hybrid ~page_size:128 ~segment_pages:2)
         (base_acts
         @ [
             Housekeep Scheme.Compaction;
             tail_act;
             Act { indices = [ 1; 3 ]; outcome = `Commit };
             Housekeep Scheme.Snapshot;
             Act { indices = [ 2; 5 ]; outcome = `Commit };
           ]));
    twopc;
    single "group" group;
    events "load" load;
    events "shards" shards;
    events "repl" repl;
    events "ckpt" ckpt;
    events "mvcc" mvcc;
  ]

let explore ?(config = default_config) name =
  match List.assoc_opt name targets with
  | Some run -> run config
  | None -> invalid_arg ("Explore.explore: unknown target " ^ name)

(* ------------------------------------------------------------------ *)

let pp_outcome fmt o =
  Format.fprintf fmt "explore target=%s points=%d schedules=%d violations=%d" o.target
    o.points o.schedules
    (match o.counterexample with None -> 0 | Some _ -> 1);
  match o.counterexample with
  | None -> ()
  | Some { schedule; violation } ->
      Format.fprintf fmt "@.  counterexample (%d points): %a@.  oracle %a"
        (List.length schedule) Fault.pp_schedule schedule Oracle.pp_violation violation
