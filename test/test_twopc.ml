(* Distributed tests: two-phase commit over the simulated network,
   including the §2.2.3 crash matrix — a crash at every protocol stage,
   for both coordinator and participant roles. *)

module System = Rs_guardian.System
module Guardian = Rs_guardian.Guardian
module Heap = Rs_objstore.Heap
module Value = Rs_objstore.Value
module Gid = Rs_util.Gid
module Aid = Rs_util.Aid
module Sim = Rs_sim.Sim
module Action = Rs_guardian.Action

let g = Gid.of_int

(* A step that binds stable var [name] at the target guardian to [v]. *)
let set_var = Helpers.set_var

let submit_and_wait sys ~coordinator ~steps =
  let h = System.submit sys ~coordinator ~steps in
  let outcome = System.await sys h in
  System.quiesce sys;
  (Rs_guardian.Action.aid h, outcome)

let test_distributed_commit () =
  let sys = System.create ~n:3 () in
  let _, outcome =
    submit_and_wait sys ~coordinator:(g 0)
      ~steps:[ (g 0, set_var "a" 1); (g 1, set_var "b" 2); (g 2, set_var "c" 3) ]
  in
  Alcotest.(check bool) "committed" true (outcome = System.Committed);
  Alcotest.(check (option int)) "a@0" (Some 1) (Helpers.committed_int (System.guardian sys (g 0)) "a");
  Alcotest.(check (option int)) "b@1" (Some 2) (Helpers.committed_int (System.guardian sys (g 1)) "b");
  Alcotest.(check (option int)) "c@2" (Some 3) (Helpers.committed_int (System.guardian sys (g 2)) "c")

let test_commit_survives_all_crashes () =
  let sys = System.create ~n:2 () in
  let _, outcome =
    submit_and_wait sys ~coordinator:(g 0)
      ~steps:[ (g 0, set_var "x" 10); (g 1, set_var "y" 20) ]
  in
  Alcotest.(check bool) "committed" true (outcome = System.Committed);
  System.crash sys (g 0);
  System.crash sys (g 1);
  ignore (System.restart sys (g 0));
  ignore (System.restart sys (g 1));
  System.quiesce sys;
  Alcotest.(check (option int)) "x recovered" (Some 10) (Helpers.committed_int (System.guardian sys (g 0)) "x");
  Alcotest.(check (option int)) "y recovered" (Some 20) (Helpers.committed_int (System.guardian sys (g 1)) "y")

let test_participant_down_aborts () =
  let sys = System.create ~n:2 () in
  (* Seed committed state. *)
  let _ = submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 1, set_var "y" 1) ] in
  System.crash sys (g 1);
  (* The step against the down guardian aborts the action locally. *)
  let _, outcome =
    submit_and_wait sys ~coordinator:(g 0)
      ~steps:[ (g 0, set_var "x" 5); (g 1, set_var "y" 99) ]
  in
  Alcotest.(check bool) "aborted" true (outcome = System.Aborted);
  ignore (System.restart sys (g 1));
  System.quiesce sys;
  Alcotest.(check (option int)) "y unchanged" (Some 1) (Helpers.committed_int (System.guardian sys (g 1)) "y")

let test_participant_crash_before_prepare_arrives () =
  (* The participant executes its step, then crashes before the prepare
     message lands: it replies refused after restart (action unknown), so
     the action aborts everywhere. *)
  let sys = System.create ~latency:2.0 ~n:2 () in
  let _ = submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" 1) ] in
  let result = ref None in
  Action.on_resolve
    (System.submit sys ~coordinator:(g 0)
       ~steps:[ (g 0, set_var "x" 2); (g 1, set_var "y" 2) ])
    (fun _ o -> result := Some o);
  (* Crash g1 before any message can be delivered (latency 2). *)
  System.crash sys (g 1);
  ignore (System.restart sys (g 1));
  System.quiesce sys;
  Alcotest.(check bool) "aborted" true (!result = Some System.Aborted);
  Alcotest.(check (option int)) "x rolled back" (Some 1) (Helpers.committed_int (System.guardian sys (g 0)) "x")

(* The §2.2.3 crash matrix, driven by event-count crash points: run the
   same two-guardian action, crashing guardian [victim] after [k] events;
   restart and drain; then assert all-or-nothing consistency across both
   guardians and that a coordinator verdict, once reported, is honoured. *)
let crash_matrix victim () =
  let sweep = ref 0 in
  let inconsistent = ref [] in
  for crash_after = 1 to 40 do
    incr sweep;
    let sys = System.create ~n:2 () in
    (* Committed baseline: x=1 on g0, y=1 on g1. *)
    let _ = submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" 1) ] in
    let _ = submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 1, set_var "y" 1) ] in
    let verdict = ref None in
    Action.on_resolve
      (System.submit sys ~coordinator:(g 0)
         ~steps:[ (g 0, set_var "x" 2); (g 1, set_var "y" 2) ])
      (fun _ o -> verdict := Some o);
    (* Run exactly [crash_after] events, then crash the victim. *)
    let rec steps n = if n > 0 && Sim.step (System.sim sys) then steps (n - 1) in
    steps crash_after;
    System.crash sys victim;
    ignore (System.restart sys victim);
    System.quiesce sys;
    let x = Helpers.committed_int (System.guardian sys (g 0)) "x" in
    let y = Helpers.committed_int (System.guardian sys (g 1)) "y" in
    (* All-or-nothing: both updated or both untouched. *)
    (match (x, y) with
    | Some 2, Some 2 | Some 1, Some 1 -> ()
    | _ -> inconsistent := (crash_after, x, y) :: !inconsistent);
    (* A verdict reported before the crash must match the stable state
       when the coordinator's verdict was Committed. *)
    match (!verdict, x, y) with
    | Some System.Committed, Some 2, Some 2 -> ()
    | Some System.Committed, _, _ ->
        inconsistent := (crash_after, x, y) :: !inconsistent
    | (Some System.Aborted | None), _, _ -> ()
  done;
  match !inconsistent with
  | [] -> ()
  | (k, x, y) :: _ ->
      Alcotest.failf "crash point %d: x=%s y=%s (%d bad points)" k
        (match x with Some v -> string_of_int v | None -> "-")
        (match y with Some v -> string_of_int v | None -> "-")
        (List.length !inconsistent)

let test_lock_wait_serializes () =
  let sys = System.create ~n:1 () in
  let _ = submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" 1) ] in
  (* Two actions concurrently write x. The second's step hits the first's
     write lock and parks on the FIFO wait queue instead of aborting; when
     the first commits, the lock transfers and the second runs. Both
     commit, in submission order: last writer wins. *)
  let outcomes = ref [] in
  Action.on_resolve
    (System.submit sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" 2) ])
    (fun _ o -> outcomes := o :: !outcomes);
  Action.on_resolve
    (System.submit sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" 3) ])
    (fun _ o -> outcomes := o :: !outcomes);
  System.quiesce sys;
  let committed = List.length (List.filter (( = ) System.Committed) !outcomes) in
  let aborted = List.length (List.filter (( = ) System.Aborted) !outcomes) in
  Alcotest.(check (pair int int)) "both commit" (2, 0) (committed, aborted);
  Alcotest.(check (option int)) "x = 3 (FIFO order)" (Some 3)
    (Helpers.committed_int (System.guardian sys (g 0)) "x")

let test_upgrade_deadlock_times_out () =
  (* Two actions hold read locks on x and both try to upgrade to write: a
     deadlock no queue order can resolve. The virtual-time wait timeout
     aborts one deliberately; the survivor's upgrade is then granted —
     the queued waiter is released, not stranded. Because steps execute
     synchronously until they block, overlapping the read phase needs one
     action parked elsewhere: A reads x, then parks on y (held by a
     blocker on g1), while B reads x and tries to upgrade. *)
  let sys = System.create ~n:2 ~wait_timeout:5.0 () in
  let _ = submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" 0) ] in
  let _ = submit_and_wait sys ~coordinator:(g 1) ~steps:[ (g 1, set_var "y" 0) ] in
  let read_x : System.work =
   fun heap aid ->
    match Heap.get_stable_var heap "x" with
    | Some (Value.Ref a) -> ignore (Heap.read_atomic heap aid a)
    | Some _ | None -> failwith "missing"
  in
  let bump_x : System.work =
   fun heap aid ->
    match Heap.get_stable_var heap "x" with
    | Some (Value.Ref a) -> (
        Heap.write_lock heap aid a;
        match Heap.read_atomic heap aid a with
        | Value.Int v -> Heap.set_current heap aid a (Value.Int (v + 1))
        | _ -> failwith "bad")
    | Some _ | None -> failwith "missing"
  in
  let before =
    Option.value ~default:0
      (Rs_obs.Metrics.find_counter Rs_obs.Metrics.default "heap.wait_timeouts")
  in
  (* Blocker holds y's write lock until its 2PC completes. *)
  let _blocker = System.submit sys ~coordinator:(g 1) ~steps:[ (g 1, set_var "y" 1) ] in
  (* A: read-locks x, parks on y, upgrades x when it resumes. *)
  let a =
    System.submit sys ~coordinator:(g 0)
      ~steps:[ (g 0, read_x); (g 1, set_var "y" 2); (g 0, bump_x) ]
  in
  (* B: shares x's read lock with A, then tries to upgrade: parks. *)
  let b = System.submit sys ~coordinator:(g 0) ~steps:[ (g 0, read_x); (g 0, bump_x) ] in
  System.quiesce sys;
  let after =
    Option.value ~default:0
      (Rs_obs.Metrics.find_counter Rs_obs.Metrics.default "heap.wait_timeouts")
  in
  let outcomes = [ System.outcome a; System.outcome b ] in
  let committed = List.length (List.filter (( = ) (Some System.Committed)) outcomes) in
  let aborted = List.length (List.filter (( = ) (Some System.Aborted)) outcomes) in
  Alcotest.(check (pair int int)) "one commits, one times out" (1, 1) (committed, aborted);
  Alcotest.(check bool) "timeout counted" true (after > before);
  Alcotest.(check (option int)) "x = 1 (exactly one increment)" (Some 1)
    (Helpers.committed_int (System.guardian sys (g 0)) "x")

let test_crash_kills_lock_holder_mid_wait () =
  (* A holds x's write lock on g0 and parks waiting for y on g1; B waits
     behind A on x. Crashing g1 fails A's parked wait, so A aborts and x
     transfers to B, which commits: a crash of the guardian an action is
     waiting ON must unstick the queue it is holding up elsewhere. *)
  let sys = System.create ~n:2 ~latency:1.0 () in
  let _ = submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" 1) ] in
  let _ = submit_and_wait sys ~coordinator:(g 1) ~steps:[ (g 1, set_var "y" 1) ] in
  (* Blocker: holds y's write lock on g1 and never finishes until drained. *)
  let blocker = System.submit sys ~coordinator:(g 1) ~steps:[ (g 1, set_var "y" 2) ] in
  (* A: takes x on g0, then parks behind the blocker on g1's y. *)
  let a =
    System.submit sys ~coordinator:(g 0)
      ~steps:[ (g 0, set_var "x" 2); (g 1, set_var "y" 3) ]
  in
  (* B: parks behind A on g0's x. *)
  let b = System.submit sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" 4) ] in
  Alcotest.(check bool) "A parked" true (System.outcome a = None);
  System.crash sys (g 1);
  ignore (System.restart sys (g 1));
  System.quiesce sys;
  Alcotest.(check bool) "A aborted (its wait died with g1)" true
    (System.outcome a = Some System.Aborted);
  Alcotest.(check bool) "B committed after the transfer" true
    (System.outcome b = Some System.Committed);
  ignore blocker;
  Alcotest.(check (option int)) "x = 4" (Some 4) (Helpers.committed_int (System.guardian sys (g 0)) "x")

let test_message_loss_tolerated () =
  (* 20% message loss: retries and queries must still drive every action
     to a consistent conclusion. *)
  let sys = System.create ~seed:99 ~drop_prob:0.2 ~n:2 () in
  let done_count = ref 0 in
  for i = 1 to 10 do
    Action.on_resolve
      (System.submit sys ~coordinator:(g 0)
         ~steps:
           [
             (g 0, set_var (Printf.sprintf "x%d" i) i);
             (g 1, set_var (Printf.sprintf "y%d" i) i);
           ])
      (fun _ _ -> incr done_count)
  done;
  System.quiesce ~limit:100_000.0 sys;
  Alcotest.(check int) "all actions resolved" 10 !done_count;
  (* Consistency: for each i, x and y at the two guardians agree. *)
  for i = 1 to 10 do
    let x = Helpers.committed_int (System.guardian sys (g 0)) (Printf.sprintf "x%d" i) in
    let y = Helpers.committed_int (System.guardian sys (g 1)) (Printf.sprintf "y%d" i) in
    Alcotest.(check bool) (Printf.sprintf "action %d atomic" i) true (x = y)
  done

let test_query_during_preparing () =
  (* Regression: a prepared participant recovered from a crash queries the
     coordinator while the action is STILL in its preparing phase. The
     coordinator must not answer abort from stable state and then commit —
     that split the bank's books (and is the 2PC oversight Lindsay pointed
     out in the thesis). With the fix, undecided queries are unanswered
     and the action resolves one way at both guardians. *)
  let sys = System.create ~latency:3.0 ~n:2 () in
  let _ = submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" 1) ] in
  let _ = submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 1, set_var "y" 1) ] in
  let verdict = ref None in
  Action.on_resolve
    (System.submit sys ~coordinator:(g 0)
       ~steps:[ (g 0, set_var "x" 2); (g 1, set_var "y" 2) ])
    (fun _ o -> verdict := Some o);
  (* Let the prepare reach g1 and its prepared record hit the log, then
     crash g1 so its Prepared_reply is lost and, on restart, it starts
     querying while g0 still waits in the preparing phase. *)
  let rec until_prepared n =
    if n > 0 && Guardian.rs (System.guardian sys (g 1)) |> Core.Hybrid_rs.prepared_actions = []
    then
      if Sim.step (System.sim sys) then until_prepared (n - 1) else ()
  in
  until_prepared 1000;
  System.crash sys (g 1);
  ignore (System.restart sys (g 1));
  System.quiesce sys;
  let x = Helpers.committed_int (System.guardian sys (g 0)) "x" in
  let y = Helpers.committed_int (System.guardian sys (g 1)) "y" in
  Alcotest.(check bool) (Printf.sprintf "atomic (x=%s y=%s)"
    (Option.fold ~none:"-" ~some:string_of_int x)
    (Option.fold ~none:"-" ~some:string_of_int y))
    true (x = y)

let test_bank_many_seeds () =
  (* Broad randomized sweep of the full stack: crashes mid-protocol,
     message loss, jitter — conservation must hold for every seed. *)
  for seed = 1 to 8 do
    let sys =
      System.create ~seed ~latency:1.0 ~jitter:0.5 ~drop_prob:0.03 ~n:3 ()
    in
    let bank =
      Rs_workload.Bank.create ~seed:(seed * 31) ~system:sys ~accounts_per_guardian:5
        ~initial_balance:100 ()
    in
    Rs_workload.Bank.run bank ~n_transfers:80 ~crash_every:9 ();
    match Rs_workload.Bank.check_conservation bank with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "seed %d: %s" seed msg
  done

let test_housekeeping_under_traffic () =
  let sys = System.create ~n:2 () in
  for i = 1 to 10 do
    let _ =
      submit_and_wait sys ~coordinator:(g 0)
        ~steps:[ (g 0, set_var "x" i); (g 1, set_var "y" i) ]
    in
    if i mod 3 = 0 then Guardian.housekeep (System.guardian sys (g 0)) Core.Hybrid_rs.Snapshot
  done;
  System.crash sys (g 0);
  ignore (System.restart sys (g 0));
  System.quiesce sys;
  Alcotest.(check (option int)) "x after housekeeping+crash" (Some 10)
    (Helpers.committed_int (System.guardian sys (g 0)) "x")

let test_early_prepare_distributed () =
  (* With early prepare on, the same commits/recoveries hold, and crash
     matrices remain atomic. *)
  let sys = System.create ~early_prepare:true ~n:2 () in
  let _, outcome =
    submit_and_wait sys ~coordinator:(g 0)
      ~steps:[ (g 0, set_var "x" 10); (g 1, set_var "y" 20) ]
  in
  Alcotest.(check bool) "committed" true (outcome = System.Committed);
  System.crash sys (g 1);
  ignore (System.restart sys (g 1));
  System.quiesce sys;
  Alcotest.(check (option int)) "y recovered" (Some 20) (Helpers.committed_int (System.guardian sys (g 1)) "y")

let crash_matrix_early victim () =
  for crash_after = 1 to 25 do
    let sys = System.create ~early_prepare:true ~n:2 () in
    let _ = submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" 1) ] in
    let _ = submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 1, set_var "y" 1) ] in
    ignore
      (System.submit sys ~coordinator:(g 0)
         ~steps:[ (g 0, set_var "x" 2); (g 1, set_var "y" 2) ]);
    let rec steps n = if n > 0 && Sim.step (System.sim sys) then steps (n - 1) in
    steps crash_after;
    System.crash sys victim;
    ignore (System.restart sys victim);
    System.quiesce sys;
    match
      (Helpers.committed_int (System.guardian sys (g 0)) "x", Helpers.committed_int (System.guardian sys (g 1)) "y")
    with
    | Some 2, Some 2 | Some 1, Some 1 -> ()
    | x, y ->
        Alcotest.failf "early-prepare split at %d: x=%s y=%s" crash_after
          (Option.fold ~none:"-" ~some:string_of_int x)
          (Option.fold ~none:"-" ~some:string_of_int y)
  done

(* Multi-action distributed fuzz: several concurrent transfers per round,
   a crash mid-protocol each round, per-action atomicity checked on a
   model keyed by unique amounts (powers of two: any half-applied action
   shows up as a bit in the delta). *)
let test_multi_action_crash_fuzz () =
  for seed = 1 to 5 do
    (* Each seed is its own world: guardian labels and commit stamps
       restart, so the spec monitors judge it on its own trace. *)
    Rs_obs.Trace.clear ();
    let sys = System.create ~seed ~jitter:0.3 ~n:3 () in
    List.iter
      (fun k ->
        let _ = submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g k, set_var "v" 0) ] in
        ())
      [ 0; 1; 2 ];
    let rng = Rs_util.Rng.create (seed * 101) in
    let add name delta : System.work =
     fun heap aid ->
      match Heap.get_stable_var heap name with
      | Some (Value.Ref a) -> (
          match Heap.read_atomic heap aid a with
          | Value.Int v -> Heap.set_current heap aid a (Value.Int (v + delta))
          | _ -> failwith "bad")
      | Some _ | None -> failwith "missing"
    in
    let total () =
      List.fold_left
        (fun acc gd ->
          match Helpers.committed_int gd "v" with Some v -> acc + v | None -> acc)
        0 (System.guardians sys)
    in
    for round = 0 to 5 do
      (* Three concurrent actions, each adding +b at one guardian and -b
         at another: conservation must hold per action. *)
      for k = 0 to 2 do
        let b = 1 lsl ((round * 3) + k) in
        let src = Rs_util.Rng.int rng 3 and dst = Rs_util.Rng.int rng 3 in
        if src <> dst then
          ignore
            (System.submit sys ~coordinator:(g src)
               ~steps:[ (g src, add "v" b); (g dst, add "v" (-b)) ])
      done;
      ignore (System.run ~until:(Sim.now (System.sim sys) +. 2.0) sys);
      let victim = g (Rs_util.Rng.int rng 3) in
      System.crash sys victim;
      ignore (System.restart sys victim);
      System.quiesce sys;
      if total () <> 0 then
        Alcotest.failf "seed %d round %d: sum %d (some action applied by half)" seed round
          (total ())
    done;
    Alcotest.(check int) "spec monitors clean" 0 (List.length (Rs_obs.Monitor.check ()))
  done

let test_partition_blocks_then_heals () =
  (* Partition the participant between its prepared reply and the commit
     message: it must keep waiting (2PC blocks, §2.2.3), hold its locks,
     and complete when the partition heals — the verdict cannot flip. *)
  let sys = System.create ~n:2 () in
  let _ = submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" 1) ] in
  let _ = submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 1, set_var "y" 1) ] in
  let verdict = ref None in
  Action.on_resolve
    (System.submit sys ~coordinator:(g 0)
       ~steps:[ (g 0, set_var "x" 2); (g 1, set_var "y" 2) ])
    (fun _ o -> verdict := Some o);
  (* Let g1 prepare, then cut it off before the commit arrives. *)
  let rec until_prepared n =
    if
      n > 0
      && Core.Hybrid_rs.prepared_actions (Guardian.rs (System.guardian sys (g 1))) = []
    then if Sim.step (System.sim sys) then until_prepared (n - 1) else ()
  in
  until_prepared 1000;
  System.partition sys (g 1);
  (* Run a long time: the coordinator keeps retrying, g1 keeps waiting. *)
  ignore (System.run ~until:(Sim.now (System.sim sys) +. 100.0) sys);
  Alcotest.(check (option int)) "y unchanged while partitioned" (Some 1)
    (Helpers.committed_int (System.guardian sys (g 1)) "y");
  Alcotest.(check bool) "g1 still prepared (blocked, not aborted)" true
    (Core.Hybrid_rs.prepared_actions (Guardian.rs (System.guardian sys (g 1))) <> []);
  (* Heal: retries drive the commit through. *)
  System.heal sys (g 1);
  System.quiesce sys;
  Alcotest.(check bool) "verdict committed" true (!verdict = Some System.Committed);
  Alcotest.(check (option int)) "y applied after heal" (Some 2)
    (Helpers.committed_int (System.guardian sys (g 1)) "y")

let test_auto_housekeeping () =
  let sys = System.create ~n:2 () in
  List.iter
    (fun gd ->
      Guardian.set_auto_housekeeping gd ~threshold_bytes:4096 ~slice:(16, 0.05)
        (Some Core.Hybrid_rs.Snapshot))
    (System.guardians sys);
  for i = 1 to 120 do
    let _ =
      submit_and_wait sys ~coordinator:(g 0)
        ~steps:[ (g 0, set_var "x" i); (g 1, set_var "y" i) ]
    in
    ()
  done;
  let g0 = System.guardian sys (g 0) in
  Alcotest.(check bool) "housekeeping ran" true (Guardian.housekeeping_runs g0 > 0);
  Alcotest.(check bool) "log bounded" true
    (Rs_slog.Stable_log.stream_bytes (Core.Hybrid_rs.log (Guardian.rs g0)) < 16384);
  (* And a crash after all that recovers the latest state. *)
  System.crash sys (g 0);
  ignore (System.restart sys (g 0));
  System.quiesce sys;
  Alcotest.(check (option int)) "state intact" (Some 120) (Helpers.committed_int (System.guardian sys (g 0)) "x")

(* --- Checkpoints of a state larger than the threshold: one snapshot of
   24 objects of 512 B outgrows the 4 KiB threshold, so the byte threshold
   alone would start a checkpoint after every commit. --- *)

module Log = Rs_slog.Stable_log
module Log_dir = Rs_slog.Log_dir

let big_threshold = 4096
let big_keys = 24
let big_key k = Printf.sprintf "k%d" k
let big_value i = Printf.sprintf "%06d" i ^ String.make 506 'v'

let big_state_system () =
  let sys = System.create ~n:1 () in
  let gd = System.guardian sys (g 0) in
  Guardian.set_auto_housekeeping gd ~threshold_bytes:big_threshold ~slice:(16, 0.05)
    (Some Core.Hybrid_rs.Snapshot);
  (sys, gd)

(* Checkpoints seen starting, watched event by event. *)
type ckpt_watch = { mutable active : bool; mutable starts : int }

(* Segments the first [bytes] of a stream occupy. *)
let segments_of log bytes =
  let cap = Log.segment_pages log * Log.page_size log in
  (bytes + cap - 1) / cap

(* The log size past which a log that started at [base] bytes may
   checkpoint. *)
let ckpt_limit log base =
  if base <= big_threshold then big_threshold
  else segments_of log base * Log.segment_pages log * Log.page_size log

(* Run after every simulator event. A checkpoint may start only once the
   log has run past the end of the segment its start (the last output, or
   the recovered log) ended in — or past the threshold, for a start that
   fit under it. Outside a checkpoint, the directory holds at most one
   segment more than that start. *)
let check_ckpt_rule gd w =
  let rs = Guardian.rs gd in
  let log = Core.Hybrid_rs.log rs in
  let base = Core.Hybrid_rs.base_bytes rs in
  let limit = ckpt_limit log base in
  let active = Guardian.checkpoint_active gd in
  if active && not w.active then begin
    w.starts <- w.starts + 1;
    if Log.stream_bytes log <= limit then
      Alcotest.failf "checkpoint %d started at %d log bytes: start %d, limit %d" w.starts
        (Log.stream_bytes log) base limit
  end;
  w.active <- active;
  let live = Log_dir.live_segments (Guardian.log_dir gd) in
  if base > big_threshold && (not active) && live > segments_of log base + 1 then
    Alcotest.failf "%d live segments after an output of %d bytes" live base

(* Run one update of [key k] to [big_value i], checking the rule after
   every simulator event; [expected] tracks each key's committed value. *)
let big_update sys gd w expected ~on_event i k =
  let v = big_value i in
  let h =
    System.submit sys ~coordinator:(g 0) ~steps:[ (g 0, Helpers.set_value (big_key k) (Str v)) ]
  in
  Action.on_resolve h (fun _ o -> if o = System.Committed then expected.(k) <- Some v);
  (* A local update takes no virtual time; one arrives per time unit, so
     the checkpoint slices (0.05 apart) run between updates. *)
  let next = ref false in
  Sim.schedule (System.sim sys) ~delay:1.0 (fun () -> next := true);
  while not (Action.resolved h && !next) do
    if not (Sim.step (System.sim sys)) then Alcotest.fail "simulator drained mid-action";
    check_ckpt_rule gd w;
    on_event ()
  done

let drain sys gd w =
  while Sim.step (System.sim sys) do
    check_ckpt_rule gd w
  done

let check_state gd expected label =
  Array.iteri
    (fun k v ->
      let got =
        match Helpers.committed_value gd (big_key k) with
        | Some (Value.Str s) -> Some s
        | Some _ | None -> None
      in
      if got <> v then Alcotest.failf "%s: %s lost its committed value" label (big_key k))
    expected

let check_logs gd label =
  let rs = Guardian.rs gd in
  let issues =
    Core.Log_check.check_log (Core.Hybrid_rs.log rs)
    @ Core.Log_check.check_segments (Guardian.log_dir gd)
  in
  Alcotest.(check (list string)) (label ^ ": log and segment fsck clean") []
    (List.map (Format.asprintf "%a" Core.Log_check.pp_issue) issues)

let test_large_state_checkpoint_trigger () =
  let sys, gd = big_state_system () in
  let w = { active = false; starts = 0 } in
  let expected = Array.make big_keys None in
  let update = big_update sys gd w expected ~on_event:ignore in
  for k = 0 to big_keys - 1 do
    update k k
  done;
  for i = 1 to 200 do
    update (big_keys + i) (i mod big_keys)
  done;
  drain sys gd w;
  let rs = Guardian.rs gd in
  Alcotest.(check bool) "the output outgrows the threshold" true
    (Core.Hybrid_rs.base_bytes rs > big_threshold);
  Alcotest.(check int) "every start seen" (Guardian.housekeeping_runs gd) w.starts;
  (* An output of about 13 KiB ends about 3 KiB short of its segment's
     end, some 6 commits of 600 log bytes; the byte threshold alone would
     checkpoint after nearly every commit. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d checkpoints in 200 commits" w.starts)
    true
    (w.starts >= 10 && w.starts <= 50);
  System.crash sys (g 0);
  ignore (System.restart sys (g 0));
  System.quiesce sys;
  check_state gd expected "after restart";
  check_logs gd "after restart"

(* The same large state, crashed at a spread of simulator event
   boundaries, some of them between checkpoint slices. Each crash must
   keep every committed value and leave a clean log; the restarted
   guardian then holds its checkpoint until its log runs past the end of
   the recovered log's last segment ([check_ckpt_rule] with the recovered
   log as the start). *)
let test_large_state_crash_sweep () =
  let run ~crash_at =
    let sys, gd = big_state_system () in
    let w = { active = false; starts = 0 } in
    let expected = Array.make big_keys None in
    let events = ref 0 and between_slices = ref [] and starts_at_crash = ref 0 in
    let recovered = ref false and recovered_limit = ref None in
    let on_event () =
      incr events;
      let log = Core.Hybrid_rs.log (Guardian.rs gd) in
      if Guardian.checkpoint_active gd then between_slices := !events :: !between_slices;
      (* The first checkpoint after the restart starts on the recovered
         log, once it has passed the recovered size's limit. *)
      (match !recovered_limit with
      | Some limit when w.starts > !starts_at_crash ->
          recovered_limit := None;
          if Log.stream_bytes log <= limit then
            Alcotest.failf "crash at %d: checkpoint at %d log bytes, recovered limit %d" crash_at
              (Log.stream_bytes log) limit
      | Some _ | None -> ());
      if !events = crash_at then begin
        System.crash sys (g 0);
        ignore (System.restart sys (g 0));
        w.active <- false;
        starts_at_crash := w.starts;
        recovered := true;
        let log = Core.Hybrid_rs.log (Guardian.rs gd) in
        recovered_limit := Some (ckpt_limit log (Log.stream_bytes log));
        Alcotest.(check int)
          (Printf.sprintf "crash at %d: the start is the recovered log" crash_at)
          (Log.stream_bytes log)
          (Core.Hybrid_rs.base_bytes (Guardian.rs gd));
        check_logs gd (Printf.sprintf "crash at %d" crash_at)
      end
    in
    (* The update in flight at the crash is resolved from the recovered
       log; a commit it owes lands once the update's time unit is over. *)
    let update i k =
      big_update sys gd w expected ~on_event i k;
      if !recovered then begin
        recovered := false;
        check_state gd expected (Printf.sprintf "crash at %d" crash_at)
      end
    in
    for k = 0 to big_keys - 1 do
      update k k
    done;
    for i = 1 to 100 do
      update (big_keys + i) (i mod big_keys)
    done;
    let total = !events in
    (* 60 more updates, about 36 KB of log: the restarted guardian must
       get to checkpoint again. *)
    for i = 101 to 160 do
      update (big_keys + i) (i mod big_keys)
    done;
    drain sys gd w;
    if crash_at > 0 then begin
      let label = Printf.sprintf "crash at %d, end" crash_at in
      check_state gd expected label;
      check_logs gd label;
      Alcotest.(check bool) (label ^ ": checkpoints resumed") true (w.starts > !starts_at_crash)
    end;
    (total, List.rev !between_slices)
  in
  let total, between = run ~crash_at:0 in
  let spread = List.init 8 (fun j -> (j + 1) * total / 9) in
  let nb = List.length between in
  let mid_checkpoint = List.init 4 (fun j -> List.nth between (j * nb / 4)) in
  Alcotest.(check bool) "the sweep reaches checkpoint slices" true (nb >= 4);
  List.iter (fun crash_at -> ignore (run ~crash_at)) (spread @ mid_checkpoint)

(* The incremental flavour: checkpoints run as background fibers over
   virtual time, slices interleaving with live 2PC traffic, and a crash
   mid-checkpoint abandons the spare log without losing anything. *)
let test_incremental_auto_housekeeping () =
  let sys = System.create ~n:2 () in
  List.iter
    (fun gd ->
      Guardian.set_auto_housekeeping gd ~threshold_bytes:4096 ~slice:(2, 0.05)
        (Some Core.Hybrid_rs.Compaction))
    (System.guardians sys);
  let saw_active = ref false in
  (* Sample from inside the sim — the work closure runs mid-protocol, so
     it can catch a checkpoint with slices still pending. (Quiescing
     between actions always drains the fiber, so sampling from the test
     loop would never see one.) *)
  let probing name v : System.work =
   fun heap a ->
    if Guardian.checkpoint_active (System.guardian sys (g 0)) then saw_active := true;
    set_var name v heap a
  in
  for i = 1 to 120 do
    (* Await without quiescing: draining the sim between actions would
       run every pending checkpoint slice, serializing what this test
       exists to interleave. *)
    ignore
      (System.await sys
         (System.submit sys ~coordinator:(g 0)
            ~steps:[ (g 0, probing "x" i); (g 1, set_var "y" i) ]));
    if Guardian.checkpoint_active (System.guardian sys (g 0)) then saw_active := true
  done;
  System.quiesce sys;
  let g0 = System.guardian sys (g 0) in
  Alcotest.(check bool) "commits landed while a checkpoint was in flight" true !saw_active;
  Alcotest.(check bool) "incremental checkpoints completed" true
    (Guardian.housekeeping_runs g0 > 0);
  Alcotest.(check bool) "no checkpoint left hanging" false (Guardian.checkpoint_active g0);
  Alcotest.(check bool) "log bounded" true
    (Rs_slog.Stable_log.stream_bytes (Core.Hybrid_rs.log (Guardian.rs g0)) < 16384);
  (* Crash and recover: the background machinery must not have broken
     durability, and the stale fiber must not touch the new incarnation. *)
  System.crash sys (g 0);
  ignore (System.restart sys (g 0));
  System.quiesce sys;
  Alcotest.(check (option int)) "state intact" (Some 120)
    (Helpers.committed_int (System.guardian sys (g 0)) "x")

(* A whole checkpoint requested while a background one is in flight (as
   Repl.Pair.rejoin does on a primary with auto-housekeeping): the
   guardian finishes the running job first, then runs its own, and the
   job's still-queued slice does nothing. *)
let test_housekeep_during_checkpoint () =
  let sys = System.create ~n:1 () in
  let gd = System.guardian sys (g 0) in
  Guardian.set_auto_housekeeping gd ~threshold_bytes:2048 ~slice:(1, 5.0)
    (Some Core.Hybrid_rs.Compaction);
  let n = ref 0 in
  while !n < 200 && not (Guardian.checkpoint_active gd) do
    incr n;
    ignore
      (System.await sys (System.submit sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" !n) ]))
  done;
  Alcotest.(check bool) "a background checkpoint is in flight" true (Guardian.checkpoint_active gd);
  Guardian.housekeep gd Core.Hybrid_rs.Snapshot;
  Alcotest.(check bool) "none in flight after" false (Guardian.checkpoint_active gd);
  Alcotest.(check int) "the background pass completed" 1 (Guardian.housekeeping_runs gd);
  System.quiesce sys;
  Alcotest.(check int) "its queued slice did nothing" 1 (Guardian.housekeeping_runs gd);
  System.crash sys (g 0);
  ignore (System.restart sys (g 0));
  System.quiesce sys;
  Alcotest.(check (option int)) "state intact" (Some !n)
    (Helpers.committed_int (System.guardian sys (g 0)) "x")

(* A finished action leaves its coordinator's volatile table: after a
   crash-free run has drained, no guardian coordinates anything. *)
let test_coordinators_forget () =
  let sys = System.create ~n:2 () in
  let _ = submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" 1) ] in
  let _ = submit_and_wait sys ~coordinator:(g 1) ~steps:[ (g 0, set_var "x" 2); (g 1, set_var "y" 2) ] in
  let _, aborted =
    submit_and_wait sys ~coordinator:(g 0)
      ~steps:[ (g 0, set_var "x" 3); (g 1, fun _ _ -> raise System.Abort_action) ]
  in
  Alcotest.(check bool) "third action aborted" true (aborted = System.Aborted);
  List.iter
    (fun gd -> Alcotest.(check int) "nothing coordinated" 0 (Guardian.coordinating gd))
    (System.guardians sys)

(* The done record is written unforced. A crash right after it loses it:
   the recovered coordinator finds the committing record alone, resumes
   phase two, and both participants — itself included, which committed
   before the crash — ack again without applying the commit twice. *)
let test_lost_done_resumes_phase_two () =
  let sys = System.create ~n:2 () in
  let _, outcome =
    submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" 5); (g 1, set_var "y" 5) ]
  in
  Alcotest.(check bool) "committed" true (outcome = System.Committed);
  let g0 = System.guardian sys (g 0) in
  let log = Core.Hybrid_rs.log (Guardian.rs g0) in
  Alcotest.(check bool) "done record still unforced" true
    (Rs_slog.Stable_log.forced_count log < Rs_slog.Stable_log.entry_count log);
  System.crash sys (g 0);
  let report = System.restart sys (g 0) in
  Alcotest.(check int) "phase two resumed" 1
    (List.length
       (Core.Tables.Recovery_info.committing_actions report.Core.Tables.Recovery_report.info));
  System.quiesce sys;
  Alcotest.(check int) "resumed action finished" 0 (Guardian.coordinating g0);
  Alcotest.(check (option int)) "x committed" (Some 5) (Helpers.committed_int g0 "x");
  Alcotest.(check (option int)) "y committed" (Some 5)
    (Helpers.committed_int (System.guardian sys (g 1)) "y");
  (* Push the resumed done record to the device, then check the log: one
     committed record per action, done after committing. *)
  Rs_slog.Stable_log.force (Core.Hybrid_rs.log (Guardian.rs g0));
  Alcotest.(check int) "log well-formed" 0
    (List.length (Core.Log_check.check_log (Core.Hybrid_rs.log (Guardian.rs g0))))

(* Recovery reopens the guardian's log directory: the guardian must hand
   out the reopened handle, or the fsck that the explorer, the nemesis
   and the harness run reads a stale segment table. *)
let test_restart_reopens_log_dir () =
  let sys = System.create ~n:1 () in
  let g0 = System.guardian sys (g 0) in
  let _ = submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" 0) ] in
  System.crash sys (g 0);
  ignore (System.restart sys (g 0));
  Alcotest.(check bool) "log_dir is the recovered dir" true
    (Guardian.log_dir g0 == Core.Hybrid_rs.dir (Guardian.rs g0));
  let segments () = List.length (Rs_slog.Log_dir.segment_ids (Guardian.log_dir g0)) in
  let before = segments () in
  let i = ref 0 in
  while segments () = before && !i < 1000 do
    incr i;
    ignore (submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" !i) ])
  done;
  Alcotest.(check bool) "log grew a new segment" true (segments () > before);
  Alcotest.(check (list string)) "segment fsck clean" []
    (List.map (Format.asprintf "%a" Core.Log_check.pp_issue)
       (Core.Log_check.check_segments (Guardian.log_dir g0)))

let suite =
  [
    Alcotest.test_case "coordinators forget finished actions" `Quick test_coordinators_forget;
    Alcotest.test_case "lost done record resumes phase two" `Quick
      test_lost_done_resumes_phase_two;
    Alcotest.test_case "restart reopens the log directory" `Quick test_restart_reopens_log_dir;
    Alcotest.test_case "distributed commit" `Quick test_distributed_commit;
    Alcotest.test_case "commit survives all crashing" `Quick test_commit_survives_all_crashes;
    Alcotest.test_case "participant down aborts" `Quick test_participant_down_aborts;
    Alcotest.test_case "crash before prepare arrives" `Quick test_participant_crash_before_prepare_arrives;
    Alcotest.test_case "crash matrix: participant" `Slow (crash_matrix (g 1));
    Alcotest.test_case "crash matrix: coordinator" `Slow (crash_matrix (g 0));
    Alcotest.test_case "lock wait serializes writers" `Quick test_lock_wait_serializes;
    Alcotest.test_case "upgrade deadlock times out" `Quick test_upgrade_deadlock_times_out;
    Alcotest.test_case "crash kills lock holder mid-wait" `Quick
      test_crash_kills_lock_holder_mid_wait;
    Alcotest.test_case "message loss tolerated" `Quick test_message_loss_tolerated;
    Alcotest.test_case "query during preparing phase" `Quick test_query_during_preparing;
    Alcotest.test_case "bank sweep over seeds" `Slow test_bank_many_seeds;
    Alcotest.test_case "housekeeping under traffic" `Quick test_housekeeping_under_traffic;
    Alcotest.test_case "automatic housekeeping policy" `Quick test_auto_housekeeping;
    Alcotest.test_case "large state: checkpoint once a segment can come back" `Quick
      test_large_state_checkpoint_trigger;
    Alcotest.test_case "large state: crashes across checkpoints" `Quick
      test_large_state_crash_sweep;
    Alcotest.test_case "housekeep during a background checkpoint" `Quick
      test_housekeep_during_checkpoint;
    Alcotest.test_case "incremental background checkpointing" `Quick
      test_incremental_auto_housekeeping;
    Alcotest.test_case "early prepare distributed" `Quick test_early_prepare_distributed;
    Alcotest.test_case "crash matrix with early prepare (participant)" `Slow
      (crash_matrix_early (g 1));
    Alcotest.test_case "crash matrix with early prepare (coordinator)" `Slow
      (crash_matrix_early (g 0));
    Alcotest.test_case "multi-action crash fuzz" `Slow test_multi_action_crash_fuzz;
    Alcotest.test_case "partition blocks then heals" `Quick test_partition_blocks_then_heals;
  ]
