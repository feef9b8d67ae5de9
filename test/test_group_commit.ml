(* Tests for the group-commit layer: the Force_scheduler unit behaviour
   (coalescing, the synchronous fast path, callback ordering, stop) and
   its integration with the recovery systems — N concurrent actions ride
   one physical force, and tokens buffered but not yet flushed die with a
   crash, resolving by presumed abort. *)

module Fsched = Rs_slog.Force_scheduler
module Log = Rs_slog.Stable_log
module Store = Rs_storage.Stable_store
module Scheme = Rs_workload.Scheme
module Synth = Rs_workload.Synth
module Metrics = Rs_obs.Metrics

let mk_log () = (Helpers.seg_log ()).log

(* A manual timer: armed thunks pile up until the test fires them. *)
let manual_timer () =
  let armed = ref [] in
  let timer ~delay:_ k = armed := !armed @ [ k ] in
  (armed, timer)

let fire armed =
  let ks = !armed in
  armed := [];
  List.iter (fun k -> k ()) ks

let test_coalescing () =
  let log = mk_log () in
  let armed, timer = manual_timer () in
  let sched = Fsched.create ~window:2.0 ~timer log in
  Alcotest.(check bool) "batched" true (Fsched.batched sched);
  let fired = ref [] in
  for i = 1 to 5 do
    ignore (Log.write log (Printf.sprintf "entry%d" i));
    Fsched.enqueue sched ~on_durable:(fun () -> fired := i :: !fired) ()
  done;
  Alcotest.(check int) "no force before the window closes" 0 (Log.forces log);
  Alcotest.(check int) "five tokens pending" 5 (Fsched.pending sched);
  Alcotest.(check int) "one armed flush covers them all" 1 (List.length !armed);
  Alcotest.(check (list int)) "no callback before the force" [] !fired;
  fire armed;
  Alcotest.(check int) "one physical force" 1 (Log.forces log);
  Alcotest.(check int) "all five entries stable" 5 (Log.forced_count log);
  Alcotest.(check (list int)) "callbacks in enqueue order" [ 1; 2; 3; 4; 5 ]
    (List.rev !fired);
  Alcotest.(check int) "nothing pending" 0 (Fsched.pending sched)

let test_sync_fast_path () =
  let log = mk_log () in
  (* No window, no timer: every enqueue forces and completes in place. *)
  let sched = Fsched.create log in
  Alcotest.(check bool) "not batched" false (Fsched.batched sched);
  let fired = ref 0 in
  for _ = 1 to 3 do
    ignore (Log.write log "e");
    Fsched.enqueue sched ~on_durable:(fun () -> incr fired) ();
    Alcotest.(check int) "callback ran synchronously" (Log.forces log) !fired
  done;
  Alcotest.(check int) "one force per enqueue" 3 (Log.forces log);
  (* Empty flush is free: no waiters, no force. *)
  Fsched.flush sched;
  Alcotest.(check int) "empty flush forces nothing" 3 (Log.forces log)

let test_reenqueue_from_callback () =
  let log = mk_log () in
  let armed, timer = manual_timer () in
  let sched = Fsched.create ~window:1.0 ~timer log in
  let order = ref [] in
  ignore (Log.write log "first");
  Fsched.enqueue sched
    ~on_durable:(fun () ->
      order := `First :: !order;
      (* A completion chaining a new durable write must ride the *next*
         batch, not the one that just flushed. *)
      ignore (Log.write log "second");
      Fsched.enqueue sched ~on_durable:(fun () -> order := `Second :: !order) ())
    ();
  fire armed;
  Alcotest.(check int) "first batch forced" 1 (Log.forces log);
  Alcotest.(check bool) "chained token re-armed the timer" true (!armed <> []);
  Alcotest.(check int) "chained token still pending" 1 (Fsched.pending sched);
  fire armed;
  Alcotest.(check int) "second batch forced" 2 (Log.forces log);
  Alcotest.(check (list bool)) "both completions, in order" [ true; false ]
    (List.map (fun s -> s = `First) (List.rev !order))

let test_stop_drops_tokens () =
  let log = mk_log () in
  let armed, timer = manual_timer () in
  let sched = Fsched.create ~window:1.0 ~timer log in
  ignore (Log.write log "doomed");
  let fired = ref false in
  Fsched.enqueue sched ~on_durable:(fun () -> fired := true) ();
  Fsched.stop sched;
  fire armed (* the stale timer must be a no-op *);
  Fsched.enqueue sched ~on_durable:(fun () -> fired := true) ();
  Fsched.flush sched;
  Alcotest.(check bool) "no callback after stop" false !fired;
  Alcotest.(check int) "no force after stop" 0 (Log.forces log)

(* Retargeting the scheduler with tokens outstanding (the housekeeping
   log switch) must settle them against the log they were enqueued for:
   a crash before the new log's first force may then lose the new log
   entirely, but never an acknowledged token's entry. *)
let test_set_log_settles_waiters () =
  let old = Helpers.seg_log () in
  let old_log = old.log in
  let new_log = mk_log () in
  let armed, timer = manual_timer () in
  let sched = Fsched.create ~window:2.0 ~timer old_log in
  ignore (Log.write old_log "pending");
  let fired = ref 0 in
  Fsched.enqueue sched ~on_durable:(fun () -> incr fired) ();
  Alcotest.(check int) "token pending before the swap" 1 (Fsched.pending sched);
  Fsched.set_log sched new_log;
  Alcotest.(check int) "swap settled the token" 1 !fired;
  Alcotest.(check int) "old log forced" 1 (Log.forces old_log);
  Alcotest.(check int) "new log untouched" 0 (Log.forces new_log);
  Alcotest.(check int) "nothing pending" 0 (Fsched.pending sched);
  (* Crash now — before any force of the new log. The acknowledged entry
     must be recoverable from the old log's store. *)
  let reopened = Helpers.reopen old in
  Alcotest.(check int) "entry survives on the old log" 1 (Log.forced_count reopened);
  fire armed (* the batch's stale timer is an empty flush *);
  Alcotest.(check int) "no double notification" 1 !fired

(* A raising on_durable must not starve the rest of its batch: the force
   was stable for all of them. All callbacks run; the first failure is
   re-raised once the batch is settled. *)
let test_flush_runs_all_callbacks_on_raise () =
  let log = mk_log () in
  let _armed, timer = manual_timer () in
  let sched = Fsched.create ~window:1.0 ~timer log in
  let fired = ref [] in
  let note i () = fired := i :: !fired in
  let raising i () =
    fired := i :: !fired;
    failwith (Printf.sprintf "boom-%d" i)
  in
  ignore (Log.write log "a");
  Fsched.enqueue sched ~on_durable:(raising 1) ();
  ignore (Log.write log "b");
  Fsched.enqueue sched ~on_durable:(raising 2) ();
  ignore (Log.write log "c");
  Fsched.enqueue sched ~on_durable:(note 3) ();
  (match Fsched.flush sched with
  | () -> Alcotest.fail "expected the first callback failure to propagate"
  | exception Failure msg ->
      Alcotest.(check string) "first failure re-raised" "boom-1" msg);
  Alcotest.(check (list int)) "every callback in the batch ran" [ 1; 2; 3 ]
    (List.rev !fired);
  Alcotest.(check int) "batch settled despite the raise" 0 (Fsched.pending sched);
  Alcotest.(check int) "one physical force" 1 (Log.forces log)

(* Integration: three concurrent actions on a windowed hybrid scheme.
   Their three prepares share one force, their three commits share a
   second — six durability tokens, two physical forces. *)
let test_hybrid_batches_actions () =
  let scheme = Scheme.hybrid () in
  let t = Synth.create ~seed:3 ~scheme ~n_objects:6 () in
  let armed, timer = manual_timer () in
  let sched = Option.get (Scheme.scheduler scheme) in
  Fsched.configure sched ~window:2.0 ~timer:(Some timer);
  let log = Option.get (Scheme.current_log scheme) in
  let f0 = Log.forces log in
  let batches0 =
    Option.value ~default:0 (Metrics.find_counter Metrics.default "slog.group_commits")
  in
  let done_ = ref 0 in
  for c = 0 to 2 do
    Synth.run_action_async t
      ~indices:[ 2 * c; (2 * c) + 1 ]
      ~outcome:`Commit
      ~on_done:(fun () -> incr done_)
  done;
  Alcotest.(check int) "prepares buffered, no force yet" 0 (Log.forces log - f0);
  Alcotest.(check int) "no action durable yet" 0 !done_;
  (* First flush covers the prepares; their callbacks issue the commits,
     which arm a second batch. *)
  while !armed <> [] do
    fire armed
  done;
  Alcotest.(check int) "all three actions durable" 3 !done_;
  Alcotest.(check int) "six tokens rode two physical forces" 2 (Log.forces log - f0);
  Alcotest.(check int) "two group commits recorded" 2
    (Option.value ~default:0 (Metrics.find_counter Metrics.default "slog.group_commits")
    - batches0);
  (* The durable state must be exactly the three committed actions. *)
  Alcotest.(check (array int)) "counters committed" (Array.make 6 1) (Synth.counters t)

(* A crash between enqueue and flush loses the buffered tokens: the
   prepared records were never forced, so recovery finds nothing in doubt
   and the action resolves by presumed abort. *)
let test_crash_before_flush () =
  let scheme = Scheme.hybrid () in
  let t = Synth.create ~seed:5 ~scheme ~n_objects:2 () in
  let sched = Option.get (Scheme.scheduler scheme) in
  (* A timer that never fires: the window stays open across the crash. *)
  Fsched.configure sched ~window:10.0 ~timer:(Some (fun ~delay:_ _ -> ()));
  let done_ = ref false in
  Synth.run_action_async t ~indices:[ 0; 1 ] ~outcome:`Commit
    ~on_done:(fun () -> done_ := true);
  Alcotest.(check bool) "not durable before the flush" false !done_;
  let t', info = Synth.crash_recover t in
  Alcotest.(check bool) "never acknowledged" false !done_;
  Alcotest.(check int) "nothing prepared survived" 0
    (List.length (Core.Tables.Recovery_report.prepared_actions info));
  Alcotest.(check (array int)) "effects gone: presumed abort" [| 0; 0 |]
    (Synth.counters t');
  (* Counterpart: once the flushes happen and the action is acknowledged,
     its effects must survive the same crash. *)
  let done2 = ref false in
  Synth.run_action_async t' ~indices:[ 0; 1 ] ~outcome:`Commit
    ~on_done:(fun () -> done2 := true);
  Alcotest.(check bool) "sync scheduler after recovery acks in place" true !done2;
  let t'', _ = Synth.crash_recover t' in
  Alcotest.(check (array int)) "acknowledged effects survive" [| 1; 1 |]
    (Synth.counters t'')

(* A checkpoint taken while group-commit tokens are outstanding settles
   them against the old log before the switch retires it, on both logs:
   the action is acknowledged and its effects survive a crash. *)
let test_snapshot_settles_tokens make () =
  let scheme = make () in
  let t = Synth.create ~seed:5 ~scheme ~n_objects:4 () in
  let sched = Option.get (Scheme.scheduler scheme) in
  Fsched.configure sched ~window:10.0 ~timer:(Some (fun ~delay:_ _ -> ()));
  let done_ = ref false in
  Synth.run_action_async t ~indices:[ 0; 1 ] ~outcome:`Commit
    ~on_done:(fun () -> done_ := true);
  Alcotest.(check int) "one token pending" 1 (Fsched.pending sched);
  Scheme.housekeep scheme Scheme.Snapshot;
  Alcotest.(check bool) "acknowledged by the checkpoint" true !done_;
  Alcotest.(check int) "nothing pending" 0 (Fsched.pending sched);
  let t', _ = Synth.crash_recover t in
  Alcotest.(check (array int)) "effects survive" [| 1; 1; 0; 0 |] (Synth.counters t')

let suite =
  [
    Alcotest.test_case "batch coalescing: N writers, one force" `Quick test_coalescing;
    Alcotest.test_case "zero window: synchronous fast path" `Quick test_sync_fast_path;
    Alcotest.test_case "re-enqueue from completion callback" `Quick
      test_reenqueue_from_callback;
    Alcotest.test_case "stop drops outstanding tokens" `Quick test_stop_drops_tokens;
    Alcotest.test_case "set_log settles outstanding tokens first" `Quick
      test_set_log_settles_waiters;
    Alcotest.test_case "raising callback does not starve its batch" `Quick
      test_flush_runs_all_callbacks_on_raise;
    Alcotest.test_case "hybrid: concurrent actions share forces" `Quick
      test_hybrid_batches_actions;
    Alcotest.test_case "crash before flush: presumed abort" `Quick test_crash_before_flush;
    Alcotest.test_case "simple: snapshot settles outstanding tokens" `Quick
      (test_snapshot_settles_tokens (fun () -> Scheme.simple ()));
    Alcotest.test_case "hybrid: snapshot settles outstanding tokens" `Quick
      (test_snapshot_settles_tokens (fun () -> Scheme.hybrid ()));
  ]
