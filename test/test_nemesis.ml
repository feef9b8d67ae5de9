(* The nemesis under load: seeded fault composition over every workload
   profile, the three lock/log/handle spec monitors (unit-tested against
   hand-built violating traces), determinism of the whole run, and the
   streaming monitors: they agree with their list folds, and they judge
   every event since the last clear, however long the run. *)

module Nemesis = Rs_explore.Nemesis
module Load = Rs_load.Load
module Trace = Rs_obs.Trace
module Monitor = Rs_obs.Monitor
module Heap = Rs_objstore.Heap

let base =
  {
    Nemesis.default with
    guardians = 3;
    clients = 4;
    duration = 60.0;
    events = 5;
  }

let seeds = [ 2; 3; 5; 7; 11; 13 ]

let run_clean name cfg =
  let o = Nemesis.run cfg in
  if o.Nemesis.violations <> [] then
    Alcotest.failf "%s (seed %d): %d violation(s):\n  %s" name cfg.Nemesis.seed
      (List.length o.violations)
      (String.concat "\n  " o.violations);
  o

let profile_seeds name profile () =
  let outs = List.map (fun seed -> run_clean name { base with seed; profile }) seeds in
  (* Not vacuous: across the seed set the schedule must actually compose
     decay, partition, and crash faults, and commit real traffic. *)
  let kinds k =
    List.concat_map (fun o -> o.Nemesis.fired) outs
    |> List.filter (fun e -> e.Nemesis.kind = k)
    |> List.length
  in
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " fired somewhere") true (kinds k > 0))
    [ "decay"; "partition"; "crash" ];
  List.iter
    (fun o -> Alcotest.(check bool) "committed traffic" true (o.Nemesis.stats.committed > 0))
    outs

(* Every profile survives the composed decay+partition+crash schedule on
   every shipped seed, with all oracles and monitors clean. *)
let test_bank_seeds = profile_seeds "bank" Load.Bank
let test_reservation_seeds = profile_seeds "reservation" Load.Reservation
let test_queue_seeds = profile_seeds "queue" Load.Queue
let test_saga_seeds = profile_seeds "saga" Load.Saga

(* Queue runs actually exercise both invariant sides: some committed
   traffic and some deliberate empty-dequeue aborts. *)
let test_queue_exercises_both_sides () =
  let o = run_clean "queue" { base with seed = 3; profile = Load.Queue } in
  Alcotest.(check bool) "commits" true (o.stats.committed > 0);
  Alcotest.(check bool) "empty dequeues aborted deliberately" true
    (o.stats.deliberate_aborts > 0)

(* Saga runs walk the compensation path on some shipped seed — leg two
   must deliberately fail somewhere, or "no half-applied saga survives" is
   vacuously true. The runs must still come out clean, which (through
   [Saga.check]) means every such failure was in fact compensated. *)
let test_saga_compensates () =
  let compensated =
    List.exists
      (fun seed ->
        let o =
          run_clean "saga"
            { base with seed; profile = Load.Saga; abort_rate = 0.15; crash_weight = 4 }
        in
        o.stats.deliberate_aborts > 0)
      seeds
  in
  Alcotest.(check bool) "some seed deliberately fails a leg two" true compensated

(* Replicated mode: on at least one seed the crash of the replicated
   shard finds a current replica and promotes the standby instead of
   cold-restarting — and the run is still clean end to end. *)
let test_replicated_promotes () =
  let outs =
    List.map
      (fun seed ->
        run_clean "replicated"
          {
            base with
            seed;
            replicated = true;
            events = 4;
            crash_weight = 6;
            decay_weight = 1;
            partition_weight = 1;
          })
      [ 1; 2; 3; 4; 5 ]
  in
  let promoted =
    List.exists
      (fun o -> List.exists (fun e -> e.Nemesis.kind = "promote") o.Nemesis.fired)
      outs
  in
  Alcotest.(check bool) "some seed promotes the standby" true promoted

(* Same seed, same everything: stats, fired schedule, and the full trace
   byte for byte. *)
let test_same_seed_byte_identical () =
  let cfg = { base with seed = 7; profile = Load.Bank } in
  let o1 = Nemesis.run cfg in
  let o2 = Nemesis.run cfg in
  Alcotest.(check bool) "same stats" true (o1.Nemesis.stats = o2.Nemesis.stats);
  Alcotest.(check bool) "same fired events" true (o1.fired = o2.fired);
  Alcotest.(check bool) "trace is not empty" true (o1.trace <> "");
  Alcotest.(check string) "byte-identical trace" o1.trace o2.trace;
  let o3 = Nemesis.run { cfg with seed = 8 } in
  Alcotest.(check bool) "different seed differs" true (o1.trace <> o3.Nemesis.trace)

(* --- monitor unit tests over hand-built traces ------------------------- *)

let recs = Helpers.recs
let fires = Helpers.fires
let details = Helpers.details

let lw log addr = Trace.Log_write { log; addr; bytes = 8 }

let test_log_monotonic_unit () =
  (* Violating: the labeled stream's addresses go backward. *)
  let bad = recs [ lw "G0" 0; lw "G0" 64; lw "G0" 32 ] in
  Alcotest.(check bool) "backward write caught" true
    (fires "log-monotonicity" (Monitor.log_monotonic_on bad));
  (* A switch forgives: the stream legitimately restarted. *)
  let switched = recs [ lw "G0" 64; Trace.Log_switch { log = "G0" }; lw "G0" 0 ] in
  Alcotest.(check int) "switch forgives" 0 (List.length (Monitor.log_monotonic_on switched));
  (* Streams are per label: the pending log interleaves below the current
     log's addresses without tripping anything. *)
  let interleaved = recs [ lw "G0" 512; lw "G0:pending" 0; lw "G0" 576; lw "G0:pending" 64 ] in
  Alcotest.(check int) "labels independent" 0 (List.length (Monitor.log_monotonic_on interleaved));
  (* A crash forgives the guardian's streams, pending included. *)
  let crashed =
    recs [ lw "G0" 512; lw "G0:pending" 64; Trace.Crash { gid = "G0" }; lw "G0" 0; lw "G0:pending" 0 ]
  in
  Alcotest.(check int) "crash forgives" 0 (List.length (Monitor.log_monotonic_on crashed));
  (* ...but only that guardian's. *)
  let other = recs [ lw "G1" 512; Trace.Crash { gid = "G0" }; lw "G1" 0 ] in
  Alcotest.(check bool) "other guardian still caught" true
    (fires "log-monotonicity" (Monitor.log_monotonic_on other))

let acq aid addr kind = Trace.Lock_acquire { heap = "G0"; aid; addr; kind }
let rel aid addr = Trace.Lock_release { heap = "G0"; aid; addr }

let wait aid addr write =
  Trace.Lock_wait { heap = "G0"; aid; holder = "x"; addr; write }

let test_lock_legal_unit () =
  (* Write grant over a live read holder. *)
  let overlap = recs [ acq "a" 1 Trace.Read; acq "b" 1 Trace.Write ] in
  Alcotest.(check bool) "write-over-read caught" true
    (fires "lock-legality" (Monitor.lock_legal_on overlap));
  (* Read grant over a live write holder. *)
  let overlap2 = recs [ acq "a" 1 Trace.Write; acq "b" 1 Trace.Read ] in
  Alcotest.(check bool) "read-over-write caught" true
    (fires "lock-legality" (Monitor.lock_legal_on overlap2));
  (* The sole reader upgrading in place is legal. *)
  let upgrade = recs [ acq "a" 1 Trace.Read; acq "a" 1 Trace.Write; rel "a" 1 ] in
  Alcotest.(check int) "self upgrade legal" 0 (List.length (Monitor.lock_legal_on upgrade));
  (* Release then re-grant is legal; so is serving the queued writer. *)
  let served = recs [ acq "a" 1 Trace.Write; wait "b" 1 true; rel "a" 1; acq "b" 1 Trace.Write ] in
  Alcotest.(check int) "queue service legal" 0 (List.length (Monitor.lock_legal_on served));
  (* A direct read grant past another action's queued writer is barging. *)
  let barged =
    recs [ acq "a" 1 Trace.Read; wait "b" 1 true; acq "c" 1 Trace.Read ]
  in
  Alcotest.(check bool) "barging caught" true
    (fires "lock-legality" (Monitor.lock_legal_on barged));
  (* A crash clears the heap's lock state, and so does a fresh heap
     taking the label. *)
  let crashed = recs [ acq "a" 1 Trace.Write; Trace.Crash { gid = "G0" }; acq "b" 1 Trace.Write ] in
  Alcotest.(check int) "crash clears holders" 0 (List.length (Monitor.lock_legal_on crashed));
  let relabeled =
    recs [ acq "a" 1 Trace.Write; Trace.Heap_label { heap = "G0" }; acq "b" 1 Trace.Write ]
  in
  Alcotest.(check int) "fresh heap clears holders" 0 (List.length (Monitor.lock_legal_on relabeled))

let submit aid = Trace.Handle_submit { gid = "G0"; aid }
let resolve aid c = Trace.Handle_resolve { gid = "G0"; aid; committed = c }

let test_handle_liveness_unit () =
  (* A submitted handle that never resolves, with every guardian up. *)
  let stuck = recs [ submit "a1"; resolve "a1" true; submit "a2" ] in
  Alcotest.(check bool) "stuck handle caught" true
    (fires "handle-liveness" (Monitor.handle_liveness_on stuck));
  let clean = recs [ submit "a1"; resolve "a1" true; submit "a2"; resolve "a2" false ] in
  Alcotest.(check int) "resolved handles clean" 0
    (List.length (Monitor.handle_liveness_on clean));
  (* A guardian that crashed and never came back: the monitor abstains —
     its in-flight handles legitimately dangle. *)
  let down = recs [ submit "a1"; Trace.Crash { gid = "G0" } ] in
  Alcotest.(check int) "dead-forever guardian abstains" 0
    (List.length (Monitor.handle_liveness_on down));
  (* But once it restarts, unresolved handles are violations again. *)
  let back =
    recs
      [
        submit "a1";
        Trace.Crash { gid = "G0" };
        Trace.Restart { gid = "G0"; prepared = 0; committing = 0 };
      ]
  in
  Alcotest.(check bool) "restart re-arms the check" true
    (fires "handle-liveness" (Monitor.handle_liveness_on back));
  (* A promotion stands in for the dead guardian's restart. *)
  let promoted =
    recs
      [
        submit "a1";
        Trace.Crash { gid = "G0" };
        Trace.Repl_promote { heir = "G2"; for_ = "G0"; epoch = 2; watermark = 100 };
      ]
  in
  Alcotest.(check bool) "promotion re-arms the check" true
    (fires "handle-liveness" (Monitor.handle_liveness_on promoted))

(* --- streaming: every event since the last clear ----------------------- *)

(* A violation at event 1 must still be reported after a run far longer
   than any ring: the monitors fold every event as it is emitted. *)
let test_early_violation_caught () =
  Trace.clear ();
  Trace.emit (lw "probe" 64);
  Trace.emit (lw "probe" 0);
  let t = Load.create { Load.default with seed = 3 } in
  Load.start t;
  ignore (Load.drain t);
  let total = Trace.total () in
  let vs = details (Monitor.check ()) in
  Trace.clear ();
  Alcotest.(check bool) "the run outlasts an 8192-event ring" true (total > 8192);
  Alcotest.(check (list string)) "the event-1 violation, and nothing else"
    [ "[log-monotonicity] log probe address went backward 64 -> 0 (seq 1)" ]
    vs

(* On a whole recorded nemesis run, clean and with the read-barging bug
   seeded, the live folds and the [_on] folds over the ring agree. *)
let test_stream_matches_fold () =
  let capacity = 1 lsl 17 in
  Fun.protect ~finally:(fun () ->
      Trace.set_capacity 0;
      Trace.clear ())
  @@ fun () ->
  Trace.set_capacity capacity;
  List.iter
    (fun barging ->
      Rs_util.Fault_hook.with_mutations
        (if barging then [ Heap.Read_barging ] else [])
        (fun () -> ignore (Nemesis.run { base with seed = 5; profile = Load.Bank; clients = 8 }));
      Alcotest.(check bool) "the ring holds the whole run" true (Trace.total () <= capacity);
      let streamed = details (Monitor.check ()) in
      Alcotest.(check (list string))
        "streamed = folded"
        (details (Helpers.all_on (Trace.events ())))
        streamed;
      Alcotest.(check bool) "violations iff the bug is seeded" barging (streamed <> []))
    [ false; true ]

(* --- the deliberate bug: pre-wait-queue read barging -------------------- *)

(* Re-enable the pre-PR-5 behaviour (read locks granted directly past
   queued upgraders) and demand the lock-legality monitor catches it under
   contended Bank traffic; the identical run without the mutation must be
   clean, so it is the barging that fires, not the workload. *)
let test_barging_mutation_caught () =
  let cfg =
    {
      Load.default with
      seed = 5;
      profile = Load.Bank;
      guardians = 2;
      objects_per_guardian = 2;
      conflict = 0.9;
      duration = 80.0;
      mode = Load.Closed { clients = 8; think = 0.5 };
    }
  in
  let lock_violations mutated =
    Rs_util.Fault_hook.with_mutations (if mutated then [ Heap.Read_barging ] else []) @@ fun () ->
    Trace.clear ();
    let t = Load.create cfg in
    Load.start t;
    ignore (Load.drain t);
    Monitor.lock_legal ()
  in
  Alcotest.(check int) "clean run has no lock violations" 0
    (List.length (lock_violations false));
  let vs = lock_violations true in
  Alcotest.(check bool) "barging mutation caught by lock-legality" true (vs <> []);
  Trace.clear ()

(* The always-on monitors read directly after a nemesis run, not through
   its verdict (every case starts from a cleared trace). *)
let test_monitors_clean () =
  ignore (Nemesis.run { base with seed = 2; profile = Load.Bank });
  match Monitor.check () with
  | [] -> ()
  | vs ->
      Alcotest.failf "%d monitor violation(s): %a" (List.length vs)
        (Format.pp_print_list Monitor.pp_violation)
        vs

let suite =
  [
    Alcotest.test_case "bank profile: seeded nemesis clean" `Quick test_bank_seeds;
    Alcotest.test_case "reservation profile: seeded nemesis clean" `Quick test_reservation_seeds;
    Alcotest.test_case "queue profile: seeded nemesis clean" `Quick test_queue_seeds;
    Alcotest.test_case "saga profile: seeded nemesis clean" `Quick test_saga_seeds;
    Alcotest.test_case "queue exercises both sides" `Quick test_queue_exercises_both_sides;
    Alcotest.test_case "saga compensates somewhere" `Quick test_saga_compensates;
    Alcotest.test_case "replicated: standby promotion under nemesis" `Quick
      test_replicated_promotes;
    Alcotest.test_case "same seed, byte-identical trace" `Quick test_same_seed_byte_identical;
    Alcotest.test_case "log-monotonicity unit" `Quick test_log_monotonic_unit;
    Alcotest.test_case "lock-legality unit" `Quick test_lock_legal_unit;
    Alcotest.test_case "handle-liveness unit" `Quick test_handle_liveness_unit;
    Alcotest.test_case "violation at event 1 caught" `Quick test_early_violation_caught;
    Alcotest.test_case "streamed monitors match list folds" `Quick test_stream_matches_fold;
    Alcotest.test_case "barging mutation caught" `Quick test_barging_mutation_caught;
    Alcotest.test_case "spec monitors clean" `Quick test_monitors_clean;
  ]
