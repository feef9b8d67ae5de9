(* Tests for Rs_repl: log-shipping replication and promotion-based
   failover. Covers the byte-identical replica invariant, segment-framed
   ship batches straddling segment boundaries (seeded fuzz), replica
   reopen/reapply after every ack, duplicate/reordered delivery
   idempotency, standby and primary crash recovery, and failover with
   directory re-routing. *)

module Repl = Rs_repl.Repl
module Replica = Repl.Replica
module Pair = Repl.Pair
module System = Rs_guardian.System
module Guardian = Rs_guardian.Guardian
module Heap = Rs_objstore.Heap
module Value = Rs_objstore.Value
module Fvalue = Rs_objstore.Fvalue
module Hybrid_rs = Core.Hybrid_rs
module Log_entry = Core.Log_entry
module Log = Rs_slog.Stable_log
module Log_dir = Rs_slog.Log_dir
module Placement = Rs_dir.Placement
module Directory = Rs_dir.Directory
module Monitor = Rs_obs.Monitor
module Gid = Rs_util.Gid
module Aid = Rs_util.Aid
module Uid = Rs_util.Uid

let g = Gid.of_int

let set_var = Helpers.set_var

let submit_and_wait sys ~coordinator ~steps =
  let h = System.submit sys ~coordinator ~steps in
  let outcome = System.await sys h in
  System.quiesce sys;
  outcome

(* All forced entries of a log, [(addr, raw)] in address order. *)
let forced_entries log =
  Log.read_forward log (Log.low_water log)
  |> Seq.filter (fun (a, _) -> Log.is_forced log a)
  |> List.of_seq

(* The replica must be a byte-identical copy of the primary's forced
   prefix: same addresses, same raw bytes, same segment indexes. *)
let check_prefix ~primary_log ~replica =
  let plain = forced_entries primary_log and rlain = forced_entries (Replica.log replica) in
  Alcotest.(check int) "replica holds the full forced prefix" (List.length plain)
    (List.length rlain);
  List.iter2
    (fun (pa, praw) (ra, rraw) ->
      Alcotest.(check int) "same address" pa ra;
      Alcotest.(check string) "same bytes" praw rraw)
    plain rlain;
  Alcotest.(check (list int)) "same segment indexes"
    (List.map fst (Log.segment_table primary_log))
    (List.map fst (Log.segment_table (Replica.log replica)));
  Alcotest.(check (option string)) "not diverged" None (Replica.diverged replica)

let primary_log sys gid = Hybrid_rs.log (Guardian.rs (System.guardian sys gid))

let mk_pair ?(seed = 17) () =
  let sys = System.create ~seed ~latency:1.0 ~n:2 () in
  let p = Pair.create ~system:sys ~primary:(g 0) ~standby:(g 1) () in
  System.quiesce sys;
  (sys, p)

(* --- live shipping ------------------------------------------------------ *)

let test_ship_mirrors_log () =
  let sys, p = mk_pair () in
  for i = 1 to 12 do
    let outcome =
      submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" i) ]
    in
    Alcotest.(check bool) "commits" true (outcome = System.Committed)
  done;
  Alcotest.(check int) "no lag after quiesce" 0 (Pair.lag_entries p);
  Alcotest.(check int) "epoch still 1" 1 (Pair.epoch p);
  let r = Option.get (Pair.replica p) in
  check_prefix ~primary_log:(primary_log sys (g 0)) ~replica:r;
  Alcotest.(check int) "acked = applied watermark" (Pair.acked p) (Replica.watermark r)

let test_ship_survives_housekeeping () =
  (* A housekeeping switch restarts log addresses; the pair must re-seed
     the standby with a reset ship and stay byte-identical. *)
  let sys, p = mk_pair () in
  for i = 1 to 6 do
    ignore (submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" i) ])
  done;
  ignore (Guardian.housekeep (System.guardian sys (g 0)) Hybrid_rs.Snapshot);
  for i = 7 to 12 do
    ignore (submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" i) ])
  done;
  System.quiesce sys;
  check_prefix ~primary_log:(primary_log sys (g 0)) ~replica:(Option.get (Pair.replica p))

(* --- segment-framed ship batches: seeded fuzz --------------------------- *)

(* Drive a standalone primary-shaped log with tiny segments so ship
   batches straddle segment boundaries, capture the force batches through
   the observer, and feed them to a Replica directly. [reopen_every]
   simulates a standby crash after every n-th acked batch: invalidate,
   reopen, re-apply — the rebuilt image must match. *)
let run_fuzz ~seed ~reopen_every =
  let rnd = Random.State.make [| seed |] in
  let dir = Log_dir.create ~page_size:64 ~segment_pages:2 () in
  Log_dir.set_label dir "fuzz";
  let log = Log_dir.current dir in
  let r = Replica.create ~page_size:64 ~segment_pages:2 () in
  let acked = ref 0 in
  Log.set_on_force log
    (Some
       (fun fb ->
         (match
            Replica.apply r ~base:fb.Log.fb_base ~entries:fb.Log.fb_entries
              ~table:fb.Log.fb_table ~low_water:fb.Log.fb_low_water
          with
         | Replica.Applied -> ()
         | Replica.Gap _ -> Alcotest.fail "in-order ship must not gap");
         incr acked;
         if reopen_every > 0 && !acked mod reopen_every = 0 then begin
           Replica.invalidate r;
           Replica.reopen r
         end));
  let data_addrs = ref [] in
  let seq = ref 0 in
  for _step = 1 to 120 do
    let c = Random.State.int rnd 100 in
    if c < 60 || !data_addrs = [] then begin
      let uid = Uid.of_int (1000 + Random.State.int rnd 40) in
      let version = Fvalue.of_int (Random.State.int rnd 10_000) in
      let a =
        Log.write log
          (Log_entry.encode
             (Log_entry.Data { uid = Some uid; otype = Log_entry.Atomic; aid = None; version }))
      in
      data_addrs := (uid, a) :: !data_addrs
    end
    else if c < 75 then begin
      incr seq;
      let aid = Aid.make ~coordinator:(g 0) ~seq:!seq in
      let n = 1 + Random.State.int rnd (min 3 (List.length !data_addrs)) in
      let pairs = List.filteri (fun i _ -> i < n) !data_addrs in
      ignore
        (Log.write log (Log_entry.encode (Log_entry.Prepared { aid; pairs = Some pairs; prev = None })));
      ignore
        (Log.write log
           (Log_entry.encode
              (if Random.State.bool rnd then Log_entry.Committed { aid; prev = None }
               else Log_entry.Aborted { aid; prev = None })))
    end
    else if c < 85 then
      ignore
        (Log.write log
           (Log_entry.encode
              (Log_entry.Base_committed
                 {
                   uid = Uid.of_int (2000 + Random.State.int rnd 20);
                   version = Fvalue.of_int (Random.State.int rnd 100);
                   prev = None;
                 })))
    else begin
      let n = 1 + Random.State.int rnd (min 4 (List.length !data_addrs)) in
      let cssl = List.filteri (fun i _ -> i < n) !data_addrs in
      ignore (Log.write log (Log_entry.encode (Log_entry.Committed_ss { cssl; prev = None })))
    end;
    if Random.State.int rnd 100 < 40 then Log.force log
  done;
  Log.force log;
  Alcotest.(check bool) "several segments allocated" true
    (List.length (Log.segment_table log) >= 2);
  let plain = forced_entries log and rlain = forced_entries (Replica.log r) in
  Alcotest.(check int) "entry count" (List.length plain) (List.length rlain);
  List.iter2
    (fun (pa, praw) (ra, rraw) ->
      Alcotest.(check int) "addr" pa ra;
      Alcotest.(check string) "bytes" praw rraw)
    plain rlain;
  Alcotest.(check (option string)) "no divergence" None (Replica.diverged r);
  Alcotest.(check int) "watermark = primary stream" (Log.stream_bytes log) (Replica.watermark r)

let test_fuzz_segment_straddling () =
  List.iter (fun seed -> run_fuzz ~seed ~reopen_every:0) [ 1; 2; 3; 4; 5 ]

let test_fuzz_reopen_after_every_ack () =
  List.iter (fun seed -> run_fuzz ~seed ~reopen_every:1) [ 6; 7; 8 ]

let test_duplicate_and_reordered_ships () =
  (* Capture the ship batches of a seeded run, then deliver them to a
     fresh replica with duplicates and a reordering: apply is idempotent
     by log address, and a batch past the watermark gaps and retries. *)
  let dir = Log_dir.create ~page_size:64 ~segment_pages:2 () in
  let log = Log_dir.current dir in
  let batches = ref [] in
  Log.set_on_force log (Some (fun fb -> batches := fb :: !batches));
  for i = 0 to 30 do
    ignore
      (Log.write log
         (Log_entry.encode
            (Log_entry.Data
               { uid = Some (Uid.of_int (1000 + i)); otype = Log_entry.Atomic; aid = None;
                 version = Fvalue.of_int i })));
    if i mod 3 = 0 then Log.force log
  done;
  Log.force log;
  let batches = List.rev !batches in
  Alcotest.(check bool) "enough batches" true (List.length batches >= 5);
  let apply r fb =
    Replica.apply r ~base:fb.Log.fb_base ~entries:fb.Log.fb_entries ~table:fb.Log.fb_table
      ~low_water:fb.Log.fb_low_water
  in
  let r = Replica.create ~page_size:64 ~segment_pages:2 () in
  (* Every batch delivered twice in a row: the duplicate is a no-op. *)
  List.iter
    (fun fb ->
      Alcotest.(check bool) "applies" true (apply r fb = Replica.Applied);
      let w = Replica.watermark r and n = Replica.applied_entries r in
      Alcotest.(check bool) "duplicate applies" true (apply r fb = Replica.Applied);
      Alcotest.(check int) "duplicate moves nothing" w (Replica.watermark r);
      Alcotest.(check int) "duplicate applies nothing" n (Replica.applied_entries r))
    batches;
  Alcotest.(check (option string)) "no divergence after duplicates" None (Replica.diverged r);
  (* Reordered: batch k+1 before batch k gaps, then both land. *)
  let r2 = Replica.create ~page_size:64 ~segment_pages:2 () in
  let rec deliver = function
    | a :: b :: rest ->
        (match apply r2 b with
        | Replica.Gap w -> Alcotest.(check int) "gap names the watermark" (Replica.watermark r2) w
        | Replica.Applied -> Alcotest.fail "out-of-order batch must gap");
        Alcotest.(check bool) "hole fills" true (apply r2 a = Replica.Applied);
        Alcotest.(check bool) "parked batch lands" true (apply r2 b = Replica.Applied);
        deliver rest
    | [ a ] -> Alcotest.(check bool) "last lands" true (apply r2 a = Replica.Applied)
    | [] -> ()
  in
  deliver batches;
  List.iter2
    (fun (pa, praw) (ra, rraw) ->
      Alcotest.(check int) "addr after reorder" pa ra;
      Alcotest.(check string) "bytes after reorder" praw rraw)
    (forced_entries log)
    (forced_entries (Replica.log r2));
  Alcotest.(check (option string)) "no divergence after reorder" None (Replica.diverged r2)

(* --- crashes without failover ------------------------------------------- *)

let test_standby_crash_resync () =
  let sys, p = mk_pair () in
  for i = 1 to 4 do
    ignore (submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" i) ])
  done;
  Pair.crash p (g 1);
  (* Commits continue while the standby is down; the pair accrues lag. *)
  for i = 5 to 9 do
    ignore (submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" i) ])
  done;
  Alcotest.(check bool) "lag while standby down" true (Pair.lag_entries p > 0);
  Pair.restart_standby p;
  System.quiesce sys;
  Alcotest.(check int) "resync catches up" 0 (Pair.lag_entries p);
  check_prefix ~primary_log:(primary_log sys (g 0)) ~replica:(Option.get (Pair.replica p))

let test_primary_cold_restart_reships () =
  let sys, p = mk_pair () in
  for i = 1 to 6 do
    ignore (submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" i) ])
  done;
  Pair.crash p (g 0);
  ignore (Pair.restart_primary p);
  System.quiesce sys;
  for i = 7 to 10 do
    ignore (submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" i) ])
  done;
  System.quiesce sys;
  Alcotest.(check int) "caught up" 0 (Pair.lag_entries p);
  Alcotest.(check int) "no failover happened" 0 (Pair.failovers p);
  check_prefix ~primary_log:(primary_log sys (g 0)) ~replica:(Option.get (Pair.replica p));
  Alcotest.(check (option int)) "state survived the restart" (Some 10)
    (Helpers.committed_int (System.guardian sys (g 0)) "x")

(* --- failover ----------------------------------------------------------- *)

let test_promote_preserves_commits () =
  let sys, p = mk_pair () in
  for i = 1 to 8 do
    ignore (submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" i) ]);
    ignore (submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "y" (i * 10)) ])
  done;
  Pair.crash p (g 0);
  System.quiesce sys;
  (* drain in-flight ships *)
  ignore (Pair.promote p);
  Alcotest.(check int) "epoch bumped" 2 (Pair.epoch p);
  Alcotest.(check int) "one failover" 1 (Pair.failovers p);
  Alcotest.(check bool) "heir is the new primary" true (Gid.equal (Pair.primary p) (g 1));
  let heir = System.guardian sys (g 1) in
  Alcotest.(check (option int)) "x survived failover" (Some 8) (Helpers.committed_int heir "x");
  Alcotest.(check (option int)) "y survived failover" (Some 80) (Helpers.committed_int heir "y");
  (* Clients learn the new address through the Guardian_down path (the
     directory test covers re-routing by old name); traffic submitted to
     the heir commits against the adopted image. *)
  (match System.submit sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" 99) ] with
  | _ -> Alcotest.fail "stale primary address must raise Guardian_down"
  | exception System.Guardian_down { gid } ->
      Alcotest.(check int) "down error names the dead primary" 0 (Gid.to_int gid));
  let outcome = submit_and_wait sys ~coordinator:(g 1) ~steps:[ (g 1, set_var "x" 99) ] in
  Alcotest.(check bool) "post-failover commit" true (outcome = System.Committed);
  Alcotest.(check (option int)) "new commit applied on heir" (Some 99) (Helpers.committed_int heir "x");
  (* Rejoin the old primary as the new standby and keep replicating. *)
  Pair.rejoin p;
  System.quiesce sys;
  for i = 1 to 4 do
    ignore (submit_and_wait sys ~coordinator:(g 1) ~steps:[ (g 1, set_var "z" i) ])
  done;
  System.quiesce sys;
  Alcotest.(check int) "replication resumed" 0 (Pair.lag_entries p);
  check_prefix ~primary_log:(primary_log sys (g 1)) ~replica:(Option.get (Pair.replica p));
  Alcotest.(check (option string)) "pair never diverged" None (Pair.diverged p)

let test_promote_matches_cold_recovery () =
  (* The promoted image must agree with what a cold restart of the
     primary would have recovered from its own log: run the identical
     seeded workload twice. *)
  let run_cold () =
    let sys = System.create ~seed:17 ~latency:1.0 ~n:2 () in
    for i = 1 to 8 do
      ignore (submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "v" i) ])
    done;
    System.crash sys (g 0);
    ignore (System.restart sys (g 0));
    System.quiesce sys;
    Helpers.committed_int (System.guardian sys (g 0)) "v"
  in
  let run_failover () =
    let sys, p = mk_pair ~seed:17 () in
    for i = 1 to 8 do
      ignore (submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "v" i) ])
    done;
    Pair.crash p (g 0);
    System.quiesce sys;
    ignore (Pair.promote p);
    Helpers.committed_int (System.guardian sys (g 1)) "v"
  in
  Alcotest.(check (option int)) "failover image = cold-recovery image" (run_cold ())
    (run_failover ())

(* Promotion brings the heir back up: the monitor that abstains while a
   crashed guardian stays down must judge again afterwards, so a handle
   submitted after the failover and never resolved is reported. *)
let test_promote_keeps_liveness_judged () =
  let sys, p = mk_pair () in
  ignore (submit_and_wait sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" 1) ]);
  Pair.crash p (g 0);
  System.quiesce sys;
  ignore (Pair.promote p);
  Rs_obs.Trace.emit (Rs_obs.Trace.Handle_submit { gid = "G1"; aid = "T1.99" });
  let dangling = Monitor.handle_liveness () in
  (* The dangling handle is this test's own; leave the wrapper's check clean. *)
  Rs_obs.Trace.clear ();
  Alcotest.(check int) "the unresolved handle is reported" 1 (List.length dangling)

let test_directory_retargets_on_failover () =
  (* Placement over shards G0/G1 with G2 as the warm standby for G0; a
     failover re-points G0's keys at the heir and traffic keeps flowing
     through the ordinary Directory.submit path. *)
  let sys = System.create ~seed:23 ~latency:1.0 ~n:3 () in
  let placement = Placement.create ~seed:5 ~shards:[ g 0; g 1 ] () in
  let d = Directory.create ~batch:8 ~system:sys ~placement () in
  let p = Pair.create ~directory:d ~system:sys ~primary:(g 0) ~standby:(g 2) () in
  System.quiesce sys;
  (* A key owned by G0. *)
  let key =
    let rec go i =
      let k = Printf.sprintf "k%d" i in
      if Gid.equal (Directory.locate d k) (g 0) then k else go (i + 1)
    in
    go 0
  in
  ignore (Directory.create_object d ~key ~init:(Value.Int 41));
  System.quiesce sys;
  Pair.crash p (g 0);
  System.quiesce sys;
  ignore (Pair.promote p);
  Alcotest.(check int) "key re-routed to the heir" 2
    (Gid.to_int (Directory.resolve d (g 0)));
  let bump : System.work =
   fun heap aid ->
    match Heap.get_stable_var heap key with
    | Some (Value.Ref a) -> (
        Heap.write_lock heap aid a;
        match Heap.read_atomic heap aid a with
        | Value.Int v -> Heap.set_current heap aid a (Value.Int (v + 1))
        | _ -> failwith "not an int")
    | _ -> failwith "missing"
  in
  let h = Directory.submit d ~steps:[ (key, bump) ] in
  Alcotest.(check bool) "post-failover directory commit" true
    (System.await sys h = System.Committed);
  System.quiesce sys;
  (match Directory.snapshot_read d key with
  | Some (Value.Int 42) -> ()
  | _ -> Alcotest.fail "value not served by the heir");
  match Directory.verify_unique_uids d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "uid uniqueness after failover: %s" e

(* The always-on spec monitors, read directly. The test_main wrapper
   clears the trace before every case and checks the monitors after it,
   so commit-implies-durable and the replication shipping order hold
   across every test above. *)
let test_monitors_clean () =
  match Monitor.check () with
  | [] -> ()
  | vs ->
      Alcotest.failf "%d monitor violation(s): %a" (List.length vs)
        (Format.pp_print_list Monitor.pp_violation)
        vs

let suite =
  [
    Alcotest.test_case "ship mirrors the primary log" `Quick test_ship_mirrors_log;
    Alcotest.test_case "reset ship survives housekeeping" `Quick test_ship_survives_housekeeping;
    Alcotest.test_case "fuzz: batches straddle segments" `Quick test_fuzz_segment_straddling;
    Alcotest.test_case "fuzz: reopen after every ack" `Quick test_fuzz_reopen_after_every_ack;
    Alcotest.test_case "duplicate/reordered ships idempotent" `Quick
      test_duplicate_and_reordered_ships;
    Alcotest.test_case "standby crash resyncs" `Quick test_standby_crash_resync;
    Alcotest.test_case "primary cold restart re-ships" `Quick test_primary_cold_restart_reships;
    Alcotest.test_case "promotion preserves commits" `Quick test_promote_preserves_commits;
    Alcotest.test_case "promotion matches cold recovery" `Quick test_promote_matches_cold_recovery;
    Alcotest.test_case "handle liveness judged after promotion" `Quick
      test_promote_keeps_liveness_judged;
    Alcotest.test_case "directory retargets on failover" `Quick
      test_directory_retargets_on_failover;
    Alcotest.test_case "spec monitors clean" `Quick test_monitors_clean;
  ]
