(* Tests for Rs_load: deterministic traffic generation, profile
   invariants, admission control, and crash survival. *)

module Load = Rs_load.Load
module System = Rs_guardian.System
module Gid = Rs_util.Gid

let base =
  { Load.default with duration = 60.0; objects_per_guardian = 4; conflict = 0.2 }

let test_closed_loop_commits () =
  let t = Load.create base in
  Load.start t;
  let s = Load.drain t in
  Alcotest.(check bool) "some commits" true (s.committed > 0);
  Alcotest.(check bool) "throughput positive" true (s.throughput > 0.0);
  Alcotest.(check int) "all resolved" 0 (Load.unresolved t);
  match Load.check t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariant: %s" e

let test_same_seed_same_stats () =
  let s1 = Load.run base and s2 = Load.run base in
  Alcotest.(check bool) "identical stats" true (s1 = s2);
  let s3 = Load.run { base with seed = base.seed + 1 } in
  Alcotest.(check bool) "different seed differs" true (s1 <> s3)

let test_open_loop_sheds () =
  let cfg =
    {
      base with
      mode = Load.Open { rate = 2.0 };
      max_in_flight = Some 2;
      duration = 40.0;
    }
  in
  let t = Load.create cfg in
  Load.start t;
  let s = Load.drain t in
  Alcotest.(check bool) "admission control fired" true (s.sheds > 0);
  Alcotest.(check bool) "still commits" true (s.committed > 0);
  Alcotest.(check int) "all resolved" 0 (Load.unresolved t);
  match Load.check t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariant: %s" e

let test_bank_profile_conserves () =
  let t = Load.create { base with profile = Load.Bank; conflict = 0.5 } in
  Load.start t;
  let s = Load.drain t in
  Alcotest.(check bool) "some commits" true (s.committed > 0);
  match Load.check t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "conservation: %s" e

let test_reservation_profile_never_oversells () =
  let t =
    Load.create { base with profile = Load.Reservation; initial = 5; conflict = 0.8 }
  in
  Load.start t;
  let s = Load.drain t in
  Alcotest.(check bool) "sold-out aborts observed" true (s.deliberate_aborts > 0);
  match Load.check t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "overselling: %s" e

let test_contention_resolves_by_waiting () =
  (* At full conflict every action fights for the hot object; the wait
     queue must serialise them rather than abort them all. *)
  let t = Load.create { base with conflict = 1.0; mode = Load.Closed { clients = 8; think = 0.5 } } in
  Load.start t;
  let s = Load.drain t in
  Alcotest.(check bool) "waiting beats aborting" true (s.committed > s.aborted);
  match Load.check t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariant: %s" e

let test_crash_mid_run_recovers () =
  let t = Load.create { base with drop = 0.02; duration = 80.0 } in
  Load.start t;
  let sys = Load.system t in
  let sim = System.sim sys in
  (* Let traffic build, crash a guardian mid-flight, restart, drain. *)
  ignore (System.run ~until:(Rs_sim.Sim.now sim +. 20.0) sys);
  System.crash sys (Gid.of_int 1);
  ignore (System.restart sys (Gid.of_int 1));
  let s = Load.drain t in
  Alcotest.(check bool) "commits despite crash" true (s.committed > 0);
  Alcotest.(check int) "no stuck actions" 0 (Load.unresolved t);
  match Load.check t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariant after crash: %s" e

let suite =
  [
    Alcotest.test_case "closed loop commits and checks" `Quick test_closed_loop_commits;
    Alcotest.test_case "same seed, same stats" `Quick test_same_seed_same_stats;
    Alcotest.test_case "open loop sheds under cap" `Quick test_open_loop_sheds;
    Alcotest.test_case "bank profile conserves money" `Quick test_bank_profile_conserves;
    Alcotest.test_case "reservation never oversells" `Quick test_reservation_profile_never_oversells;
    Alcotest.test_case "full conflict: waits, not aborts" `Quick test_contention_resolves_by_waiting;
    Alcotest.test_case "crash mid-run recovers" `Quick test_crash_mid_run_recovers;
  ]
