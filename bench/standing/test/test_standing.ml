module Trace = Rs_obs.Trace

let check_float = Alcotest.(check (float 0.0))

(* --- order statistics ---------------------------------------------------- *)

let nearest_rank () =
  let a = Stats.sorted (List.init 1000 (fun i -> float_of_int (1000 - i))) in
  check_float "p50 of 1..1000" 500.0 (Stats.nearest_rank a ~permille:500);
  check_float "p99 of 1..1000" 990.0 (Stats.nearest_rank a ~permille:990);
  check_float "p100 is the maximum" 1000.0 (Stats.nearest_rank a ~permille:1000);
  check_float "one sample" 7.0 (Stats.nearest_rank [| 7.0 |] ~permille:990);
  (* ceil(0.5 * 7) = 4: nearest rank never interpolates. *)
  check_float "p50 of 7 samples" 4.0
    (Stats.nearest_rank (Stats.sorted [ 3.0; 1.0; 7.0; 5.0; 2.0; 6.0; 4.0 ]) ~permille:500);
  Alcotest.(check int) "p99 of 1000 leaves 10 beyond" 10 (Stats.beyond ~n:1000 ~permille:990)

let ten_beyond () =
  let supported n permille = Stats.supported ~n ~permille in
  Alcotest.(check bool) "p99 needs 1000 samples" false (supported 999 990);
  Alcotest.(check bool) "p99 at 1000" true (supported 1000 990);
  Alcotest.(check bool) "p90 needs 100 samples" false (supported 99 900);
  Alcotest.(check bool) "p90 at 100" true (supported 100 900);
  Alcotest.(check bool) "p50 at 20" true (supported 20 500);
  Alcotest.(check bool) "p50 at 19" false (supported 19 500);
  Alcotest.(check bool) "no samples" false (supported 0 500)

let median () =
  check_float "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

(* --- virtual-time breakdown ---------------------------------------------- *)

let record seq time event = { Trace.seq; time; event }

(* T0.5 is the second attempt of an operation due at 10: its first
   attempt T0.3 waited on a lock, timed out and backed off. T0.5 waits
   2.5 for the same object, then runs 2PC with two participants. T1.2
   commits with no wait and no retry; a direct grant without a wait adds
   nothing. *)
let events =
  [
    (10.0, Trace.Handle_submit { gid = "G0"; aid = "T0.3" });
    (10.0, Trace.Lock_wait { heap = "G0"; aid = "T0.3"; holder = "T1.1"; addr = 7; write = true });
    (3.0, Trace.Handle_submit { gid = "G1"; aid = "T1.2" });
    (3.0, Trace.Lock_acquire { heap = "G1"; aid = "T1.2"; addr = 4; kind = Trace.Write });
    (3.0, Trace.Twopc_send { src = "G1"; dst = "G1"; msg = "prepare(T1.2)" });
    (4.0, Trace.Twopc_recv { src = "G1"; dst = "G1"; msg = "prepared(T1.2)" });
    (4.0, Trace.Handle_resolve { gid = "G1"; aid = "T1.2"; committed = true });
    (12.0, Trace.Lock_timeout { heap = "G0"; aid = "T0.3"; addr = 7 });
    (12.0, Trace.Handle_resolve { gid = "G0"; aid = "T0.3"; committed = false });
    (14.0, Trace.Handle_submit { gid = "G0"; aid = "T0.5" });
    (14.0, Trace.Lock_wait { heap = "G0"; aid = "T0.5"; holder = "T1.1"; addr = 7; write = true });
    (16.5, Trace.Lock_acquire { heap = "G0"; aid = "T0.5"; addr = 7; kind = Trace.Write });
    (16.5, Trace.Twopc_send { src = "G0"; dst = "G0"; msg = "prepare(T0.5)" });
    (16.5, Trace.Twopc_send { src = "G0"; dst = "G1"; msg = "prepare(T0.5)" });
    (17.5, Trace.Twopc_recv { src = "G0"; dst = "G0"; msg = "prepared(T0.5)" });
    (18.0, Trace.Twopc_recv { src = "G1"; dst = "G0"; msg = "prepared(T0.5)" });
    (19.25, Trace.Handle_resolve { gid = "G0"; aid = "T0.5"; committed = true });
  ]
  |> List.mapi (fun i (t, e) -> record i t e)

let parts =
  Alcotest.testable
    (fun fmt (p : Breakdown.parts) ->
      Format.fprintf fmt "{retry %g; lock_wait %g; exec %g; prepare %g; decide %g}" p.retry
        p.lock_wait p.exec p.prepare p.decide)
    ( = )

let reconstruct () =
  match
    Breakdown.reconstruct events
      [ { Breakdown.aid = "T0.5"; due = 10.0 }; { Breakdown.aid = "T1.2"; due = 3.0 } ]
  with
  | [ Ok a; Ok b ] ->
      Alcotest.check parts "retried op with a lock wait"
        { Breakdown.retry = 4.0; lock_wait = 2.5; exec = 0.0; prepare = 1.5; decide = 1.25 }
        a;
      check_float "components sum to due -> resolve" 9.25 (Breakdown.total a);
      Alcotest.check parts "direct op"
        { Breakdown.retry = 0.0; lock_wait = 0.0; exec = 0.0; prepare = 1.0; decide = 0.0 }
        b
  | _ -> Alcotest.fail "both ops should reconstruct"

let missing_events () =
  let is_error = function Ok _ -> false | Error _ -> true in
  (* T0.3 never prepared, and its lock wait was never granted. *)
  match Breakdown.reconstruct events [ { Breakdown.aid = "T0.3"; due = 10.0 } ] with
  | [ r ] -> Alcotest.(check bool) "unfinished attempt is an error" true (is_error r)
  | _ -> Alcotest.fail "one result per op"

(* --- capacity ladder ------------------------------------------------------ *)

let ladder_stops_at_first_failure () =
  let tried = ref [] in
  let passes rate =
    tried := rate :: !tried;
    rate <> 1.5 && rate <= 2.5
  in
  check_float "highest rung below the first failure" 1.25
    (Stats.ladder ~start:1.0 ~step:0.25 ~max_rungs:20 ~passes);
  Alcotest.(check (list (float 0.0))) "no rung above a failure runs" [ 1.0; 1.25; 1.5 ]
    (List.rev !tried)

let ladder_bounds () =
  check_float "climbs while rungs hold" 2.5
    (Stats.ladder ~start:1.0 ~step:0.25 ~max_rungs:20 ~passes:(fun r -> r <= 2.5));
  check_float "first rung fails" 0.0
    (Stats.ladder ~start:1.0 ~step:0.25 ~max_rungs:20 ~passes:(fun _ -> false));
  check_float "stops at the rung cap" 1.5
    (Stats.ladder ~start:1.0 ~step:0.25 ~max_rungs:3 ~passes:(fun _ -> true))

let rung_rule () =
  Alcotest.(check bool) "p99 at the limit holds" true
    (Stats.rung_passes ~limit:20.0 ~p99:20.0 ~failed:0);
  Alcotest.(check bool) "p99 over the limit" false
    (Stats.rung_passes ~limit:20.0 ~p99:20.5 ~failed:0);
  Alcotest.(check bool) "a failed op fails the rung" false
    (Stats.rung_passes ~limit:20.0 ~p99:3.0 ~failed:1)

let () =
  Alcotest.run "standing"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest rank" `Quick nearest_rank;
          Alcotest.test_case "ten samples beyond" `Quick ten_beyond;
          Alcotest.test_case "median" `Quick median;
        ] );
      ( "breakdown",
        [
          Alcotest.test_case "lock wait and retry" `Quick reconstruct;
          Alcotest.test_case "missing events" `Quick missing_events;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "stops at first failure" `Quick ladder_stops_at_first_failure;
          Alcotest.test_case "bounds" `Quick ladder_bounds;
          Alcotest.test_case "rung rule" `Quick rung_rule;
        ] );
    ]
