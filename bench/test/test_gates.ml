(* The BENCH reader, the drift check and every claim gate, on the
   committed BENCH files and on perturbed copies of them. *)

module Metrics = Rs_obs.Metrics

(* Tests run in _build/default/bench/test; the BENCH files are deps. *)
let read file =
  Gates.parse (In_channel.with_open_bin (Filename.concat "../.." file) In_channel.input_all)

(* Each committed file and the experiments that write it. *)
let files =
  [
    ("BENCH_2.json", [ "e1" ]);
    ("BENCH_3.json", [ "e7"; "e8" ]);
    ("BENCH_4.json", [ "e9" ]);
    ("BENCH_5.json", [ "e10" ]);
    ("BENCH_6.json", [ "e11" ]);
    ("BENCH_7.json", [ "e12" ]);
    ("BENCH_8.json", [ "e13" ]);
    ("BENCH_9.json", [ "e14" ]);
    ("BENCH_10.json", [ "e15" ]);
    ("BENCH_11.json", [ "e3"; "e4" ]);
  ]

let verdict exp m overrides =
  let get k = match List.assoc_opt k overrides with Some v -> v | None -> Gates.lookup m k in
  match List.assoc_opt exp Gates.gates with
  | None -> None
  | Some gate -> ( try gate get; None with Gates.Failed msg -> Some msg)

let committed_pass () =
  List.iter
    (fun (file, exps) ->
      let m = read file in
      List.iter
        (fun exp -> Alcotest.(check (option string)) (file ^ " " ^ exp) None (verdict exp m []))
        exps)
    files

(* One perturbed input per assertion: (experiment, file, overrides,
   the failure it must report). *)
let perturbed =
  [
    ( "e1",
      "BENCH_2.json",
      [ ("stable_store.physical_writes", 0) ],
      "no physical writes recorded (0)" );
    ( "e1",
      "BENCH_2.json",
      [ ("stable_store.physical_writes", 18000) ],
      "expected ~2 physical writes per round, got 18000 writes / 9615 rounds" );
    ( "e1",
      "BENCH_2.json",
      [ ("hybrid_rs.recovery_entries", 2988) ],
      "expected 0 < hybrid (2988) < simple (2988) recovery entries" );
    ( "e1",
      "BENCH_2.json",
      [ ("e1.simple.o1024.pages_per_commit_x10", 95) ],
      "simple pages/commit x10 not flat across [16, 64, 256, 1024] objects: [84, 85, 84, 95]" );
    ( "e1",
      "BENCH_2.json",
      [ ("e1.hybrid.o16.pages_per_commit_x10", 70) ],
      "hybrid pages/commit x10 not flat across [16, 64, 256, 1024] objects: [70, 85, 85, 85]" );
    ( "e1",
      "BENCH_2.json",
      [ ("e1.shadow.o64.pages_per_commit_x10", 85) ],
      "shadow not above the logs at 64 objects: simple=85, hybrid=85, shadow=85" );
    ( "e1",
      "BENCH_2.json",
      [ ("e1.shadow.o1024.pages_per_commit_x10", 245) ],
      "shadow pages/commit x10 does not grow 16 -> 1024 objects: [245, 245, 265, 245]" );
    ("e7", "BENCH_3.json", [ ("guardian.prepares", 0) ], "e7 left guardian.prepares at zero");
    ("e7", "BENCH_3.json", [ ("guardian.commits", 0) ], "e7 left guardian.commits at zero");
    ("e8", "BENCH_3.json", [ ("slog.group_commits", 0) ], "e8 recorded no group commits");
    ( "e8",
      "BENCH_3.json",
      [ ("e8.hybrid.c8.nobatch.physical_writes", 600) ],
      "hybrid at conc 8: writes/commit only improved 1.85x (< 2x)" );
    ( "e9",
      "BENCH_4.json",
      [ ("e9.seg.c10.live_segments", 3) ],
      "live segments not bounded: 3 after 10 cycles" );
    ( "e9",
      "BENCH_4.json",
      [ ("e9.seg.c10.live_pages", 9) ],
      "live pages grew with history: 8 -> 9" );
    ( "e9",
      "BENCH_4.json",
      [ ("e9.seg.c10.retired_segments", 7) ],
      "segment retirement did not track history" );
    ( "e9",
      "BENCH_4.json",
      [ ("e9.seg.c10.recovery_entries", 19) ],
      "recovery entries drifted: 18 -> 19" );
    ( "e9",
      "BENCH_4.json",
      [ ("e9.nohk.c10.live_pages", 16) ],
      "no-housekeeping control did not outgrow the reclaimed log" );
    ( "e9",
      "BENCH_4.json",
      [ ("e9.nohk.c10.recovery_entries", 196) ],
      "no-housekeeping control recovery did not grow with history" );
    ( "e10",
      "BENCH_5.json",
      [ ("e10.conc32.throughput_x1000", 0) ],
      "no throughput at concurrency 32 (hang or abort storm)" );
    ( "e10",
      "BENCH_5.json",
      [ ("e10.conc32.committed", 298) ],
      "throughput did not scale: 149 committed at conc 1 vs 298 at conc 32" );
    ( "e10",
      "BENCH_5.json",
      [ ("e10.conc32.p99_x10", 1000) ],
      "p99 unbounded at 10% conflict: 100.0 time units" );
    ("e10", "BENCH_5.json", [ ("e10.open80.sheds", 0) ], "open-loop overload shed nothing");
    ( "e11",
      "BENCH_6.json",
      [ ("e11.s4.x10.committed", 1207) ],
      "committed not increasing with shards at 10% cross: [903, 1207, 1207, 4184]" );
    ( "e12",
      "BENCH_7.json",
      [ ("e12.repl.committed", 299) ],
      "replication changed the committed count" );
    ("e12", "BENCH_7.json", [ ("repl.applies", 0) ], "nothing was shipped");
    ("e12", "BENCH_7.json", [ ("e12.cold.entries", 0) ], "cold restart replayed no entries");
    ( "e12",
      "BENCH_7.json",
      [ ("e12.failover.us", 1875) ],
      "failover-to-first-commit (1875us) not below cold restart (1875us)" );
    ( "e13",
      "BENCH_8.json",
      [ ("e13.inc.c5.entries", 411) ],
      "inc entries not flat across cycles: [410, 411, 410]" );
    ( "e13",
      "BENCH_8.json",
      [ ("e13.inc.c10.serial_us", 814) ],
      "inc serial_us grew with history: c2=271 c10=814" );
    ( "e13",
      "BENCH_8.json",
      [ ("e13.nohk.c10.entries", 3267) ],
      "nohk recovery entries did not grow with history" );
    ( "e13",
      "BENCH_8.json",
      [ ("e13.nohk.c10.log_entries", 1999) ],
      "control log too short to gate" );
    ( "e13",
      "BENCH_8.json",
      [ ("e13.nohk.c10.scan_read_ops", 402) ],
      "scan read ops not well below serial: 402 vs 4018" );
    ( "e13",
      "BENCH_8.json",
      [ ("e13.nohk.c10.parallel_us", 3095) ],
      "parallel wall time regressed vs serial: 3095 vs 2063" );
    ("e14", "BENCH_9.json", [ ("e14.bank.violations", 1) ], "bank: 1 violation(s) under nemesis");
    ( "e14",
      "BENCH_9.json",
      [ ("e14.queue.committed", 0) ],
      "queue: nothing committed under nemesis" );
    ( "e14",
      "BENCH_9.json",
      [ ("e14.saga.events", 0) ],
      "saga: no nemesis events fired (vacuous run)" );
    ( "e14",
      "BENCH_9.json",
      [ ("e14.repl.downtime_x10", 0) ],
      "repl: no downtime recorded (vacuous faults)" );
    ("e14", "BENCH_9.json", [ ("e14.repl.promoted", 0) ], "repl row did not promote the standby");
    ( "e3",
      "BENCH_11.json",
      [ ("e3.a.h1600.compaction.old_reads", 945) ],
      "compaction old-log reads did not grow with history: [329, 945, 945]" );
    ( "e3",
      "BENCH_11.json",
      [ ("e3.a.h1600.snapshot.old_reads", 1) ],
      "snapshot old-log reads grew with history: [0, 0, 1]" );
    ( "e15",
      "BENCH_10.json",
      [ ("e15.mvcc.c4.read_locks", 3) ],
      "mvcc conc 4: snapshot reads took 3 read locks" );
    ( "e15",
      "BENCH_10.json",
      [ ("e15.mvcc.c8.reads_aborted", 2) ],
      "mvcc conc 8: 2 read-only actions aborted" );
    ( "e15",
      "BENCH_10.json",
      [ ("e15.mvcc.c16.reads_committed", 0) ],
      "mvcc conc 16: no snapshot reads committed (vacuous run)" );
    ( "e15",
      "BENCH_10.json",
      [ ("e15.locked.c1.read_locks", 0) ],
      "locked baseline at conc 1 took no read locks (vacuous baseline)" );
    ( "e15",
      "BENCH_10.json",
      [ ("e15.mvcc.c32.reads_committed", 1737) ],
      "mvcc conc 32 did not out-commit the locked baseline" );
    ( "e15",
      "BENCH_10.json",
      [ ("e15.mvcc.c32.read_p99_x10", 192) ],
      "mvcc read p99 (19.2) not below locked baseline (19.2)" );
    ( "e15",
      "BENCH_10.json",
      [ ("e15.mvcc.c32.read_p99_x10", 487); ("e15.locked.c32.read_p99_x10", 500) ],
      "mvcc read p99 (48.7) not below the e10 locked-action baseline (48.7)" );
  ]

let perturbed_case (exp, file, overrides, msg) =
  Alcotest.test_case
    (Printf.sprintf "%s %s" exp (String.concat " " (List.map fst overrides)))
    `Quick
    (fun () -> Alcotest.(check (option string)) msg (Some msg) (verdict exp (read file) overrides))

let missing_key () =
  Alcotest.(check (option string))
    "a key the file lacks fails the gate" (Some "missing key guardian.prepares")
    (verdict "e7" (read "BENCH_2.json") [])

(* --- drift ----------------------------------------------------------- *)

let check_drift = Alcotest.(check (list string))

let drift () =
  let m = read "BENCH_2.json" in
  let module K = Gates.Key_map in
  check_drift "a file against itself" [] (Gates.drift ~committed:m ~fresh:m);
  let hist = K.find ("histograms", "slog.force_bytes") m in
  let fresh =
    m
    |> K.add ("counters", "disk.reads") "21761"
    |> K.add ("gauges", "e1.added.gauge") "0"
    |> K.remove ("counters", "slog.forces")
    |> K.add ("histograms", "slog.force_bytes") "{\"count\": 1}"
  in
  check_drift "each difference listed in key order"
    [
      "  counters disk.reads: committed 21760, fresh 21761";
      "  counters slog.forces: committed 3268, fresh (absent)";
      "  gauges e1.added.gauge: committed (absent), fresh 0";
      Printf.sprintf "  histograms slog.force_bytes: committed %s, fresh {\"count\": 1}" hist;
    ]
    (Gates.drift ~committed:m ~fresh);
  let e13 = read "BENCH_8.json" and e12 = read "BENCH_7.json" in
  let bump k = K.update k (Option.map (fun v -> v ^ "1")) in
  let e13_us = K.filter (fun (_, key) _ -> String.ends_with ~suffix:"_us" key) e13 in
  check_drift "e13.*_us gauges may move" []
    (Gates.drift ~committed:e13 ~fresh:(K.fold (fun k _ m -> bump k m) e13_us e13));
  check_drift "e12.*.us gauges may move" []
    (Gates.drift ~committed:e12
       ~fresh:(e12 |> bump ("gauges", "e12.cold.us") |> bump ("gauges", "e12.solo.us")));
  check_drift "other gauges ending in us may not"
    [
      "  gauges e12.cold_us: committed (absent), fresh 1";
      "  gauges e13.inc.us: committed (absent), fresh 1";
    ]
    (Gates.drift ~committed:e13
       ~fresh:(e13 |> K.add ("gauges", "e12.cold_us") "1" |> K.add ("gauges", "e13.inc.us") "1"))

(* --- the reader against the writer ------------------------------------ *)

let round_trip () =
  let registry = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter ~registry "c.three");
  Metrics.incr (Metrics.counter ~registry "c.one");
  Metrics.set (Metrics.gauge ~registry "g.zero") 0;
  Metrics.set (Metrics.gauge ~registry "g.neg") (-4);
  Metrics.observe (Metrics.histogram ~registry ~bounds:[| 0; 10 |] "h.a") 5;
  Metrics.observe (Metrics.histogram ~registry ~bounds:[| 0; 10 |] "h.b") 12;
  let m = Gates.parse (Metrics.to_json registry) in
  Alcotest.(check (list (pair (pair string string) string)))
    "every key with its value text"
    [
      (("counters", "c.one"), "1");
      (("counters", "c.three"), "3");
      (("gauges", "g.neg"), "-4");
      (("gauges", "g.zero"), "0");
      ( ("histograms", "h.a"),
        "{\"bounds\": [0, 10], \"underflow\": 0, \"buckets\": [1], \"overflow\": 0, \"count\": 1, \
         \"sum\": 5}" );
      ( ("histograms", "h.b"),
        "{\"bounds\": [0, 10], \"underflow\": 0, \"buckets\": [0], \"overflow\": 1, \"count\": 1, \
         \"sum\": 12}" );
    ]
    (Gates.Key_map.bindings m);
  Alcotest.(check int) "a counter reads back" 3 (Gates.lookup m "c.three");
  Alcotest.(check int) "a zero gauge reads back" 0 (Gates.lookup m "g.zero");
  Alcotest.(check int) "an empty registry reads as no keys" 0
    (Gates.Key_map.cardinal (Gates.parse (Metrics.to_json (Metrics.create ()))))

let () =
  Alcotest.run "gates"
    [
      ( "committed",
        [
          Alcotest.test_case "every gate passes on its BENCH file" `Quick committed_pass;
          Alcotest.test_case "a missing key fails" `Quick missing_key;
        ] );
      ("perturbed", List.map perturbed_case perturbed);
      ( "drift",
        [
          Alcotest.test_case "differences listed, wall clock exempt" `Quick drift;
          Alcotest.test_case "reader round-trips to_json" `Quick round_trip;
        ] );
    ]
