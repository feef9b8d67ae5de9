(* Rs_obs: histogram bucketing edge cases, registry export, and the
   determinism guarantee — the same seeded 2PC-with-crash scenario run
   twice serializes to byte-identical traces and metrics. *)

module Metrics = Rs_obs.Metrics
module Trace = Rs_obs.Trace
module System = Rs_guardian.System
module Heap = Rs_objstore.Heap
module Value = Rs_objstore.Value
module Gid = Rs_util.Gid
module Sim = Rs_sim.Sim

let contains s affix =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* --- metrics unit tests (on fresh registries, not [default]) --- *)

let test_counter_basics () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "c" in
  Alcotest.(check int) "starts at 0" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "1 + 4" 5 (Metrics.counter_value c);
  let c' = Metrics.counter ~registry:r "c" in
  Metrics.incr c';
  Alcotest.(check int) "same name, same counter" 6 (Metrics.counter_value c);
  Alcotest.(check (option int)) "find_counter" (Some 6) (Metrics.find_counter r "c");
  Alcotest.(check (option int)) "find_counter missing" None (Metrics.find_counter r "nope");
  Alcotest.check_raises "negative incr" (Invalid_argument "Metrics.incr: counters are monotonic")
    (fun () -> Metrics.incr ~by:(-1) c);
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics.gauge: \"c\" is already registered as a counter") (fun () ->
      ignore (Metrics.gauge ~registry:r "c"))

let test_gauge_last_write_wins () =
  let r = Metrics.create () in
  let gg = Metrics.gauge ~registry:r "g" in
  Alcotest.(check int) "starts at 0" 0 (Metrics.gauge_value gg);
  Metrics.set gg 42;
  Metrics.set gg 7;
  Alcotest.(check int) "last write wins" 7 (Metrics.gauge_value gg)

(* Bounds [0; 10; 20]: underflow < 0, interior [0,10) and [10,20),
   overflow >= 20. *)
let test_histogram_bucketing () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r ~bounds:[| 0; 10; 20 |] "h" in
  let under, interior, over = Metrics.histogram_buckets h in
  Alcotest.(check int) "no obs: underflow" 0 under;
  Alcotest.(check int) "no obs: overflow" 0 over;
  Alcotest.(check (array int)) "no obs: interior" [| 0; 0 |] interior;
  Alcotest.(check int) "no obs: count" 0 (Metrics.histogram_count h);
  Alcotest.(check int) "no obs: sum" 0 (Metrics.histogram_sum h);
  List.iter (Metrics.observe h) [ -5; -1; 0; 9; 10; 19; 20; 100 ];
  let under, interior, over = Metrics.histogram_buckets h in
  Alcotest.(check int) "underflow (-5, -1)" 2 under;
  Alcotest.(check (array int)) "interior {0,9} {10,19}" [| 2; 2 |] interior;
  Alcotest.(check int) "overflow (20, 100)" 2 over;
  Alcotest.(check int) "count" 8 (Metrics.histogram_count h);
  Alcotest.(check int) "sum" 152 (Metrics.histogram_sum h)

let test_histogram_bad_bounds () =
  let r = Metrics.create () in
  let msg = "Metrics.histogram: bounds must be strictly increasing" in
  Alcotest.check_raises "non-increasing" (Invalid_argument msg) (fun () ->
      ignore (Metrics.histogram ~registry:r ~bounds:[| 0; 5; 5 |] "bad1"));
  Alcotest.check_raises "decreasing" (Invalid_argument msg) (fun () ->
      ignore (Metrics.histogram ~registry:r ~bounds:[| 3; 1 |] "bad2"));
  Alcotest.check_raises "empty" (Invalid_argument "Metrics.histogram: need at least one bound")
    (fun () -> ignore (Metrics.histogram ~registry:r ~bounds:[||] "bad3"))

let test_default_bucket_boundaries () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r "h" in
  (* default bounds are [0; 1; 2; 4; ...; 65536] *)
  Metrics.observe h (-1);
  (* underflow *)
  Metrics.observe h 0;
  (* [0,1) *)
  Metrics.observe h 3;
  (* [2,4) *)
  Metrics.observe h 65535;
  (* [32768,65536) *)
  Metrics.observe h 65536;
  (* overflow *)
  let under, interior, over = Metrics.histogram_buckets h in
  Alcotest.(check int) "underflow" 1 under;
  Alcotest.(check int) "overflow" 1 over;
  Alcotest.(check int) "[0,1)" 1 interior.(0);
  Alcotest.(check int) "[2,4)" 1 interior.(2);
  Alcotest.(check int) "[32768,65536)" 1 interior.(Array.length interior - 1)

let test_to_json_and_reset () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "z.count" in
  let gg = Metrics.gauge ~registry:r "a.gauge" in
  Metrics.incr ~by:3 c;
  Metrics.set gg 9;
  let json = Metrics.to_json r in
  Alcotest.(check bool) "counter in json" true (contains json "\"z.count\": 3");
  Alcotest.(check bool) "gauge in json" true (contains json "\"a.gauge\": 9");
  Metrics.reset r;
  Alcotest.(check int) "reset zeroes counter" 0 (Metrics.counter_value c);
  Alcotest.(check int) "reset zeroes gauge" 0 (Metrics.gauge_value gg);
  Alcotest.(check (option int)) "registration survives reset" (Some 0)
    (Metrics.find_counter r "z.count")

(* Export shows what a run touched: a zero counter and an unobserved
   histogram are left out, a gauge is shown even at 0. *)
let test_export_skips_untouched () =
  let r = Metrics.create () in
  ignore (Metrics.counter ~registry:r "idle.count");
  Metrics.incr (Metrics.counter ~registry:r "busy.count");
  Metrics.set (Metrics.gauge ~registry:r "zero.gauge") 0;
  ignore (Metrics.histogram ~registry:r "idle.hist");
  Metrics.observe (Metrics.histogram ~registry:r "busy.hist") 0;
  let json = Metrics.to_json r and listing = Format.asprintf "%a" Metrics.pp r in
  List.iter
    (fun (what, out) ->
      Alcotest.(check bool) (what ^ ": zero counter absent") false (contains out "idle.count");
      Alcotest.(check bool) (what ^ ": moved counter present") true (contains out "busy.count");
      Alcotest.(check bool) (what ^ ": zero gauge present") true (contains out "zero.gauge");
      Alcotest.(check bool) (what ^ ": empty histogram absent") false (contains out "idle.hist");
      Alcotest.(check bool) (what ^ ": observed histogram present") true
        (contains out "busy.hist"))
    [ ("json", json); ("pp", listing) ];
  Alcotest.(check bool) "zero gauge value in json" true (contains json "\"zero.gauge\": 0")

(* --- determinism: same seed, byte-identical trace and registry --- *)

let g = Gid.of_int

let set_var name v : System.work =
 fun heap aid ->
  match Heap.get_stable_var heap name with
  | Some (Value.Ref a) -> Heap.set_current heap aid a (Value.Int v)
  | Some _ -> failwith "stable var is not a ref"
  | None ->
      let a = Heap.alloc_atomic heap ~creator:aid (Value.Int v) in
      Heap.set_stable_var heap aid name (Value.Ref a)

(* One full run of a seeded scenario: two local actions, then a
   distributed transfer interrupted by a participant crash mid-protocol,
   restart, and quiesce. Returns the serialized trace and registry. *)
let scenario seed =
  Metrics.reset Metrics.default;
  Trace.clear ();
  let sys = System.create ~seed ~jitter:0.5 ~n:2 () in
  ignore
    (System.await sys (System.submit sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" 1) ]));
  ignore
    (System.await sys (System.submit sys ~coordinator:(g 0) ~steps:[ (g 1, set_var "y" 1) ]));
  System.quiesce sys;
  ignore
    (System.submit sys ~coordinator:(g 0)
       ~steps:[ (g 0, set_var "x" 2); (g 1, set_var "y" 2) ]);
  let rec steps n = if n > 0 && Sim.step (System.sim sys) then steps (n - 1) in
  steps 12;
  System.crash sys (g 1);
  ignore (System.restart sys (g 1));
  System.quiesce sys;
  let trace = Trace.to_string () in
  let metrics = Metrics.to_json Metrics.default in
  Trace.clear_clock ();
  (trace, metrics)

let test_trace_determinism () =
  let trace1, metrics1 = scenario 42 in
  let trace2, metrics2 = scenario 42 in
  Alcotest.(check bool) "trace is non-trivial" true (String.length trace1 > 500);
  Alcotest.(check string) "same seed, same trace" trace1 trace2;
  Alcotest.(check string) "same seed, same metrics" metrics1 metrics2;
  (* The trace must show the crash and the recovery that followed. *)
  Alcotest.(check bool) "crash recorded" true (contains trace1 "crash{gid=G1}");
  Alcotest.(check bool) "restart recorded" true (contains trace1 "restart{gid=G1");
  Alcotest.(check bool) "recovery scan recorded" true
    (contains trace1 "recovery_scan{system=hybrid")

let test_different_seed_differs () =
  (* Jitter makes message timing seed-dependent, so a different seed must
     produce a different trace — guards against a trace that ignores the
     injected clock. *)
  let trace1, _ = scenario 42 in
  let trace2, _ = scenario 43 in
  Alcotest.(check bool) "different seed, different trace" true (trace1 <> trace2)

(* --- spec-monitor unit test: reset forgiveness is a watermark
   threshold, not a one-shot flag --- *)

let test_repl_monitor_reset_window () =
  let record i event = { Trace.seq = i; time = float_of_int i; event } in
  let ship base = Trace.Repl_ship { src = "G0"; dst = "G1"; epoch = 1; base; entries = 1; bytes = 10 } in
  let apply watermark = Trace.Repl_apply { gid = "G1"; epoch = 1; watermark; entries = 1 } in
  (* A reset ship re-seeds the replica from base 0: the replay may run
     below the old watermark over SEVERAL applies. Forgiveness must hold
     until the watermark re-passes the mark it had at the reset — and no
     longer. Here w=4 then w=3 are both legitimate replay, w=11 re-passes
     the old mark 10, so the later w=5 is a real regression. *)
  let trace =
    List.mapi record
      [ apply 10; ship 0; apply 4; apply 3; apply 11; apply 5 ]
  in
  let violations = Rs_obs.Monitor.repl_ship_order_on trace in
  Alcotest.(check int) "exactly one violation" 1 (List.length violations);
  Alcotest.(check bool) "it is the post-replay regression" true
    (contains (List.hd violations).Rs_obs.Monitor.detail "11 -> 5");
  (* Control: the same trace without the reset flags both dips. *)
  let no_reset = List.mapi record [ apply 10; apply 4; apply 3; apply 11; apply 5 ] in
  Alcotest.(check int) "without a reset every dip is a violation" 3
    (List.length (Rs_obs.Monitor.repl_ship_order_on no_reset))

let test_ring_overwrites_oldest () =
  Trace.clear ();
  Trace.set_capacity 4;
  for i = 0 to 9 do
    Trace.emit (Trace.Note (string_of_int i))
  done;
  let seqs = List.map (fun r -> r.Trace.seq) (Trace.events ()) in
  Alcotest.(check (list int)) "last 4 survive, oldest first" [ 6; 7; 8; 9 ] seqs;
  Alcotest.(check int) "total counts overwritten too" 10 (Trace.total ());
  Trace.set_capacity 8192;
  Trace.clear ()

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "gauge last-write-wins" `Quick test_gauge_last_write_wins;
    Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
    Alcotest.test_case "histogram bad bounds" `Quick test_histogram_bad_bounds;
    Alcotest.test_case "default bucket boundaries" `Quick test_default_bucket_boundaries;
    Alcotest.test_case "to_json and reset" `Quick test_to_json_and_reset;
    Alcotest.test_case "export skips untouched metrics" `Quick test_export_skips_untouched;
    Alcotest.test_case "trace ring overwrites oldest" `Quick test_ring_overwrites_oldest;
    Alcotest.test_case "repl monitor: reset forgiveness is a threshold" `Quick
      test_repl_monitor_reset_window;
    Alcotest.test_case "seeded scenario is deterministic" `Quick test_trace_determinism;
    Alcotest.test_case "different seed gives different trace" `Quick test_different_seed_differs;
  ]
