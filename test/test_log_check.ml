(* Tests for the structural log validator, and validator runs over logs
   produced by real workloads and housekeeping. *)

open Helpers
module Check = Core.Log_check
module Synth = Rs_workload.Synth
module Scheme = Rs_workload.Scheme

let assert_clean scheme label =
  match Scheme.current_log scheme with
  | None -> ()
  | Some log -> (
      match Check.check_log log with
      | [] -> ()
      | issues ->
          Alcotest.failf "%s: %s" label
            (String.concat "; " (List.map (Format.asprintf "%a" Check.pp_issue) issues)))

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let t1 = aid 1

let mk_log entries =
  let dir = raw_log entries in
  Log_dir.current (Log_dir.open_ dir)

let test_detects_forward_chain () =
  let log = mk_log [ Le.Committed { aid = t1; prev = Some 999999 } ] in
  match Check.check_log log with
  | [] -> Alcotest.fail "forward/unresolvable chain pointer not detected"
  | _ -> ()

let test_detects_bad_pair_target () =
  (* A prepared entry whose pair points at another outcome entry. *)
  let dir = Log_dir.create ~page_size:256 () in
  let log = Log_dir.current dir in
  let put e = Log.write log (Le.encode e) in
  let c = put (Le.Committed { aid = t1; prev = None }) in
  ignore (put (Le.Prepared { aid = aid 2; pairs = Some [ (uid 1, c) ]; prev = Some c }));
  Log.force log;
  match Check.check_log log with
  | [] -> Alcotest.fail "pair at outcome entry not detected"
  | issues ->
      Alcotest.(check bool) "mentions pair" true
        (List.exists
           (fun (i : Check.issue) -> contains_substring (Format.asprintf "%a" Check.pp_issue i) "pair")
           issues)

let test_detects_conflicting_outcomes () =
  let log =
    mk_log
      [
        Le.Prepared { aid = t1; pairs = Some []; prev = None };
        Le.Committed { aid = t1; prev = None };
        Le.Aborted { aid = t1; prev = None };
      ]
  in
  match Check.check_log log with
  | [] -> Alcotest.fail "committed+aborted not detected"
  | _ -> ()

let test_detects_done_without_committing () =
  let log = mk_log [ Le.Done { aid = t1; prev = None } ] in
  match Check.check_log log with
  | [] -> Alcotest.fail "done without committing not detected"
  | _ -> ()

let test_detects_committed_without_prepared () =
  let log = mk_log [ Le.Committed { aid = t1; prev = None } ] in
  match Check.check_log log with
  | [] -> Alcotest.fail "committed without prepared not detected"
  | _ -> ()

(* Validator accepts every log the real system produces: all schemes with
   logs, with and without aborts, mutexes, early prepare, and both
   housekeeping techniques (including mid-housekeeping traffic). *)
let test_workload_logs_clean () =
  List.iter
    (fun mk ->
      let scheme = mk () in
      let t = Synth.create ~seed:3 ~scheme ~n_objects:10 ~mutex_fraction:0.3 () in
      Synth.run_random_actions t ~n:60 ~objects_per_action:3 ~abort_rate:0.2 ();
      assert_clean scheme "after workload")
    [ Scheme.simple; Scheme.hybrid ]

let test_housekept_logs_clean () =
  List.iter
    (fun technique ->
      let heap = Heap.create () in
      let dir = Log_dir.create ~page_size:512 () in
      let rs = Core.Hybrid_rs.create heap dir in
      let a = Heap.alloc_atomic heap ~creator:(aid 0) (Value.Int 0) in
      Heap.set_stable_var heap (aid 0) "x" (Value.Ref a);
      Core.Hybrid_rs.prepare rs (aid 0) (Heap.mos heap (aid 0));
      Core.Hybrid_rs.commit rs (aid 0);
      Heap.commit_action heap (aid 0);
      for i = 1 to 30 do
        Heap.set_current heap (aid i) a (Value.Int i);
        Core.Hybrid_rs.prepare rs (aid i) (Heap.mos heap (aid i));
        if i mod 5 = 0 then Core.Hybrid_rs.abort rs (aid i) else Core.Hybrid_rs.commit rs (aid i);
        if i mod 5 = 0 then Heap.abort_action heap (aid i) else Heap.commit_action heap (aid i)
      done;
      (* A prepared action in flight across housekeeping. *)
      let t99 = aid 99 in
      Heap.set_current heap t99 a (Value.Int 999);
      let job = Core.Hybrid_rs.hk_start rs technique in
      ignore (Core.Hybrid_rs.hk_step rs job ~budget:max_int);
      Core.Hybrid_rs.prepare rs t99 (Heap.mos heap t99);
      while not (Core.Hybrid_rs.hk_step rs job ~budget:max_int) do
        ()
      done;
      match Check.check_log (Core.Hybrid_rs.log rs) with
      | [] -> ()
      | issues ->
          Alcotest.failf "housekept log: %s"
            (String.concat "; " (List.map (Format.asprintf "%a" Check.pp_issue) issues)))
    [ Core.Hybrid_rs.Compaction; Core.Hybrid_rs.Snapshot ]

(* ---------- Segment-chain fsck ---------- *)

module Store = Rs_storage.Stable_store

let seg_issues dir = Check.check_segments dir

let test_check_segments_clean () =
  (* Every directory is segmented: a monolithic one is refused. *)
  Alcotest.check_raises "monolithic"
    (Invalid_argument "Log_dir.create: segment_pages must be >= 1") (fun () ->
      ignore (Log_dir.create ~segment_pages:0 ()));
  (* A segmented directory through churn, retirement, and housekeeping. *)
  let scheme = Scheme.hybrid ~page_size:128 ~segment_pages:2 () in
  let t = Synth.create ~seed:11 ~scheme ~n_objects:8 () in
  let dir = Option.get (Scheme.log_dir scheme) in
  Alcotest.(check int) "fresh" 0 (List.length (seg_issues dir));
  Synth.run_random_actions t ~n:40 ~objects_per_action:2 ~abort_rate:0.2 ();
  Alcotest.(check int) "after churn" 0 (List.length (seg_issues dir));
  Scheme.housekeep scheme Scheme.Snapshot;
  Alcotest.(check int) "after housekeeping" 0 (List.length (seg_issues dir));
  Synth.run_random_actions t ~n:20 ~objects_per_action:2 ~abort_rate:0.2 ();
  Scheme.housekeep scheme Scheme.Compaction;
  Alcotest.(check int) "after second housekeeping" 0 (List.length (seg_issues dir))

let test_check_segments_detects_corruption () =
  let dir = Log_dir.create ~page_size:64 ~segment_pages:2 () in
  let log = Log_dir.current dir in
  for i = 0 to 9 do
    ignore (Log.write log (String.make 40 (Char.chr (65 + i))))
  done;
  Log.force log;
  Alcotest.(check int) "clean before corruption" 0 (List.length (seg_issues dir));
  (* Smash a linked segment's self-describing header page. *)
  let id = List.hd (Log_dir.segment_ids dir) in
  let store = Option.get (Log_dir.segment_store dir id) in
  Store.put store 0 "not a segment header";
  (match seg_issues dir with
  | [] -> Alcotest.fail "corrupted segment header not detected"
  | issues ->
      Alcotest.(check bool) "names the segment" true
        (List.exists
           (fun (i : Check.issue) ->
             contains_substring (Format.asprintf "%a" Check.pp_issue i) "segment")
           issues));
  (* A header that decodes but describes the wrong slot is also caught:
     swap two segments' headers. *)
  match Log_dir.segment_ids dir with
  | a :: b :: _ when a <> b ->
      let sa = Option.get (Log_dir.segment_store dir a) in
      let sb = Option.get (Log_dir.segment_store dir b) in
      let ha = Option.get (Store.get sb 0) in
      Store.put sa 0 ha;
      (match seg_issues dir with
      | [] -> Alcotest.fail "swapped segment header not detected"
      | _ -> ())
  | _ -> Alcotest.fail "expected at least two segments"

let suite =
  [
    Alcotest.test_case "detects bad chain pointer" `Quick test_detects_forward_chain;
    Alcotest.test_case "detects bad pair target" `Quick test_detects_bad_pair_target;
    Alcotest.test_case "detects conflicting outcomes" `Quick test_detects_conflicting_outcomes;
    Alcotest.test_case "detects done without committing" `Quick test_detects_done_without_committing;
    Alcotest.test_case "detects committed without prepared" `Quick test_detects_committed_without_prepared;
    Alcotest.test_case "workload logs validate clean" `Quick test_workload_logs_clean;
    Alcotest.test_case "housekept logs validate clean" `Quick test_housekept_logs_clean;
    Alcotest.test_case "segment chain validates clean" `Quick test_check_segments_clean;
    Alcotest.test_case "segment fsck detects corruption" `Quick
      test_check_segments_detects_corruption;
  ]
