(* Tests for the shadowing baseline (§1.2.1). *)

open Helpers
module Rs = Core.Shadow_rs
module Pt = Core.Tables.Pt

let fresh () =
  let heap = Heap.create () in
  (heap, Rs.create heap ())

let commit_value heap rs = commit_value ~prepare:(Rs.prepare rs) ~commit:(Rs.commit rs) heap

let test_commit_crash_recover () =
  let heap, rs = fresh () in
  commit_value heap rs ~seq:1 ~name:"x" ~v:42;
  let rs', info = Rs.recover rs in
  (* The finished action's records may have been truncated from the
     in-flight log; the committed state itself must survive. *)
  Alcotest.(check bool) "T1 resolved" true
    (match pt_state info (aid 1) with Some Pt.Committed | None -> true | Some _ -> false);
  Alcotest.(check int) "x" 42 (stable_int (Rs.heap rs') "x")

let test_map_size_tracks_state () =
  let heap, rs = fresh () in
  for i = 0 to 9 do
    commit_value heap rs ~seq:i ~name:(Printf.sprintf "k%d" i) ~v:i
  done;
  (* 10 objects + the stable-variables root. *)
  Alcotest.(check int) "map size" 11 (Rs.map_size rs)

let test_abort_discards () =
  let heap, rs = fresh () in
  commit_value heap rs ~seq:1 ~name:"x" ~v:7;
  let t2 = aid 2 in
  (match Heap.get_stable_var heap "x" with
  | Some (Value.Ref a) -> Heap.set_current heap t2 a (Value.Int 8)
  | Some _ | None -> Alcotest.fail "setup");
  Rs.prepare rs t2 (Heap.mos heap t2);
  Rs.abort rs t2;
  Heap.abort_action heap t2;
  let rs', _ = Rs.recover rs in
  Alcotest.(check int) "x unchanged" 7 (stable_int (Rs.heap rs') "x")

let test_crash_between_commit_record_and_map () =
  (* The commit record is forced before the map switch; a crash in
     between must still commit the action at recovery (replay from the
     in-flight log). We simulate it by preparing, writing the committed
     record manually through a second prepare-crash... simplest honest
     variant: crash right after prepare, then verify commit-after-recovery
     applies. *)
  let heap, rs = fresh () in
  commit_value heap rs ~seq:1 ~name:"x" ~v:7;
  let t2 = aid 2 in
  (match Heap.get_stable_var heap "x" with
  | Some (Value.Ref a) -> Heap.set_current heap t2 a (Value.Int 8)
  | Some _ | None -> Alcotest.fail "setup");
  Rs.prepare rs t2 (Heap.mos heap t2);
  let rs', info = Rs.recover rs in
  check_pt info t2 Pt.Prepared "T2 prepared";
  let heap' = Rs.heap rs' in
  Rs.commit rs' t2;
  Heap.commit_action heap' t2;
  let rs'', _ = Rs.recover rs' in
  Alcotest.(check int) "x = 8" 8 (stable_int (Rs.heap rs'') "x")

let test_mutex_survives_abort_and_crash () =
  let heap, rs = fresh () in
  let t1 = aid 1 in
  let m = Heap.alloc_mutex heap (Value.Int 0) in
  let um = Option.get (Heap.uid_of heap m) in
  Heap.set_stable_var heap t1 "m" (Value.Ref m);
  ignore (Heap.seize heap t1 m);
  Heap.set_mutex heap t1 m (Value.Int 1);
  Heap.release heap t1 m;
  Rs.prepare rs t1 (Heap.mos heap t1);
  Rs.commit rs t1;
  Heap.commit_action heap t1;
  let t2 = aid 2 in
  ignore (Heap.seize heap t2 m);
  Heap.set_mutex heap t2 m (Value.Int 2);
  Heap.release heap t2 m;
  Rs.prepare rs t2 (Heap.mos heap t2);
  Rs.abort rs t2;
  Heap.abort_action heap t2;
  let rs', _ = Rs.recover rs in
  check_mutex (Rs.heap rs') um (Value.Int 2) "prepared-aborted mutex survives"

let test_repeated_crashes () =
  let heap, rs = fresh () in
  commit_value heap rs ~seq:0 ~name:"x" ~v:0;
  let cur = ref rs in
  for round = 1 to 5 do
    let rs', _ = Rs.recover !cur in
    let heap' = Rs.heap rs' in
    let t = aid round in
    (match Heap.get_stable_var heap' "x" with
    | Some (Value.Ref a) -> Heap.set_current heap' t a (Value.Int round)
    | Some _ | None -> Alcotest.fail "setup");
    Rs.prepare rs' t (Heap.mos heap' t);
    Rs.commit rs' t;
    Heap.commit_action heap' t;
    cur := rs'
  done;
  let rs', _ = Rs.recover !cur in
  Alcotest.(check int) "after rounds" 5 (stable_int (Rs.heap rs') "x")

let test_recovery_cost_independent_of_history () =
  (* Shadow's defining property: recovery processes O(state), not
     O(history). 400 commits to one object — the never-collected version
     store holds every one of them — then compare entries processed and
     pages read with a 1-commit run. *)
  let reads rs = List.fold_left (fun a d -> a + Log_dir.physical_reads d) 0 (Rs.log_dirs rs) in
  let recover rs =
    let r0 = reads rs in
    let rs', info = Rs.recover rs in
    (info.Core.Tables.Recovery_info.entries_processed, reads rs' - r0)
  in
  let heap, rs = fresh () in
  commit_value heap rs ~seq:0 ~name:"x" ~v:0;
  for i = 1 to 400 do
    commit_value heap rs ~seq:i ~name:"x" ~v:i
  done;
  let p_many, r_many = recover rs in
  let heap2, rs2 = fresh () in
  commit_value heap2 rs2 ~seq:0 ~name:"x" ~v:123;
  let p_one, r_one = recover rs2 in
  Alcotest.(check bool)
    (Printf.sprintf "O(state) recovery: %d vs %d entries" p_many p_one)
    true
    (p_many <= p_one + 4);
  Alcotest.(check bool)
    (Printf.sprintf "O(state) recovery: %d vs %d page reads" r_many r_one)
    true
    (r_many <= r_one + 4)

(* A crash on every segment boundary of one commit — its outcome force,
   its map switch (the new generation's segment allocated and linked, the
   old one's released) and the in-flight log's truncation: after recovery
   the action is all-or-nothing, and the segment fsck is clean on all
   three directories. *)
let test_map_switch_segment_crashes () =
  let stage_of = function
    | Log.Seg_alloc _ -> `Alloc
    | Log.Seg_link -> `Link
    | Log.Seg_retire _ -> `Retire
  in
  List.iter
    (fun (stage, label, at_least) ->
      let nth = ref 1 and fired = ref true in
      while !fired do
        let heap, rs = fresh () in
        commit_value heap rs ~seq:1 ~name:"x" ~v:1;
        let t2 = aid 2 in
        set_var "x" 2 heap t2;
        Rs.prepare rs t2 (Heap.mos heap t2);
        let at_stage = function Log.Segment ev -> stage_of ev = stage | _ -> false in
        fired :=
          (match crash_nth at_stage !nth (fun () -> Rs.commit rs t2) with
          | () -> false
          | exception Rs_storage.Disk.Crash -> true);
        if !fired then begin
          let what = Printf.sprintf "%s #%d" label !nth in
          let rs', info = Rs.recover rs in
          let x = stable_int (Rs.heap rs') "x" in
          (* Before its outcome record is stable the action stays
             prepared, and committing it now completes it; after, the
             recovered map holds it. *)
          (match pt_state info t2 with
          | Some Pt.Prepared ->
              Alcotest.(check int) (what ^ ": prepared keeps x") 1 x;
              Rs.commit rs' t2;
              Heap.commit_action (Rs.heap rs') t2;
              let rs'', _ = Rs.recover rs' in
              Alcotest.(check int) (what ^ ": commit after recovery") 2
                (stable_int (Rs.heap rs'') "x")
          | Some Pt.Committed | None -> Alcotest.(check int) (what ^ ": committed x") 2 x
          | Some Pt.Aborted -> Alcotest.failf "%s: action aborted" what);
          List.iter
            (fun dir ->
              match Core.Log_check.check_segments dir with
              | [] -> ()
              | i :: _ -> Alcotest.failf "%s: %a" what Core.Log_check.pp_issue i)
            (Rs.log_dirs rs');
          incr nth
        end
      done;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d boundaries crashed" label (!nth - 1))
        true
        (!nth - 1 >= at_least))
    (* The map switch allocates and links one segment and releases one;
       the truncation links again. *)
    [ (`Alloc, "seg-alloc", 1); (`Link, "seg-link", 2); (`Retire, "seg-retire", 1) ]

let suite =
  [
    Alcotest.test_case "commit crash recover" `Quick test_commit_crash_recover;
    Alcotest.test_case "map size tracks state" `Quick test_map_size_tracks_state;
    Alcotest.test_case "abort discards" `Quick test_abort_discards;
    Alcotest.test_case "commit after recovered prepare" `Quick test_crash_between_commit_record_and_map;
    Alcotest.test_case "mutex survives abort and crash" `Quick test_mutex_survives_abort_and_crash;
    Alcotest.test_case "repeated crashes" `Quick test_repeated_crashes;
    Alcotest.test_case "recovery cost O(state)" `Quick test_recovery_cost_independent_of_history;
    Alcotest.test_case "crash at map-switch segment boundaries" `Quick
      test_map_switch_segment_crashes;
  ]
