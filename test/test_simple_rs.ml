(* Lifecycle tests for the simple-log recovery system (Chapter 3). *)

open Helpers
module Rs = Core.Simple_rs

let fresh () =
  let heap = Heap.create () in
  let dir = Log_dir.create ~page_size:256 () in
  (heap, dir, Rs.create heap dir)

(* One committed action binding a stable variable to a fresh object. *)
let commit_one heap rs ~seq ~name ~v =
  let t = aid seq in
  let a = Heap.alloc_atomic heap ~creator:t (Value.Int v) in
  Heap.set_stable_var heap t name (Value.Ref a);
  Rs.prepare rs t (Heap.mos heap t);
  Rs.commit rs t;
  Heap.commit_action heap t;
  a

let test_commit_survives_crash () =
  let heap, dir, rs = fresh () in
  ignore (commit_one heap rs ~seq:1 ~name:"x" ~v:42);
  let rs', info = Rs.recover dir in
  check_pt info (aid 1) Core.Tables.Pt.Committed "T1 committed";
  Alcotest.(check int) "x = 42" 42 (stable_int (Rs.heap rs') "x")

let test_unprepared_action_lost () =
  let heap, dir, rs = fresh () in
  ignore (commit_one heap rs ~seq:1 ~name:"x" ~v:1);
  (* A second action modifies x but crashes before preparing. *)
  let t2 = aid 2 in
  (match Heap.get_stable_var heap "x" with
  | Some (Value.Ref a) -> Heap.set_current heap t2 a (Value.Int 999)
  | Some _ | None -> Alcotest.fail "setup");
  let rs', info = Rs.recover dir in
  Alcotest.(check bool) "t2 unknown" true (pt_state info t2 = None);
  Alcotest.(check int) "x unchanged" 1 (stable_int (Rs.heap rs') "x")

let test_aborted_action_undone () =
  let heap, dir, rs = fresh () in
  let a = commit_one heap rs ~seq:1 ~name:"x" ~v:7 in
  let t2 = aid 2 in
  Heap.set_current heap t2 a (Value.Int 8);
  Rs.prepare rs t2 (Heap.mos heap t2);
  Rs.abort rs t2;
  Heap.abort_action heap t2;
  let rs', info = Rs.recover dir in
  check_pt info t2 Core.Tables.Pt.Aborted "T2 aborted";
  Alcotest.(check int) "x still 7" 7 (stable_int (Rs.heap rs') "x")

let test_prepared_action_resumes () =
  let heap, dir, rs = fresh () in
  let a = commit_one heap rs ~seq:1 ~name:"x" ~v:7 in
  let u = Option.get (Heap.uid_of heap a) in
  let t2 = aid 2 in
  Heap.set_current heap t2 a (Value.Int 8);
  Rs.prepare rs t2 (Heap.mos heap t2);
  (* Crash before the verdict arrives. *)
  let rs', info = Rs.recover dir in
  check_pt info t2 Core.Tables.Pt.Prepared "T2 prepared";
  Alcotest.(check (list (pair int int))) "PAT restored"
    [ (0, 2) ]
    (List.map (fun a -> (Gid.to_int (Aid.coordinator a), Aid.seq a)) (Rs.prepared_actions rs'));
  let heap' = Rs.heap rs' in
  check_base heap' u (Value.Int 7) "base is committed value";
  check_cur heap' u (Value.Int 8) "current version restored";
  match (view_of heap' u).lock with
  | Heap.Write holder -> Alcotest.(check bool) "lock regranted" true (Aid.equal holder t2)
  | Heap.Free | Heap.Read _ -> Alcotest.fail "write lock not restored"

let test_commit_after_recovered_prepare () =
  (* The recovered participant receives the verdict and commits; the next
     crash must show the new value. *)
  let heap, dir, rs = fresh () in
  let a = commit_one heap rs ~seq:1 ~name:"x" ~v:7 in
  ignore a;
  let t2 = aid 2 in
  (match Heap.get_stable_var heap "x" with
  | Some (Value.Ref addr) -> Heap.set_current heap t2 addr (Value.Int 8)
  | Some _ | None -> Alcotest.fail "setup");
  Rs.prepare rs t2 (Heap.mos heap t2);
  let rs', _ = Rs.recover dir in
  let heap' = Rs.heap rs' in
  Rs.commit rs' t2;
  Heap.commit_action heap' t2;
  Alcotest.(check int) "x = 8 in memory" 8 (stable_int heap' "x");
  let rs'', _ = Rs.recover dir in
  Alcotest.(check int) "x = 8 after next crash" 8 (stable_int (Rs.heap rs'') "x")

let test_many_actions_last_wins () =
  let heap, dir, rs = fresh () in
  let a = commit_one heap rs ~seq:0 ~name:"x" ~v:0 in
  for i = 1 to 20 do
    let t = aid i in
    Heap.set_current heap t a (Value.Int i);
    Rs.prepare rs t (Heap.mos heap t);
    Rs.commit rs t;
    Heap.commit_action heap t
  done;
  let rs', _ = Rs.recover dir in
  Alcotest.(check int) "last committed wins" 20 (stable_int (Rs.heap rs') "x")

let test_mutex_roundtrip () =
  let heap, dir, rs = fresh () in
  let t1 = aid 1 in
  let m = Heap.alloc_mutex heap (Value.Str "initial") in
  let u = Option.get (Heap.uid_of heap m) in
  Heap.set_stable_var heap t1 "box" (Value.Ref m);
  ignore (Heap.seize heap t1 m);
  Heap.set_mutex heap t1 m (Value.Str "v1");
  Heap.release heap t1 m;
  Rs.prepare rs t1 (Heap.mos heap t1);
  Rs.commit rs t1;
  Heap.commit_action heap t1;
  (* A prepared-then-aborted action's mutex state persists (§2.4.2). *)
  let t2 = aid 2 in
  ignore (Heap.seize heap t2 m);
  Heap.set_mutex heap t2 m (Value.Str "v2");
  Heap.release heap t2 m;
  Rs.prepare rs t2 (Heap.mos heap t2);
  Rs.abort rs t2;
  Heap.abort_action heap t2;
  let rs', _ = Rs.recover dir in
  check_mutex (Rs.heap rs') u (Value.Str "v2") "aborted action's mutex state kept"

let test_uid_counter_reset () =
  let heap, dir, rs = fresh () in
  let a = commit_one heap rs ~seq:1 ~name:"x" ~v:1 in
  let u = Option.get (Heap.uid_of heap a) in
  let rs', _ = Rs.recover dir in
  let heap' = Rs.heap rs' in
  let t = aid 9 in
  let b = Heap.alloc_atomic heap' ~creator:t (Value.Int 2) in
  let u' = Option.get (Heap.uid_of heap' b) in
  Alcotest.(check bool) "fresh uid after recovery" true (Uid.compare u' u > 0)

let test_repeated_crashes () =
  let heap, dir, rs = fresh () in
  ignore (commit_one heap rs ~seq:0 ~name:"x" ~v:0);
  let current = ref (dir, 0) in
  for round = 1 to 5 do
    let dir, _prev = !current in
    let rs', _ = Rs.recover dir in
    let heap' = Rs.heap rs' in
    let t = aid round in
    (match Heap.get_stable_var heap' "x" with
    | Some (Value.Ref a) -> Heap.set_current heap' t a (Value.Int round)
    | Some _ | None -> Alcotest.fail "setup");
    Rs.prepare rs' t (Heap.mos heap' t);
    Rs.commit rs' t;
    Heap.commit_action heap' t;
    current := (dir, round)
  done;
  let dir, last = !current in
  let rs', _ = Rs.recover dir in
  Alcotest.(check int) "value after 5 crash/recover rounds" last (stable_int (Rs.heap rs') "x")

let test_newly_accessible_object_chain () =
  (* A committed action links a chain x -> o1 -> o2 -> o3 in one go: all
     three are newly accessible and must be written and restored. *)
  let heap, dir, rs = fresh () in
  let t = aid 1 in
  let o3 = Heap.alloc_atomic heap ~creator:t (Value.Int 3) in
  let o2 = Heap.alloc_atomic heap ~creator:t (Value.Ref o3) in
  let o1 = Heap.alloc_atomic heap ~creator:t (Value.Ref o2) in
  Heap.set_stable_var heap t "chain" (Value.Ref o1);
  Rs.prepare rs t (Heap.mos heap t);
  Rs.commit rs t;
  Heap.commit_action heap t;
  let rs', _ = Rs.recover dir in
  let heap' = Rs.heap rs' in
  let rec follow v depth =
    match v with
    | Value.Ref a -> (
        match (Heap.atomic_view heap' a).base with
        | Value.Int n -> (depth, n)
        | next -> follow next (depth + 1))
    | Value.Int n -> (depth, n)
    | v -> Alcotest.failf "unexpected %s" (Format.asprintf "%a" Value.pp v)
  in
  match Heap.get_stable_var heap' "chain" with
  | Some v ->
      let depth, n = follow v 0 in
      Alcotest.(check int) "chain depth" 2 depth;
      Alcotest.(check int) "leaf" 3 n
  | None -> Alcotest.fail "chain unbound"

let test_trim_accessibility_set () =
  let heap, dir, rs = fresh () in
  let a = commit_one heap rs ~seq:1 ~name:"x" ~v:1 in
  let ua = Option.get (Heap.uid_of heap a) in
  ignore dir;
  (* Unlink a; its uid lingers in the AS until trimmed. *)
  let t2 = aid 2 in
  Heap.set_stable_var heap t2 "x" Value.Unit;
  Rs.prepare rs t2 (Heap.mos heap t2);
  Rs.commit rs t2;
  Heap.commit_action heap t2;
  Alcotest.(check bool) "still in AS" true (Rs.accessible rs ua);
  Rs.trim_accessibility_set rs;
  Alcotest.(check bool) "trimmed" false (Rs.accessible rs ua)

let suite =
  [
    Alcotest.test_case "commit survives crash" `Quick test_commit_survives_crash;
    Alcotest.test_case "unprepared action lost" `Quick test_unprepared_action_lost;
    Alcotest.test_case "aborted action undone" `Quick test_aborted_action_undone;
    Alcotest.test_case "prepared action resumes" `Quick test_prepared_action_resumes;
    Alcotest.test_case "commit after recovered prepare" `Quick test_commit_after_recovered_prepare;
    Alcotest.test_case "many actions, last wins" `Quick test_many_actions_last_wins;
    Alcotest.test_case "mutex semantics across crash" `Quick test_mutex_roundtrip;
    Alcotest.test_case "uid counter reset" `Quick test_uid_counter_reset;
    Alcotest.test_case "repeated crash/recover" `Quick test_repeated_crashes;
    Alcotest.test_case "newly accessible chain" `Quick test_newly_accessible_object_chain;
    Alcotest.test_case "trim accessibility set" `Quick test_trim_accessibility_set;
  ]
