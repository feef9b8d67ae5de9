(* Direct unit tests of the shared recovery state machine (§3.4.4) and of
   the writing algorithm (§3.3.3.3), driven without any log: entries are
   fed by hand in backward order, sinks record what would be written. *)

open Helpers
module Restore = Core.Restore
module Wo = Core.Write_objects
module Le = Core.Log_entry
module Ot = Core.Tables.Ot
module Pt = Core.Tables.Pt

let t1 = aid 1
let t2 = aid 2

(* --- Restore state machine ---------------------------------------- *)

let mk_ctx () =
  let heap = Heap.create () in
  (heap, Restore.create_ctx heap)

let fetch otype v () = (otype, Helpers.fint v)

let test_first_outcome_wins () =
  let _, ctx = mk_ctx () in
  (* Backward reading: committed seen first is final; an older prepared
     for the same action must not demote it. *)
  Restore.on_committed ctx t1;
  Restore.on_prepared ctx t1;
  Alcotest.(check bool) "still committed" true
    (Core.Tables.Pt.find ctx.Restore.pt t1 = Some Pt.Committed)

let test_data_of_unknown_action_ignored () =
  let heap, ctx = mk_ctx () in
  let fetched = ref false in
  Restore.on_data ctx ~uid:(uid 5) ~aid:(Some t1) ~src:10 ~fetch:(fun () ->
      fetched := true;
      (Le.Atomic, fint 1));
  Alcotest.(check bool) "not even fetched" false !fetched;
  Alcotest.(check bool) "nothing installed" true (Heap.addr_of_uid heap (uid 5) = None)

let test_committed_data_becomes_base () =
  let heap, ctx = mk_ctx () in
  Restore.on_committed ctx t1;
  Restore.on_data ctx ~uid:(uid 5) ~aid:(Some t1) ~src:10 ~fetch:(fetch Le.Atomic 42);
  check_base heap (uid 5) (Value.Int 42) "base installed";
  (* An older version for the same object is ignored. *)
  Restore.on_data ctx ~uid:(uid 5) ~aid:(Some t1) ~src:5 ~fetch:(fun () ->
      Alcotest.fail "must not fetch an older committed atomic version");
  check_base heap (uid 5) (Value.Int 42) "still the newer version"

let test_prepared_data_then_base () =
  let heap, ctx = mk_ctx () in
  Restore.on_prepared ctx t2;
  Restore.on_committed ctx t1;
  (* T2's current version first (newest), then T1's committed base. *)
  Restore.on_data ctx ~uid:(uid 5) ~aid:(Some t2) ~src:20 ~fetch:(fetch Le.Atomic 8);
  (match Ot.find ctx.Restore.ot (uid 5) with
  | Some e -> Alcotest.(check bool) "OT prepared" true (e.state = Ot.Prepared)
  | None -> Alcotest.fail "missing OT entry");
  Restore.on_data ctx ~uid:(uid 5) ~aid:(Some t1) ~src:10 ~fetch:(fetch Le.Atomic 7);
  check_base heap (uid 5) (Value.Int 7) "base filled";
  check_cur heap (uid 5) (Value.Int 8) "current kept";
  (match (view_of heap (uid 5)).lock with
  | Heap.Write w -> Alcotest.(check bool) "lock regranted to T2" true (Aid.equal w t2)
  | Heap.Free | Heap.Read _ -> Alcotest.fail "no write lock");
  match Ot.find ctx.Restore.ot (uid 5) with
  | Some e -> Alcotest.(check bool) "OT restored" true (e.state = Ot.Restored)
  | None -> Alcotest.fail "missing OT entry"

let test_mutex_address_rule () =
  let heap, ctx = mk_ctx () in
  Restore.on_committed ctx t1;
  Restore.on_aborted ctx t2;
  (* Chain order can present a SMALLER-addressed entry first (early
     prepare, Fig. 4-3): the larger address must win regardless. *)
  Restore.on_data ctx ~uid:(uid 9) ~aid:(Some t1) ~src:10 ~fetch:(fetch Le.Mutex 1);
  check_mutex heap (uid 9) (Value.Int 1) "first version in";
  Restore.on_data ctx ~uid:(uid 9) ~aid:(Some t2) ~src:30 ~fetch:(fetch Le.Mutex 2);
  check_mutex heap (uid 9) (Value.Int 2) "larger address wins (even aborted)";
  Restore.on_data ctx ~uid:(uid 9) ~aid:(Some t1) ~src:20 ~fetch:(fun () ->
      Alcotest.fail "smaller address must not even be fetched");
  check_mutex heap (uid 9) (Value.Int 2) "kept"

let test_bc_fills_base_once () =
  let heap, ctx = mk_ctx () in
  Restore.on_prepared ctx t2;
  Restore.on_data ctx ~uid:(uid 3) ~aid:(Some t2) ~src:20 ~fetch:(fetch Le.Atomic 5);
  Restore.on_base_committed ctx ~uid:(uid 3) (fint 4);
  check_base heap (uid 3) (Value.Int 4) "bc fills base";
  Restore.on_base_committed ctx ~uid:(uid 3) (fint 999);
  check_base heap (uid 3) (Value.Int 4) "older bc ignored"

let test_pd_branches () =
  let heap, ctx = mk_ctx () in
  (* pd of an aborted action: ignored. *)
  Restore.on_aborted ctx t1;
  Restore.on_prepared_data ctx ~uid:(uid 1) ~aid:t1 (fint 11);
  Alcotest.(check bool) "aborted pd ignored" true (Heap.addr_of_uid heap (uid 1) = None);
  (* pd of a committed action: its version is the new base. *)
  Restore.on_committed ctx t2;
  Restore.on_prepared_data ctx ~uid:(uid 2) ~aid:t2 (fint 22);
  check_base heap (uid 2) (Value.Int 22) "committed pd becomes base";
  (* pd of an action with no outcome entry yet: implies prepared. *)
  let t9 = aid 9 in
  Restore.on_prepared_data ctx ~uid:(uid 3) ~aid:t9 (fint 33);
  Alcotest.(check bool) "pd implies prepared" true
    (Core.Tables.Pt.find ctx.Restore.pt t9 = Some Pt.Prepared);
  check_cur heap (uid 3) (Value.Int 33) "current restored with lock"

let test_committed_ss_respects_existing () =
  let heap, ctx = mk_ctx () in
  (* Newer entries already restored the object; the checkpoint must not
     clobber it. *)
  Restore.on_committed ctx t1;
  Restore.on_data ctx ~uid:(uid 5) ~aid:(Some t1) ~src:100 ~fetch:(fetch Le.Atomic 50);
  Restore.on_committed_ss ctx
    ~pairs:[ (uid 5, 10); (uid 6, 11) ]
    ~fetch:(fun a -> if a = 10 then (Le.Atomic, fint 999) else (Le.Atomic, fint 60));
  check_base heap (uid 5) (Value.Int 50) "newer version kept";
  check_base heap (uid 6) (Value.Int 60) "checkpointed object restored"

let test_finish_resets_counters () =
  let heap, ctx = mk_ctx () in
  Restore.on_committed ctx t1;
  Restore.on_data ctx ~uid:(uid 41) ~aid:(Some t1) ~src:1 ~fetch:(fetch Le.Atomic 1);
  let gen = Heap.uid_gen heap in
  let info = Restore.finish ctx ~uid_gen:gen in
  Alcotest.(check bool) "uid counter past max" true
    (Uid.to_int (Uid.Gen.fresh gen) > 41);
  Alcotest.(check int) "one object reported" 1
    (List.length info.Core.Tables.Recovery_info.objects)

(* --- Writing algorithm --------------------------------------------- *)

type emitted =
  | E_data of Uid.t * Le.otype
  | E_bc of Uid.t
  | E_pd of Uid.t * Aid.t

let recording_sink acc : Wo.sink =
  {
    data = (fun ~uid ~otype _ -> acc := E_data (uid, otype) :: !acc);
    base_committed = (fun ~uid _ -> acc := E_bc uid :: !acc);
    prepared_data = (fun ~uid ~aid _ -> acc := E_pd (uid, aid) :: !acc);
  }

let run_write ~heap ~accessible ~prepared ~aid ~mos =
  let acc = ref [] in
  let set = ref accessible in
  let leftovers =
    Wo.write_mos ~heap
      ~accessible:(fun u -> Uid.Set.mem u !set)
      ~add_accessible:(fun u -> set := Uid.Set.add u !set)
      ~prepared:(fun a -> List.exists (Aid.equal a) prepared)
      ~aid ~mos ~sink:(recording_sink acc)
  in
  (List.rev !acc, leftovers, !set)

let test_accessible_modified_written () =
  let heap = Heap.create () in
  let a = Heap.alloc_atomic heap ~creator:t1 (Value.Int 0) in
  let u = Option.get (Heap.uid_of heap a) in
  Heap.commit_action heap t1;
  Heap.set_current heap t2 a (Value.Int 1);
  let emitted, leftovers, _ =
    run_write ~heap ~accessible:(Uid.Set.singleton u) ~prepared:[] ~aid:t2 ~mos:[ a ]
  in
  Alcotest.(check bool) "one data entry" true (emitted = [ E_data (u, Le.Atomic) ]);
  Alcotest.(check (list int)) "no leftovers" [] leftovers

let test_inaccessible_returned () =
  let heap = Heap.create () in
  let a = Heap.alloc_atomic heap ~creator:t2 (Value.Int 0) in
  Heap.set_current heap t2 a (Value.Int 1);
  let emitted, leftovers, _ =
    run_write ~heap ~accessible:Uid.Set.empty ~prepared:[] ~aid:t2 ~mos:[ a ]
  in
  Alcotest.(check bool) "nothing written" true (emitted = []);
  Alcotest.(check (list int)) "returned as MOS'" [ a ] leftovers

let test_newly_accessible_cases () =
  let heap = Heap.create () in
  (* Root object r (accessible) gains references to three fresh objects:
     one created by the preparing action (read lock), one write-locked by
     the preparing action, one write-locked by ANOTHER prepared action. *)
  let r = Heap.alloc_atomic heap ~creator:t1 (Value.Unit) in
  let ur = Option.get (Heap.uid_of heap r) in
  Heap.commit_action heap t1;
  let fresh_read = Heap.alloc_atomic heap ~creator:t2 (Value.Int 10) in
  let fresh_mine = Heap.alloc_atomic heap ~creator:t2 (Value.Int 20) in
  Heap.set_current heap t2 fresh_mine (Value.Int 21);
  let other = aid 7 in
  let fresh_other = Heap.alloc_atomic heap ~creator:other (Value.Int 30) in
  Heap.set_current heap other fresh_other (Value.Int 31);
  Heap.set_current heap t2 r
    (Value.Tup [| Value.Ref fresh_read; Value.Ref fresh_mine; Value.Ref fresh_other |]);
  let u1 = Option.get (Heap.uid_of heap fresh_read) in
  let u2 = Option.get (Heap.uid_of heap fresh_mine) in
  let u3 = Option.get (Heap.uid_of heap fresh_other) in
  let emitted, _, final_as =
    run_write ~heap ~accessible:(Uid.Set.singleton ur) ~prepared:[ other ] ~aid:t2
      ~mos:[ r; fresh_mine ]
  in
  let has e = List.exists (( = ) e) emitted in
  Alcotest.(check bool) "root data" true (has (E_data (ur, Le.Atomic)));
  Alcotest.(check bool) "read-locked fresh: bc only" true
    (has (E_bc u1) && not (has (E_data (u1, Le.Atomic))));
  Alcotest.(check bool) "own write-locked fresh: bc + data" true
    (has (E_bc u2) && has (E_data (u2, Le.Atomic)));
  Alcotest.(check bool) "other prepared action: bc + pd" true
    (has (E_bc u3) && has (E_pd (u3, other)));
  (* bc precedes the same object's data entry (recovery depends on it). *)
  let rec index e = function [] -> -1 | x :: r -> if x = e then 0 else 1 + index e r in
  Alcotest.(check bool) "bc before data" true
    (index (E_bc u2) emitted < index (E_data (u2, Le.Atomic)) emitted);
  List.iter
    (fun u -> Alcotest.(check bool) "joined AS" true (Uid.Set.mem u final_as))
    [ u1; u2; u3 ]

let test_other_unprepared_writer_base_only () =
  let heap = Heap.create () in
  let r = Heap.alloc_atomic heap ~creator:t1 Value.Unit in
  let ur = Option.get (Heap.uid_of heap r) in
  Heap.commit_action heap t1;
  let other = aid 7 in
  let fresh = Heap.alloc_atomic heap ~creator:other (Value.Int 1) in
  Heap.set_current heap other fresh (Value.Int 2);
  Heap.set_current heap t2 r (Value.Ref fresh);
  let uf = Option.get (Heap.uid_of heap fresh) in
  let emitted, _, _ =
    run_write ~heap ~accessible:(Uid.Set.singleton ur) ~prepared:[] (* other NOT prepared *)
      ~aid:t2 ~mos:[ r ]
  in
  let has e = List.exists (( = ) e) emitted in
  Alcotest.(check bool) "bc only, no pd" true
    (has (E_bc uf)
    && (not (has (E_pd (uf, other))))
    && not (has (E_data (uf, Le.Atomic))))

let test_transitive_naos () =
  let heap = Heap.create () in
  let r = Heap.alloc_atomic heap ~creator:t1 Value.Unit in
  let ur = Option.get (Heap.uid_of heap r) in
  Heap.commit_action heap t1;
  (* A chain of fresh objects: r -> f1 -> f2 -> f3. *)
  let f3 = Heap.alloc_atomic heap ~creator:t2 (Value.Int 3) in
  let f2 = Heap.alloc_atomic heap ~creator:t2 (Value.Ref f3) in
  let f1 = Heap.alloc_atomic heap ~creator:t2 (Value.Ref f2) in
  Heap.set_current heap t2 r (Value.Ref f1);
  let emitted, _, _ =
    run_write ~heap ~accessible:(Uid.Set.singleton ur) ~prepared:[] ~aid:t2 ~mos:[ r ]
  in
  let bcs = List.filter (function E_bc _ -> true | _ -> false) emitted in
  Alcotest.(check int) "all three discovered transitively" 3 (List.length bcs)

let test_mutex_in_naos_gets_data_entry () =
  let heap = Heap.create () in
  let r = Heap.alloc_atomic heap ~creator:t1 Value.Unit in
  let ur = Option.get (Heap.uid_of heap r) in
  Heap.commit_action heap t1;
  let m = Heap.alloc_mutex heap (Value.Int 5) in
  let um = Option.get (Heap.uid_of heap m) in
  Heap.set_current heap t2 r (Value.Ref m);
  let emitted, _, _ =
    run_write ~heap ~accessible:(Uid.Set.singleton ur) ~prepared:[] ~aid:t2 ~mos:[ r ]
  in
  Alcotest.(check bool) "mutex data entry, no bc" true
    (List.exists (( = ) (E_data (um, Le.Mutex))) emitted
    && not (List.exists (( = ) (E_bc um)) emitted))

let suite =
  [
    Alcotest.test_case "first outcome wins" `Quick test_first_outcome_wins;
    Alcotest.test_case "unknown action's data ignored" `Quick test_data_of_unknown_action_ignored;
    Alcotest.test_case "committed data becomes base" `Quick test_committed_data_becomes_base;
    Alcotest.test_case "prepared current + committed base" `Quick test_prepared_data_then_base;
    Alcotest.test_case "mutex address rule" `Quick test_mutex_address_rule;
    Alcotest.test_case "bc fills base once" `Quick test_bc_fills_base_once;
    Alcotest.test_case "prepared_data branches" `Quick test_pd_branches;
    Alcotest.test_case "committed_ss respects newer state" `Quick test_committed_ss_respects_existing;
    Alcotest.test_case "finish resets counters" `Quick test_finish_resets_counters;
    Alcotest.test_case "accessible modified written" `Quick test_accessible_modified_written;
    Alcotest.test_case "inaccessible returned as MOS'" `Quick test_inaccessible_returned;
    Alcotest.test_case "newly accessible cases" `Quick test_newly_accessible_cases;
    Alcotest.test_case "unprepared other writer: base only" `Quick test_other_unprepared_writer_base_only;
    Alcotest.test_case "transitive NAOS discovery" `Quick test_transitive_naos;
    Alcotest.test_case "mutex in NAOS gets data entry" `Quick test_mutex_in_naos_gets_data_entry;
  ]
