(* Tests for MVCC snapshot reads: per-object version chains stamped by
   the heap's commit sequence, bounded by eager pruning, volatile across
   restart; the read-only action path built on them; and the
   snapshot-legality monitor. *)

module System = Rs_guardian.System
module Guardian = Rs_guardian.Guardian
module Heap = Rs_objstore.Heap
module Value = Rs_objstore.Value
module Gid = Rs_util.Gid
module Aid = Rs_util.Aid
module Metrics = Rs_obs.Metrics
module Trace = Rs_obs.Trace
module Monitor = Rs_obs.Monitor

let aid n = Aid.make ~coordinator:(Gid.of_int 0) ~seq:n

let read_locks () =
  Option.value ~default:0 (Metrics.find_counter Metrics.default "heap.read_locks_taken")

let int_of v = match v with Value.Int n -> n | _ -> Alcotest.fail "not an int"

(* --- version-chain units ------------------------------------------------ *)

let test_snapshot_sees_old_version () =
  (* A writer committing while a snapshot is open must leave the old
     version readable at the snapshot's stamp. *)
  let h = Heap.create () in
  let t1 = aid 1 in
  let a = Heap.alloc_atomic h ~creator:t1 (Value.Int 0) in
  Heap.commit_action h t1;
  let s0 = Heap.snapshot h in
  let t2 = aid 2 in
  Heap.set_current h t2 a (Value.Int 1);
  Heap.commit_action h t2;
  Alcotest.(check int) "snapshot still sees 0" 0 (int_of (Heap.snapshot_read h s0 a));
  Alcotest.(check int) "committed read sees 1" 1 (int_of (Heap.committed_read h a));
  Alcotest.(check int) "chain holds both versions" 2 (Heap.chain_length h a);
  let s1 = Heap.snapshot h in
  Alcotest.(check int) "new snapshot sees 1" 1 (int_of (Heap.snapshot_read h s1 a));
  Heap.release_snapshot h s0;
  Alcotest.(check int) "old version pruned at release" 1 (Heap.chain_length h a);
  Heap.release_snapshot h s1;
  Alcotest.(check int) "no snapshots left" 0 (Heap.active_snapshots h)

let test_prune_at_last_release () =
  (* Two snapshots pinned at the same stamp: the history version survives
     the first release and dies with the second. *)
  let h = Heap.create () in
  let t1 = aid 1 in
  let a = Heap.alloc_atomic h ~creator:t1 (Value.Int 0) in
  Heap.commit_action h t1;
  let s0 = Heap.snapshot h and s0' = Heap.snapshot h in
  let t2 = aid 2 in
  Heap.set_current h t2 a (Value.Int 1);
  Heap.commit_action h t2;
  Alcotest.(check int) "chain grew" 2 (Heap.chain_length h a);
  Heap.release_snapshot h s0;
  Alcotest.(check int) "other snapshot keeps the version" 2 (Heap.chain_length h a);
  Alcotest.(check int) "surviving snapshot reads 0" 0 (int_of (Heap.snapshot_read h s0' a));
  Heap.release_snapshot h s0';
  Alcotest.(check int) "last release prunes" 1 (Heap.chain_length h a);
  (* Releasing twice is idempotent; reading a released snapshot refuses. *)
  Heap.release_snapshot h s0';
  (match Heap.snapshot_read h s0 a with
  | _ -> Alcotest.fail "released snapshot must not read"
  | exception Invalid_argument _ -> ())

let test_chain_bound () =
  (* N snapshots at distinct stamps pin at most N history versions:
     chain length never exceeds active snapshots + 1, and intermediate
     versions no snapshot can observe are pruned eagerly at install. *)
  let h = Heap.create () in
  let t0 = aid 1000 in
  let a = Heap.alloc_atomic h ~creator:t0 (Value.Int 0) in
  Heap.commit_action h t0;
  let snaps = ref [] in
  for i = 1 to 10 do
    snaps := (Heap.snapshot h, (if i = 1 then 0 else (2 * (i - 1)) + 1)) :: !snaps;
    (* Two commits per snapshot window: the second supersedes the first
       with no observer in between, so only one survives per window. *)
    for j = 0 to 1 do
      let t = aid ((10 * i) + j) in
      Heap.set_current h t a (Value.Int ((2 * i) + j));
      Heap.commit_action h t
    done;
    Alcotest.(check bool)
      (Printf.sprintf "bound holds after %d commits" (2 * i))
      true
      (Heap.chain_length h a <= Heap.active_snapshots h + 1)
  done;
  List.iter (fun (s, expect) ->
      Alcotest.(check int) "each snapshot sees its cut" expect (int_of (Heap.snapshot_read h s a)))
    !snaps;
  List.iter (fun (s, _) -> Heap.release_snapshot h s) !snaps;
  Alcotest.(check int) "all history pruned" 1 (Heap.chain_length h a);
  Alcotest.(check int) "chain metric tracked a peak" 0 (Heap.active_snapshots h)

let test_abort_installs_nothing () =
  let h = Heap.create () in
  let t1 = aid 1 in
  let a = Heap.alloc_atomic h ~creator:t1 (Value.Int 0) in
  Heap.commit_action h t1;
  let s = Heap.snapshot h in
  let t2 = aid 2 in
  Heap.set_current h t2 a (Value.Int 99);
  Heap.abort_action h t2;
  Alcotest.(check int) "no version installed" 1 (Heap.chain_length h a);
  Alcotest.(check int) "snapshot unaffected" 0 (int_of (Heap.snapshot_read h s a));
  Heap.release_snapshot h s

let test_ro_guard_refuses_mutation () =
  (* A registered read-only action reads through its snapshot — even past
     an uncommitted writer — and every mutation entry point refuses. *)
  let h = Heap.create () in
  let t1 = aid 1 in
  let a = Heap.alloc_atomic h ~creator:t1 (Value.Int 7) in
  let m = Heap.alloc_mutex h (Value.Int 0) in
  Heap.commit_action h t1;
  let writer = aid 2 in
  Heap.set_current h writer a (Value.Int 8);
  (* writer holds the write lock with an uncommitted version *)
  let ro = aid 3 in
  let s = Heap.snapshot h in
  Heap.begin_read_only h ro s;
  let locks0 = read_locks () in
  Alcotest.(check int) "reads committed value past the writer" 7
    (int_of (Heap.read_atomic h ro a));
  Alcotest.(check int) "zero read locks taken" 0 (read_locks () - locks0);
  (match Heap.write_lock h ro a with
  | () -> Alcotest.fail "write_lock must refuse"
  | exception Invalid_argument _ -> ());
  (match Heap.alloc_atomic h ~creator:ro (Value.Int 0) with
  | _ -> Alcotest.fail "alloc_atomic must refuse"
  | exception Invalid_argument _ -> ());
  (match Heap.seize h ro m with
  | _ -> Alcotest.fail "seize must refuse"
  | exception Invalid_argument _ -> ());
  Heap.end_read_only h ro;
  Heap.release_snapshot h s;
  Heap.abort_action h writer

(* --- restart volatility ------------------------------------------------- *)

let set_var = Helpers.set_var

let commit sys ~steps =
  let h = System.submit sys ~coordinator:(Gid.of_int 0) ~steps in
  Alcotest.(check bool) "commits" true (System.await sys h = System.Committed);
  System.quiesce sys

let test_restart_clears_chains () =
  (* Snapshot state is volatile: a crash replaces the heap, recovery
     rebuilds single-version objects, and pre-crash snapshots are refused
     by the new incarnation. *)
  let g0 = Gid.of_int 0 in
  let sys = System.create ~n:1 () in
  commit sys ~steps:[ (g0, set_var "x" 1) ];
  let heap0 = Guardian.heap (System.guardian sys g0) in
  let s = Heap.snapshot heap0 in
  commit sys ~steps:[ (g0, set_var "x" 2) ];
  let addr heap =
    match Heap.get_stable_var heap "x" with
    | Some (Value.Ref a) -> a
    | Some _ | None -> Alcotest.fail "x missing"
  in
  Alcotest.(check int) "chain grew pre-crash" 2 (Heap.chain_length heap0 (addr heap0));
  System.crash sys g0;
  ignore (System.restart sys g0);
  System.quiesce sys;
  let heap1 = Guardian.heap (System.guardian sys g0) in
  Alcotest.(check int) "recovered object is single-version" 1
    (Heap.chain_length heap1 (addr heap1));
  Alcotest.(check int) "no snapshots survive restart" 0 (Heap.active_snapshots heap1);
  Alcotest.(check int) "recovered committed value" 2
    (int_of (Heap.committed_read heap1 (addr heap1)));
  (* The pre-crash snapshot names a dead incarnation. *)
  match Heap.snapshot_read heap1 s (addr heap1) with
  | _ -> Alcotest.fail "stale snapshot must be refused"
  | exception Invalid_argument _ -> ()

(* --- the System read-only path ------------------------------------------ *)

let test_read_only_past_in_flight_writer () =
  (* A read-only action completes synchronously — zero locks, no wait —
     even while an update action holds the write lock in 2PC. *)
  let g0 = Gid.of_int 0 in
  let sys = System.create ~n:1 () in
  commit sys ~steps:[ (g0, set_var "x" 1) ];
  (* Submit but do not drive: the step has run, the write lock is held,
     phase two has not installed yet. *)
  let h = System.submit sys ~coordinator:g0 ~steps:[ (g0, set_var "x" 2) ] in
  let locks0 = read_locks () in
  let v =
    System.read_only sys g0 (fun ro ->
        match System.ro_var ro "x" with
        | Some (Value.Ref a) -> int_of (System.ro_read ro a)
        | Some _ | None -> Alcotest.fail "x missing")
  in
  Alcotest.(check int) "sees committed value, not the in-flight write" 1 v;
  Alcotest.(check int) "zero read locks taken" 0 (read_locks () - locks0);
  Alcotest.(check bool) "writer still commits" true (System.await sys h = System.Committed);
  System.quiesce sys;
  let v' =
    System.read_only sys g0 (fun ro ->
        match System.ro_var ro "x" with
        | Some (Value.Ref a) -> int_of (System.ro_read ro a)
        | Some _ | None -> Alcotest.fail "x missing")
  in
  Alcotest.(check int) "next cut sees the commit" 2 v'

let test_read_only_abort_and_down () =
  let g0 = Gid.of_int 0 in
  let sys = System.create ~n:1 () in
  commit sys ~steps:[ (g0, set_var "x" 1) ];
  (match System.read_only sys g0 (fun _ -> raise System.Abort_action) with
  | _ -> Alcotest.fail "expected Abort_action"
  | exception System.Abort_action -> ());
  (* The aborted read-only action left nothing pinned. *)
  let heap = Guardian.heap (System.guardian sys g0) in
  Alcotest.(check int) "no snapshot leaked" 0 (Heap.active_snapshots heap);
  System.crash sys g0;
  match System.read_only sys g0 (fun _ -> ()) with
  | () -> Alcotest.fail "expected Guardian_down"
  | exception System.Guardian_down _ -> ()

(* --- QCheck: snapshot reads = serial re-execution at the stamp ---------- *)

(* Random interleaving of committed writes, aborted writes, snapshot opens
   and snapshot reads over a small object population. Every snapshot read
   must reproduce exactly the value a serial execution had committed when
   the snapshot was opened; afterwards, releasing everything must prune
   every chain back to a single version. *)
let prop_snapshot_serial =
  QCheck.Test.make ~name:"snapshot reads = serial state at open" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 80) (pair small_nat small_nat))
    (fun ops ->
      let n_objs = 4 in
      let h = Heap.create () in
      let seq = ref 0 in
      let next_aid () =
        incr seq;
        aid !seq
      in
      let t0 = next_aid () in
      let addrs = Array.init n_objs (fun i -> ignore i; Heap.alloc_atomic h ~creator:t0 (Value.Int 0)) in
      Heap.commit_action h t0;
      let model = Array.make n_objs 0 in
      let snaps = ref [] in
      let check_snap (s, m) =
        Array.iteri
          (fun o a ->
            let got = int_of (Heap.snapshot_read h s a) in
            if got <> m.(o) then
              QCheck.Test.fail_reportf "obj %d: snapshot read %d, serial state was %d" o got
                m.(o))
          addrs
      in
      List.iter
        (fun (k, v) ->
          match k mod 5 with
          | 0 | 1 ->
              (* committed write *)
              let o = v mod n_objs in
              let t = next_aid () in
              Heap.set_current h t addrs.(o) (Value.Int (model.(o) + 1));
              Heap.commit_action h t;
              model.(o) <- model.(o) + 1;
              Array.iter
                (fun a ->
                  if Heap.chain_length h a > Heap.active_snapshots h + 1 then
                    QCheck.Test.fail_reportf "chain bound broken")
                addrs
          | 2 ->
              (* aborted write: must be invisible everywhere *)
              let o = v mod n_objs in
              let t = next_aid () in
              Heap.set_current h t addrs.(o) (Value.Int 4242);
              Heap.abort_action h t
          | 3 -> snaps := (Heap.snapshot h, Array.copy model) :: !snaps
          | _ -> (
              match !snaps with
              | [] -> ()
              | l -> check_snap (List.nth l (v mod List.length l))))
        ops;
      List.iter
        (fun sm ->
          check_snap sm;
          Heap.release_snapshot h (fst sm))
        !snaps;
      Array.for_all (fun a -> Heap.chain_length h a = 1) addrs
      && Heap.active_snapshots h = 0)

(* --- snapshot-legality monitor units ------------------------------------ *)

let recs = Helpers.recs
let fires = Helpers.fires
let inst addr stamp = Trace.Version_install { heap = "G0"; aid = "a"; addr; stamp }
let sread addr stamp vstamp = Trace.Snap_read { heap = "G0"; addr; stamp; vstamp }

let test_snapshot_legal_unit () =
  (* Reading the newest install at or before the stamp is clean. *)
  let clean = recs [ inst 1 1; sread 1 1 1; inst 1 2; sread 1 3 2; sread 1 1 1 ] in
  Alcotest.(check int) "legal reads clean" 0 (List.length (Monitor.snapshot_legal_on clean));
  (* A version from the future. *)
  let future = recs [ inst 1 3; sread 1 2 3 ] in
  Alcotest.(check bool) "future version caught" true
    (fires "snapshot-legality" (Monitor.snapshot_legal_on future));
  (* A stale version: an install the read should have seen sits in
     (vstamp, stamp]. *)
  let skipped = recs [ inst 1 1; inst 1 2; sread 1 2 1 ] in
  Alcotest.(check bool) "skipped install caught" true
    (fires "snapshot-legality" (Monitor.snapshot_legal_on skipped));
  (* Addresses are independent. *)
  let other_addr = recs [ inst 1 1; inst 2 2; sread 1 2 1 ] in
  Alcotest.(check int) "other address does not interfere" 0
    (List.length (Monitor.snapshot_legal_on other_addr));
  (* A crash forgives: stamps are volatile, the replacement heap restarts
     its sequence. *)
  let crashed = recs [ inst 1 5; Trace.Crash { gid = "G0" }; inst 1 1; sread 1 1 1 ] in
  Alcotest.(check int) "crash resets the heap's installs" 0
    (List.length (Monitor.snapshot_legal_on crashed));
  (* So does a fresh heap taking the label, even with a snapshot open
     below the old install. *)
  let relabeled =
    recs
      [
        inst 1 2;
        Trace.Heap_label { heap = "G0" };
        Trace.Snap_open { heap = "G0"; stamp = 0 };
        inst 1 1;
        sread 1 2 1;
      ]
  in
  Alcotest.(check int) "a fresh heap resets the label's installs" 0
    (List.length (Monitor.snapshot_legal_on relabeled));
  (* ...but only that heap's. *)
  let other_heap =
    recs
      [
        inst 1 1;
        inst 1 2;
        Trace.Crash { gid = "G1" };
        sread 1 2 1;
      ]
  in
  Alcotest.(check bool) "other heap's crash does not forgive" true
    (fires "snapshot-legality" (Monitor.snapshot_legal_on other_heap))

(* Two one-guardian systems back to back in one trace, as e15 runs its
   rows: the second system's fresh heap reuses label G0 and restarts its
   commit stamps at 0, so one of the first system's installs on x falls
   between the version the second system's read returns and the read's
   stamp. Each system is clean judged alone; the monitor must judge each
   heap by its own history. A snapshot pinned at stamp 0 keeps every
   install in the monitor's window. *)
let test_fresh_heap_forgets_label () =
  let g0 = Gid.of_int 0 in
  let run ~updates =
    let sys = System.create ~n:1 () in
    let heap = Guardian.heap (System.guardian sys g0) in
    let pin = Heap.snapshot heap in
    for i = 0 to updates do
      commit sys ~steps:[ (g0, set_var "x" i) ]
    done;
    commit sys ~steps:[ (g0, set_var "y" 0) ];
    commit sys ~steps:[ (g0, set_var "y" 1) ];
    let x =
      System.read_only sys g0 (fun ro ->
          match System.ro_var ro "x" with
          | Some (Value.Ref a) -> int_of (System.ro_read ro a)
          | Some _ | None -> Alcotest.fail "x missing")
    in
    Alcotest.(check int) "reads the last update" updates x;
    Heap.release_snapshot heap pin
  in
  Trace.clear ();
  run ~updates:3;
  run ~updates:1;
  Alcotest.(check (list string)) "each heap judged by its own history" []
    (List.map (fun v -> v.Monitor.detail) (Monitor.snapshot_legal ()))

let suite =
  [
    Alcotest.test_case "snapshot sees old version" `Quick test_snapshot_sees_old_version;
    Alcotest.test_case "prune at last release" `Quick test_prune_at_last_release;
    Alcotest.test_case "chain bounded by active snapshots" `Quick test_chain_bound;
    Alcotest.test_case "abort installs nothing" `Quick test_abort_installs_nothing;
    Alcotest.test_case "read-only guard refuses mutation" `Quick test_ro_guard_refuses_mutation;
    Alcotest.test_case "restart clears chains" `Quick test_restart_clears_chains;
    Alcotest.test_case "read-only past in-flight writer" `Quick
      test_read_only_past_in_flight_writer;
    Alcotest.test_case "read-only abort and down" `Quick test_read_only_abort_and_down;
    QCheck_alcotest.to_alcotest prop_snapshot_serial;
    Alcotest.test_case "snapshot-legality unit" `Quick test_snapshot_legal_unit;
    Alcotest.test_case "fresh heap forgets its label's history" `Quick
      test_fresh_heap_forgets_label;
  ]
