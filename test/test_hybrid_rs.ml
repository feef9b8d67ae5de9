(* Lifecycle tests for the hybrid-log recovery system (Chapter 4). *)

open Helpers
module Rs = Core.Hybrid_rs
module Pt = Core.Tables.Pt

let fresh () =
  let heap = Heap.create () in
  let dir = Log_dir.create ~page_size:256 () in
  (heap, dir, Rs.create heap dir)

let commit_one heap rs ~seq ~name ~v =
  let t = aid seq in
  let a = Heap.alloc_atomic heap ~creator:t (Value.Int v) in
  Heap.set_stable_var heap t name (Value.Ref a);
  Rs.prepare rs t (Heap.mos heap t);
  Rs.commit rs t;
  Heap.commit_action heap t;
  a

let stable_int heap name =
  match Heap.get_stable_var heap name with
  | Some (Value.Ref a) -> (
      match (Heap.atomic_view heap a).base with
      | Value.Int v -> v
      | v -> Alcotest.failf "not an int: %s" (Format.asprintf "%a" Value.pp v))
  | Some v -> Alcotest.failf "not a ref: %s" (Format.asprintf "%a" Value.pp v)
  | None -> Alcotest.failf "stable var %s unbound" name

let test_commit_crash_recover () =
  let heap, dir, rs = fresh () in
  ignore (commit_one heap rs ~seq:1 ~name:"x" ~v:42);
  let rs', info = Rs.recover dir in
  check_pt info (aid 1) Pt.Committed "T1 committed";
  Alcotest.(check int) "x = 42" 42 (stable_int (Rs.heap rs') "x")

let test_chain_structure () =
  let heap, dir, rs = fresh () in
  ignore dir;
  ignore (commit_one heap rs ~seq:1 ~name:"x" ~v:1);
  ignore (commit_one heap rs ~seq:2 ~name:"y" ~v:2);
  (* Walk the chain by hand: every outcome entry links to its
     predecessor; the head is the last committed. *)
  let log = Rs.log rs in
  let rec count addr acc =
    match addr with
    | None -> acc
    | Some a -> count (Le.prev (Le.decode (Log.read log a))) (acc + 1)
  in
  let n = count (Rs.last_outcome_addr rs) 0 in
  (* bc(x), prepared T1, committed T1, bc(y), prepared T2, committed T2 —
     the root's data entries are not chained. *)
  Alcotest.(check int) "chain length" 6 n

let test_recovery_skips_data_entries () =
  (* The hybrid advantage: recovery does not read data entries of
     committed actions when a newer version was already restored, and
     never reads entries off the chain needlessly. Quantify reads. *)
  let heap, dir, rs = fresh () in
  let a = commit_one heap rs ~seq:0 ~name:"x" ~v:0 in
  for i = 1 to 50 do
    let t = aid i in
    Heap.set_current heap t a (Value.Int i);
    Rs.prepare rs t (Heap.mos heap t);
    Rs.commit rs t;
    Heap.commit_action heap t
  done;
  let rs', info = Rs.recover dir in
  Alcotest.(check int) "x = 50" 50 (stable_int (Rs.heap rs') "x");
  (* The simple log would process every entry (>150); the hybrid chain
     processes outcome entries plus the few data fetches it needs. *)
  let processed = info.Core.Tables.Recovery_info.entries_processed in
  let total = Log.entry_count (Rs.log rs') in
  Alcotest.(check bool)
    (Printf.sprintf "processed %d < total %d" processed total)
    true
    (processed < total)

let test_early_prepare_leftovers () =
  let heap, dir, rs = fresh () in
  ignore dir;
  let t = aid 1 in
  (* An object modified while still inaccessible: early prepare must hand
     it back in MOS'. *)
  let orphan = Heap.alloc_atomic heap ~creator:t (Value.Int 5) in
  Heap.set_current heap t orphan (Value.Int 6);
  let left = Rs.write_entry rs t (Heap.mos heap t) in
  Alcotest.(check (list int)) "orphan not written" [ orphan ] left;
  (* Now make it accessible and early-prepare again. *)
  Heap.set_stable_var heap t "o" (Value.Ref orphan);
  let left2 = Rs.write_entry rs t (left @ Heap.mos heap t) in
  Alcotest.(check (list int)) "written once accessible" [] left2;
  (* Prepare writes nothing new for it; pairs already accumulated. *)
  let pairs_before = List.length (Rs.pending_pairs rs t) in
  Rs.prepare rs t [];
  Alcotest.(check bool) "had pairs" true (pairs_before >= 2)

let test_early_prepare_aborted_before_prepare () =
  (* Early-prepared data for an action that aborts locally (never
     prepares): invisible after recovery. *)
  let heap, dir, rs = fresh () in
  let a = commit_one heap rs ~seq:1 ~name:"x" ~v:7 in
  let t2 = aid 2 in
  Heap.set_current heap t2 a (Value.Int 8);
  ignore (Rs.write_entry rs t2 (Heap.mos heap t2));
  Heap.abort_action heap t2;
  (* No abort record needed: it never prepared. Crash: *)
  let rs', info = Rs.recover dir in
  Alcotest.(check bool) "t2 unknown" true (pt_state info t2 = None);
  Alcotest.(check int) "x unchanged" 7 (stable_int (Rs.heap rs') "x")

let test_prepared_resumes_with_lock () =
  let heap, dir, rs = fresh () in
  let a = commit_one heap rs ~seq:1 ~name:"x" ~v:7 in
  let u = Option.get (Heap.uid_of heap a) in
  let t2 = aid 2 in
  Heap.set_current heap t2 a (Value.Int 8);
  Rs.prepare rs t2 (Heap.mos heap t2);
  let rs', info = Rs.recover dir in
  check_pt info t2 Pt.Prepared "T2 prepared";
  let heap' = Rs.heap rs' in
  check_base heap' u (Value.Int 7) "base";
  check_cur heap' u (Value.Int 8) "current";
  (* And commit completes after recovery. *)
  Rs.commit rs' t2;
  Heap.commit_action heap' t2;
  let rs'', _ = Rs.recover dir in
  Alcotest.(check int) "committed after recovery" 8 (stable_int (Rs.heap rs'') "x")

let test_mutex_mt_maintained () =
  let heap, dir, rs = fresh () in
  ignore dir;
  let t = aid 1 in
  let m = Heap.alloc_mutex heap (Value.Int 0) in
  Heap.set_stable_var heap t "m" (Value.Ref m);
  ignore (Heap.seize heap t m);
  Heap.set_mutex heap t m (Value.Int 5);
  Heap.release heap t m;
  Rs.prepare rs t (Heap.mos heap t);
  Rs.commit rs t;
  Heap.commit_action heap t;
  match Rs.mutex_table rs with
  | [ (_, addr) ] -> Alcotest.(check bool) "MT has latest addr" true (addr >= 0)
  | l -> Alcotest.failf "MT size %d" (List.length l)

let test_many_objects_roundtrip () =
  let heap, dir, rs = fresh () in
  let t = aid 1 in
  let objs =
    List.init 30 (fun i ->
        let a = Heap.alloc_atomic heap ~creator:t (Value.Int i) in
        Heap.set_stable_var heap t (Printf.sprintf "v%d" i) (Value.Ref a);
        a)
  in
  ignore objs;
  Rs.prepare rs t (Heap.mos heap t);
  Rs.commit rs t;
  Heap.commit_action heap t;
  let rs', _ = Rs.recover dir in
  let heap' = Rs.heap rs' in
  List.iteri
    (fun i _ -> Alcotest.(check int) (Printf.sprintf "v%d" i) i (stable_int heap' (Printf.sprintf "v%d" i)))
    objs

(* The root index is per heap and rebuilt for the recovered root: every
   key bound before the crash — including rebound ones — resolves after
   it, through the base and the snapshot lookups alike. *)
let test_recovered_root_resolves_every_key () =
  let heap, dir, rs = fresh () in
  let keys = List.init 40 (Printf.sprintf "k%d") in
  let want = Hashtbl.create 40 in
  let bind seq k v =
    ignore (commit_one heap rs ~seq ~name:k ~v);
    Hashtbl.replace want k v
  in
  List.iteri (fun i k -> bind (i + 1) k i) keys;
  (* Rebind a few keys to fresh objects, then look everything up so the
     pre-crash heap has built its index. *)
  List.iteri (fun i k -> bind (100 + i) k (1000 + i)) [ "k0"; "k7"; "k39" ];
  List.iter (fun k -> Alcotest.(check int) k (Hashtbl.find want k) (stable_int heap k)) keys;
  let rs', _ = Rs.recover dir in
  let heap' = Rs.heap rs' in
  Alcotest.(check (list string)) "names survive" (Heap.stable_var_names heap) (Heap.stable_var_names heap');
  List.iter
    (fun k ->
      Alcotest.(check int) k (Hashtbl.find want k) (stable_int heap' k);
      Alcotest.(check bool) (k ^ " committed_var") true (Heap.committed_var heap' k = Heap.get_stable_var heap' k))
    keys;
  Alcotest.(check bool) "unbound stays unbound" true (Heap.get_stable_var heap' "k40" = None)

let test_recover_twice_stable () =
  let heap, dir, rs = fresh () in
  ignore (commit_one heap rs ~seq:1 ~name:"x" ~v:9);
  let rs1, _ = Rs.recover dir in
  let rs2, _ = Rs.recover dir in
  Alcotest.(check int) "first" 9 (stable_int (Rs.heap rs1) "x");
  Alcotest.(check int) "second" 9 (stable_int (Rs.heap rs2) "x")

let suite =
  [
    Alcotest.test_case "commit crash recover" `Quick test_commit_crash_recover;
    Alcotest.test_case "outcome chain structure" `Quick test_chain_structure;
    Alcotest.test_case "recovery skips data entries" `Quick test_recovery_skips_data_entries;
    Alcotest.test_case "early prepare leftovers" `Quick test_early_prepare_leftovers;
    Alcotest.test_case "early prepare, local abort" `Quick test_early_prepare_aborted_before_prepare;
    Alcotest.test_case "prepared resumes with lock" `Quick test_prepared_resumes_with_lock;
    Alcotest.test_case "mutex table maintained" `Quick test_mutex_mt_maintained;
    Alcotest.test_case "many objects roundtrip" `Quick test_many_objects_roundtrip;
    Alcotest.test_case "recover twice is stable" `Quick test_recover_twice_stable;
    Alcotest.test_case "recovered root resolves every key" `Quick test_recovered_root_resolves_every_key;
  ]
