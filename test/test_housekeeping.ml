(* Tests for Chapter 5: log compaction and the stable-state snapshot,
   including activity between the two stages. *)

open Helpers
module Rs = Core.Hybrid_rs
module Pt = Core.Tables.Pt
module Store = Rs_storage.Stable_store
module Disk = Rs_storage.Disk
module Replica = Rs_repl.Repl.Replica

let fresh () =
  let heap = Heap.create () in
  let dir = Log_dir.create ~page_size:256 () in
  (heap, dir, Rs.create heap dir)

let commit_value heap rs = commit_value ~prepare:(Rs.prepare rs) ~commit:(Rs.commit rs) heap

(* The thesis's two stages as slices of the checkpoint machine: stage one
   is a single unbounded slice (the whole chain walk or heap traversal);
   stage two runs slices until the carry completes and the logs switch. *)
let stage_one rs technique =
  let job = Rs.hk_start rs technique in
  ignore (Rs.hk_step rs job ~budget:max_int);
  job

let stage_two rs job =
  while not (Rs.hk_step rs job ~budget:max_int) do
    ()
  done

(* Build 40 commits over 4 variables, housekeep, verify the new log is
   smaller and recovery agrees with the pre-housekeeping state. *)
let churn_then_housekeep technique () =
  let heap, dir, rs = fresh () in
  for i = 0 to 39 do
    commit_value heap rs ~seq:i ~name:(Printf.sprintf "k%d" (i mod 4)) ~v:i
  done;
  let before = Log.entry_count (Rs.log rs) in
  Rs.housekeep rs technique;
  let after = Log.entry_count (Rs.log rs) in
  Alcotest.(check bool) (Printf.sprintf "shrunk %d -> %d" before after) true (after < before / 3);
  let rs', _ = Rs.recover dir in
  let heap' = Rs.heap rs' in
  for k = 0 to 3 do
    (* Last writer of k%d is the largest i with i mod 4 = k. *)
    Alcotest.(check int) (Printf.sprintf "k%d" k) (36 + k) (stable_int heap' (Printf.sprintf "k%d" k))
  done

let test_housekeep_preserves_prepared technique () =
  let heap, dir, rs = fresh () in
  commit_value heap rs ~seq:1 ~name:"x" ~v:7;
  let t2 = aid 2 in
  (match Heap.get_stable_var heap "x" with
  | Some (Value.Ref a) -> Heap.set_current heap t2 a (Value.Int 8)
  | Some _ | None -> Alcotest.fail "setup");
  Rs.prepare rs t2 (Heap.mos heap t2);
  Rs.housekeep rs technique;
  let rs', info = Rs.recover dir in
  check_pt info t2 Pt.Prepared "T2 still prepared after housekeeping";
  let heap' = Rs.heap rs' in
  Alcotest.(check int) "base preserved" 7 (stable_int heap' "x");
  (* Commit completes after housekeeping + crash. *)
  Rs.commit rs' t2;
  Heap.commit_action heap' t2;
  let rs'', _ = Rs.recover dir in
  Alcotest.(check int) "commit applies" 8 (stable_int (Rs.heap rs'') "x")

let test_housekeep_preserves_mutex technique () =
  let heap, dir, rs = fresh () in
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
  (* A prepared-then-aborted modification — must survive housekeeping. *)
  let t2 = aid 2 in
  ignore (Heap.seize heap t2 m);
  Heap.set_mutex heap t2 m (Value.Int 2);
  Heap.release heap t2 m;
  Rs.prepare rs t2 (Heap.mos heap t2);
  Rs.abort rs t2;
  Heap.abort_action heap t2;
  Rs.housekeep rs technique;
  let rs', _ = Rs.recover dir in
  check_mutex (Rs.heap rs') um (Value.Int 2) "aborted-prepared mutex version survives"

(* Activity between the two stages lands in the OEL and must carry over. *)
let test_two_stage_interleaving technique () =
  let heap, dir, rs = fresh () in
  for i = 0 to 9 do
    commit_value heap rs ~seq:i ~name:"x" ~v:i
  done;
  let job = stage_one rs technique in
  (* Post-marker activity: two more commits and one prepared action. *)
  commit_value heap rs ~seq:100 ~name:"x" ~v:100;
  commit_value heap rs ~seq:101 ~name:"y" ~v:55;
  let t = aid 102 in
  (match Heap.get_stable_var heap "x" with
  | Some (Value.Ref a) -> Heap.set_current heap t a (Value.Int 200)
  | Some _ | None -> Alcotest.fail "setup");
  Rs.prepare rs t (Heap.mos heap t);
  stage_two rs job;
  let rs', info = Rs.recover dir in
  let heap' = Rs.heap rs' in
  Alcotest.(check int) "x base" 100 (stable_int heap' "x");
  Alcotest.(check int) "y" 55 (stable_int heap' "y");
  check_pt info t Pt.Prepared "T102 prepared across housekeeping";
  (match Heap.get_stable_var heap' "x" with
  | Some (Value.Ref a) -> (
      match (Heap.atomic_view heap' a).cur with
      | Some (Value.Int 200) -> ()
      | _ -> Alcotest.fail "current version lost")
  | Some _ | None -> Alcotest.fail "x unbound")

(* In-flight early-prepared data straddles housekeeping: §5.1.1's
   restart-the-writing rule. *)
let test_inflight_early_prepare technique () =
  let heap, dir, rs = fresh () in
  commit_value heap rs ~seq:1 ~name:"x" ~v:7;
  let t = aid 2 in
  (match Heap.get_stable_var heap "x" with
  | Some (Value.Ref a) -> Heap.set_current heap t a (Value.Int 8)
  | Some _ | None -> Alcotest.fail "setup");
  ignore (Rs.write_entry rs t (Heap.mos heap t));
  Rs.housekeep rs technique;
  (* The action prepares and commits after the log switch. *)
  Rs.prepare rs t [];
  Rs.commit rs t;
  Heap.commit_action heap t;
  let rs', _ = Rs.recover dir in
  Alcotest.(check int) "early-prepared data survives switch" 8 (stable_int (Rs.heap rs') "x")

let test_crash_during_housekeeping () =
  (* A crash between the stages abandons the half-built log; the old log
     is still current and complete. *)
  let heap, dir, rs = fresh () in
  for i = 0 to 9 do
    commit_value heap rs ~seq:i ~name:"x" ~v:i
  done;
  let _job = stage_one rs Rs.Compaction in
  commit_value heap rs ~seq:50 ~name:"x" ~v:50;
  (* Crash before stage two. *)
  let rs', _ = Rs.recover dir in
  Alcotest.(check int) "old log authoritative" 50 (stable_int (Rs.heap rs') "x")

let test_repeated_housekeeping () =
  let heap, dir, rs = fresh () in
  for round = 0 to 4 do
    for i = 0 to 9 do
      commit_value heap rs ~seq:((round * 10) + i) ~name:"x" ~v:((round * 10) + i)
    done;
    Rs.housekeep rs (if round mod 2 = 0 then Rs.Compaction else Rs.Snapshot)
  done;
  let rs', _ = Rs.recover dir in
  Alcotest.(check int) "after 5 alternating housekeepings" 49 (stable_int (Rs.heap rs') "x")

let test_snapshot_trims_as () =
  (* Snapshot rebuilds the AS from the traversal: garbage uids drop out. *)
  let heap, dir, rs = fresh () in
  ignore dir;
  let t = aid 1 in
  let a = Heap.alloc_atomic heap ~creator:t (Value.Int 1) in
  let ua = Option.get (Heap.uid_of heap a) in
  Heap.set_stable_var heap t "x" (Value.Ref a);
  Rs.prepare rs t (Heap.mos heap t);
  Rs.commit rs t;
  Heap.commit_action heap t;
  let t2 = aid 2 in
  Heap.set_stable_var heap t2 "x" Value.Unit;
  Rs.prepare rs t2 (Heap.mos heap t2);
  Rs.commit rs t2;
  Heap.commit_action heap t2;
  Alcotest.(check bool) "in AS before" true (Rs.accessible rs ua);
  Rs.housekeep rs Rs.Snapshot;
  Alcotest.(check bool) "dropped after snapshot" false (Rs.accessible rs ua)

(* Structural oracles shared by the crash tests below: the recovered log
   validates clean and the segment chain has no orphans or gaps. *)
let fsck rs label =
  (match Core.Log_check.check_log (Rs.log rs) with
  | [] -> ()
  | issues ->
      Alcotest.failf "%s: log fsck: %s" label
        (String.concat "; " (List.map (Format.asprintf "%a" Core.Log_check.pp_issue) issues)));
  match Core.Log_check.check_segments (Rs.dir rs) with
  | [] -> ()
  | issues ->
      Alcotest.failf "%s: segment fsck: %s" label
        (String.concat "; " (List.map (Format.asprintf "%a" Core.Log_check.pp_issue) issues))

(* Commits and aborts interleave between the two stages: committed effects
   carry over, aborted ones leave no trace, and the switched log passes
   both fscks. *)
let test_interleaved_commit_abort technique () =
  let heap, dir, rs = fresh () in
  for i = 0 to 9 do
    commit_value heap rs ~seq:i ~name:"x" ~v:i
  done;
  let job = stage_one rs technique in
  let abort_attempt seq v =
    let t = aid seq in
    (match Heap.get_stable_var heap "x" with
    | Some (Value.Ref a) -> Heap.set_current heap t a (Value.Int v)
    | Some _ | None -> Alcotest.fail "setup");
    Rs.prepare rs t (Heap.mos heap t);
    Rs.abort rs t;
    Heap.abort_action heap t
  in
  commit_value heap rs ~seq:100 ~name:"x" ~v:100;
  abort_attempt 101 666;
  commit_value heap rs ~seq:102 ~name:"y" ~v:55;
  abort_attempt 103 777;
  commit_value heap rs ~seq:104 ~name:"x" ~v:104;
  stage_two rs job;
  fsck rs "after finish";
  let rs', _ = Rs.recover dir in
  let heap' = Rs.heap rs' in
  Alcotest.(check int) "aborts left no trace on x" 104 (stable_int heap' "x");
  Alcotest.(check int) "mid-housekeeping commit on y" 55 (stable_int heap' "y");
  fsck rs' "after recovery"

(* Crash exactly at the stage boundary, for both techniques: the old log
   stays authoritative and the half-built pending log's segments are
   swept back into the pool at recovery. *)
let test_crash_at_stage_boundary technique () =
  let heap, dir, rs = fresh () in
  for i = 0 to 9 do
    commit_value heap rs ~seq:i ~name:"x" ~v:i
  done;
  let _job = stage_one rs technique in
  commit_value heap rs ~seq:50 ~name:"x" ~v:50;
  (* Crash before stage two ever runs. *)
  let rs', _ = Rs.recover dir in
  Alcotest.(check int) "old log authoritative" 50 (stable_int (Rs.heap rs') "x");
  fsck rs' "recovered at stage boundary";
  let dir' = Rs.dir rs' in
  Alcotest.(check (option Alcotest.reject)) "pending log abandoned" None
    (Option.map (fun _ -> ()) (Log_dir.pending_log dir'));
  Alcotest.(check (list int)) "pending segments swept"
    (List.sort compare (List.map snd (Log.segment_table (Rs.log rs'))))
    (Log_dir.segment_ids dir')

(* Crash on the retirement of an old-generation segment, after the root
   flip made the new log current: recovery keeps every committed effect
   (including post-marker traffic) and sweeps the stranded segments. *)
let test_crash_at_segment_retirement technique () =
  let heap = Heap.create () in
  let dir = Log_dir.create ~page_size:128 ~segment_pages:2 () in
  let rs = Rs.create heap dir in
  for i = 0 to 19 do
    commit_value heap rs ~seq:i ~name:(Printf.sprintf "k%d" (i mod 2)) ~v:i
  done;
  let job = stage_one rs technique in
  commit_value heap rs ~seq:100 ~name:"k0" ~v:100;
  let retire = function Log.Segment (Log.Seg_retire _) -> true | _ -> false in
  let crashed =
    match crash_nth retire 1 (fun () -> stage_two rs job) with
    | () -> false
    | exception Rs_storage.Disk.Crash -> true
  in
  Alcotest.(check bool) "crash fired at retirement" true crashed;
  let rs', _ = Rs.recover dir in
  let heap' = Rs.heap rs' in
  Alcotest.(check int) "post-marker commit durable" 100 (stable_int heap' "k0");
  Alcotest.(check int) "pre-marker commit durable" 19 (stable_int heap' "k1");
  fsck rs' "after retirement crash";
  Alcotest.(check (list int)) "stranded segments swept"
    (List.sort compare (List.map snd (Log.segment_table (Rs.log rs'))))
    (Log_dir.segment_ids (Rs.dir rs'))

(* The incremental checkpointer: bounded slices with a live commit
   between every two, converging to the same image as the stop-the-world
   pass. *)
let test_incremental_slices technique () =
  let heap, dir, rs = fresh () in
  for i = 0 to 39 do
    commit_value heap rs ~seq:i ~name:(Printf.sprintf "k%d" (i mod 4)) ~v:i
  done;
  let before = Log.entry_count (Rs.log rs) in
  let job = Rs.hk_start rs technique in
  Alcotest.(check bool) "checkpoint active" true (Rs.housekeeping_active rs);
  let slices = ref 0 in
  let seq = ref 100 in
  while not (Rs.hk_step rs job ~budget:3) do
    incr slices;
    (* A live commit lands between every two slices; it must reach the
       new log through the OEL carry even though the carry is racing it. *)
    commit_value heap rs ~seq:!seq ~name:(Printf.sprintf "k%d" (!seq mod 4)) ~v:!seq;
    incr seq
  done;
  Alcotest.(check bool) "took multiple slices" true
    (!slices >= match technique with Rs.Compaction -> 10 | Rs.Snapshot -> 1);
  Alcotest.(check bool) "inactive after the final slice" false (Rs.housekeeping_active rs);
  Alcotest.(check bool)
    (Printf.sprintf "shrunk %d -> %d despite interleaved commits" before
       (Log.entry_count (Rs.log rs)))
    true
    (Log.entry_count (Rs.log rs) < before + (2 * (!seq - 100)));
  fsck rs "after incremental checkpoint";
  let rs', _ = Rs.recover dir in
  let heap' = Rs.heap rs' in
  let expect k =
    let last = ref (36 + k) in
    for s = 100 to !seq - 1 do
      if s mod 4 = k then last := s
    done;
    !last
  in
  for k = 0 to 3 do
    Alcotest.(check int) (Printf.sprintf "k%d" k) (expect k)
      (stable_int heap' (Printf.sprintf "k%d" k))
  done

(* A crash between slices abandons the spare log; the old log — including
   the commit that landed mid-checkpoint — stays authoritative, for both
   recovery paths. *)
let test_incremental_crash_between_slices technique () =
  let heap, dir, rs = fresh () in
  for i = 0 to 19 do
    commit_value heap rs ~seq:i ~name:"x" ~v:i
  done;
  let job = Rs.hk_start rs technique in
  ignore (Rs.hk_step rs job ~budget:2);
  commit_value heap rs ~seq:50 ~name:"x" ~v:50;
  ignore (Rs.hk_step rs job ~budget:2);
  (* Crash here: the job is never driven to completion. *)
  let rs', _ = Rs.recover dir in
  Alcotest.(check int) "old log authoritative" 50 (stable_int (Rs.heap rs') "x");
  fsck rs' "after mid-checkpoint crash";
  let rs'', _ = Rs.recover_parallel dir in
  Alcotest.(check int) "parallel scan agrees" 50 (stable_int (Rs.heap rs'') "x")

(* Segment-parallel recovery produces the image the serial chain walk
   does, and its reader statistics tile the live stream exactly. *)
let test_parallel_recovery_equivalence () =
  let heap = Heap.create () in
  let dir = Log_dir.create ~page_size:128 ~segment_pages:2 () in
  let rs = Rs.create heap dir in
  for i = 0 to 29 do
    commit_value heap rs ~seq:i ~name:(Printf.sprintf "k%d" (i mod 3)) ~v:i
  done;
  (* A committed mutex exercises the MT rebuild on both paths. *)
  let t1 = aid 200 in
  let m = Heap.alloc_mutex heap (Value.Int 0) in
  Heap.set_stable_var heap t1 "m" (Value.Ref m);
  ignore (Heap.seize heap t1 m);
  Heap.set_mutex heap t1 m (Value.Int 7);
  Heap.release heap t1 m;
  Rs.prepare rs t1 (Heap.mos heap t1);
  Rs.commit rs t1;
  Heap.commit_action heap t1;
  Rs.housekeep rs Rs.Compaction;
  for i = 30 to 49 do
    commit_value heap rs ~seq:i ~name:(Printf.sprintf "k%d" (i mod 3)) ~v:i
  done;
  (* And an in-flight prepared action: Pt state must agree too. *)
  let t = aid 99 in
  (match Heap.get_stable_var heap "k0" with
  | Some (Value.Ref a) -> Heap.set_current heap t a (Value.Int 999)
  | Some _ | None -> Alcotest.fail "setup");
  Rs.prepare rs t (Heap.mos heap t);
  let rs_s, info_s = Rs.recover dir in
  let stats = ref [] in
  let rs_p, info_p = Rs.recover_parallel ~stats dir in
  for k = 0 to 2 do
    Alcotest.(check int) (Printf.sprintf "k%d agrees" k)
      (stable_int (Rs.heap rs_s) (Printf.sprintf "k%d" k))
      (stable_int (Rs.heap rs_p) (Printf.sprintf "k%d" k))
  done;
  Alcotest.(check int) "prepared sets agree"
    (List.length (Core.Tables.Recovery_info.prepared_actions info_s))
    (List.length (Core.Tables.Recovery_info.prepared_actions info_p));
  Alcotest.(check bool) "T99 still prepared" true
    (List.mem t (Core.Tables.Recovery_info.prepared_actions info_p));
  Alcotest.(check bool) "mutex tables agree" true
    (List.sort compare (Rs.mutex_table rs_s) = List.sort compare (Rs.mutex_table rs_p));
  Alcotest.(check bool) "chain heads agree" true
    (Rs.last_outcome_addr rs_s = Rs.last_outcome_addr rs_p);
  (* The partitioned readers tile the live stream with no gap and no
     overlap: their lengths sum to the live bytes, their frames to the
     forced entry count. *)
  let scans = !stats in
  Alcotest.(check bool) "several segment readers" true (List.length scans > 1);
  Alcotest.(check int) "stats tile the live bytes"
    (Log.live_bytes (Rs.log rs_p))
    (List.fold_left (fun acc s -> acc + s.Log.scan_len) 0 scans);
  Alcotest.(check int) "every live entry visited exactly once"
    (Log.forced_count (Rs.log rs_p))
    (List.fold_left (fun acc s -> acc + s.Log.scan_frames) 0 scans)

(* Segment-parallel recovery reads each live page once: the data entries
   the outcome chain names come out of the buffers the scan already holds,
   even when the log outgrows the 128-page cache. *)
let test_parallel_recovery_reads_once () =
  let heap = Heap.create () in
  let dir = Log_dir.create ~page_size:128 ~segment_pages:8 () in
  let rs = Rs.create heap dir in
  (* A new object's first version rides its base_committed outcome entry;
     the updates write data entries, and the padding after them pushes
     their pages out of the cache during the scan. *)
  let commit i name = commit_value heap rs ~seq:i ~name ~v:i in
  for i = 0 to 39 do
    commit i (Printf.sprintf "k%d" i)
  done;
  for i = 40 to 79 do
    commit i (Printf.sprintf "k%d" (i - 40))
  done;
  for i = 80 to 139 do
    commit i (Printf.sprintf "pad%d" i)
  done;
  let log = Rs.log rs in
  let live_pages = (Log.stream_bytes log + 127) / 128 in
  Alcotest.(check bool) "log larger than the page cache" true (live_pages > 128);
  let disks () =
    List.concat_map
      (fun id ->
        let a, b = Store.disks (Option.get (Log_dir.segment_store dir id)) in
        [ (id, a); (id, b) ])
      (Log_dir.segment_ids dir)
  in
  let reads () = List.map (fun (id, d) -> (id, (Disk.stats d).Disk.reads)) (disks ()) in
  let r0 = reads () in
  Log_dir.scrub dir;
  ignore (Log_dir.open_ dir);
  let r1 = reads () in
  let rs_p, _ = Rs.recover_parallel dir in
  let r2 = reads () in
  (* The scrub and Log_dir.open_ are deterministic: what recovery read
     beyond its repair pass is r2 - r1 - (r1 - r0), per mirror of each
     segment. *)
  let table = Log.segment_table (Rs.log rs_p) in
  List.iteri
    (fun i (id, before) ->
      let opened = snd (List.nth r1 i) - before in
      let recovered = snd (List.nth r2 i) - snd (List.nth r1 i) - opened in
      let idx = fst (List.find (fun (_, sid) -> sid = id) table) in
      let pages = min 8 (live_pages - (idx * 8)) in
      Alcotest.(check bool)
        (Printf.sprintf "segment %d mirror read %d <= %d pages" id recovered pages)
        true (recovered <= pages))
    r0;
  let rs_s, _ = Rs.recover dir in
  for i = 0 to 39 do
    let k = Printf.sprintf "k%d" i in
    Alcotest.(check int) k (40 + i) (stable_int (Rs.heap rs_p) k);
    Alcotest.(check int) k (40 + i) (stable_int (Rs.heap rs_s) k)
  done;
  (* A prepared pair naming an outcome entry fails on both paths alike. *)
  let bad = Option.get (Rs.last_outcome_addr rs) in
  let pairs = Some [ (Uid.of_int 1_000_000, bad) ] in
  ignore (Le.write log (Le.Prepared { aid = aid 500; pairs; prev = Some bad }));
  Log.force log;
  let msg = Failure (Printf.sprintf "Log_entry.read_data: no data entry at %d" bad) in
  Alcotest.check_raises "serial" msg (fun () -> ignore (Rs.recover dir));
  Alcotest.check_raises "parallel" msg (fun () -> ignore (Rs.recover_parallel dir))

(* A checkpoint writes its new generation around the page cache: its full
   pages go to the store only, so the first read of one misses, while the
   partial tail page stays cached for the next force's stable prefix. *)
let test_checkpoint_writes_around_cache () =
  let heap, dir, rs = fresh () in
  for i = 0 to 11 do
    let t = aid i in
    set_value (Printf.sprintf "k%d" i) (Value.Str (String.make 200 (Char.chr (97 + i)))) heap t;
    Rs.prepare rs t (Heap.mos heap t);
    Rs.commit rs t;
    Heap.commit_action heap t
  done;
  Rs.housekeep rs Rs.Snapshot;
  let log = Rs.log rs in
  Alcotest.(check bool) "the output spans several pages" true
    (Log.stream_bytes log > 4 * Log.page_size log);
  let misses () =
    Option.value ~default:0 (Rs_obs.Metrics.find_counter Rs_obs.Metrics.default "slog.cache_misses")
  in
  let m0 = misses () in
  ignore (Log.read log 0);
  Alcotest.(check int) "the first page comes from the store" 1 (misses () - m0);
  (* A careful put re-reads each page it writes; any read beyond those
     fetched a page. *)
  let fetched () = Log_dir.physical_reads dir - Log_dir.physical_writes dir in
  let m1 = misses () and f1 = fetched () in
  commit_value heap rs ~seq:12 ~name:"n" ~v:1;
  Alcotest.(check int) "the next force misses no page" 0 (misses () - m1);
  Alcotest.(check int) "and reads no page from the store" 0 (fetched () - f1)

let with_technique name f =
  [
    Alcotest.test_case (name ^ " (compaction)") `Quick (f Rs.Compaction);
    Alcotest.test_case (name ^ " (snapshot)") `Quick (f Rs.Snapshot);
  ]

(* The ablation: the simple log with snapshot checkpoints. *)
let test_simple_snapshot_basic () =
  let heap, dir, _ = fresh () in
  ignore heap;
  ignore dir;
  let heap = Heap.create () in
  let dir = Log_dir.create ~page_size:256 () in
  let rs = Core.Simple_rs.create heap dir in
  let commit_value =
    Helpers.commit_value ~prepare:(Core.Simple_rs.prepare rs) ~commit:(Core.Simple_rs.commit rs)
      heap
  in
  for i = 0 to 39 do
    commit_value ~seq:i ~name:(Printf.sprintf "k%d" (i mod 4)) ~v:i
  done;
  let before = Log.entry_count (Core.Simple_rs.log rs) in
  Core.Simple_rs.housekeep rs;
  let after = Log.entry_count (Core.Simple_rs.log rs) in
  Alcotest.(check bool) (Printf.sprintf "shrunk %d -> %d" before after) true (after < before / 3);
  (* Post-snapshot traffic, then crash. *)
  commit_value ~seq:100 ~name:"k0" ~v:100;
  let rs', info = Core.Simple_rs.recover dir in
  let heap' = Core.Simple_rs.heap rs' in
  ignore info;
  (match Heap.get_stable_var heap' "k0" with
  | Some (Value.Ref a) -> (
      match (Heap.atomic_view heap' a).base with
      | Value.Int v -> Alcotest.(check int) "k0" 100 v
      | _ -> Alcotest.fail "bad value")
  | Some _ | None -> Alcotest.fail "k0 unbound");
  List.iter
    (fun (k, expect) ->
      match Heap.get_stable_var heap' (Printf.sprintf "k%d" k) with
      | Some (Value.Ref a) -> (
          match (Heap.atomic_view heap' a).base with
          | Value.Int v -> Alcotest.(check int) (Printf.sprintf "k%d" k) expect v
          | _ -> Alcotest.fail "bad value")
      | Some _ | None -> Alcotest.fail "unbound")
    [ (1, 37); (2, 38); (3, 39) ]

let test_simple_snapshot_prepared_action () =
  let heap = Heap.create () in
  let dir = Log_dir.create ~page_size:256 () in
  let rs = Core.Simple_rs.create heap dir in
  let t1 = aid 1 in
  let a = Heap.alloc_atomic heap ~creator:t1 (Value.Int 7) in
  Heap.set_stable_var heap t1 "x" (Value.Ref a);
  Core.Simple_rs.prepare rs t1 (Heap.mos heap t1);
  Core.Simple_rs.commit rs t1;
  Heap.commit_action heap t1;
  let t2 = aid 2 in
  Heap.set_current heap t2 a (Value.Int 8);
  Core.Simple_rs.prepare rs t2 (Heap.mos heap t2);
  Core.Simple_rs.housekeep rs;
  let rs', info = Core.Simple_rs.recover dir in
  check_pt info t2 Core.Tables.Pt.Prepared "T2 prepared across snapshot";
  let heap' = Core.Simple_rs.heap rs' in
  let u = Option.get (Heap.uid_of heap a) in
  check_base heap' u (Value.Int 7) "base preserved";
  check_cur heap' u (Value.Int 8) "current preserved";
  (* Commit after the snapshot+crash completes the action. *)
  Core.Simple_rs.commit rs' t2;
  Heap.commit_action heap' t2;
  let rs'', _ = Core.Simple_rs.recover dir in
  check_base (Core.Simple_rs.heap rs'') u (Value.Int 8) "commit applied"

let test_simple_snapshot_mutex () =
  let heap = Heap.create () in
  let dir = Log_dir.create ~page_size:256 () in
  let rs = Core.Simple_rs.create heap dir in
  let t1 = aid 1 in
  let m = Heap.alloc_mutex heap (Value.Int 0) in
  let um = Option.get (Heap.uid_of heap m) in
  Heap.set_stable_var heap t1 "m" (Value.Ref m);
  ignore (Heap.seize heap t1 m);
  Heap.set_mutex heap t1 m (Value.Int 1);
  Heap.release heap t1 m;
  Core.Simple_rs.prepare rs t1 (Heap.mos heap t1);
  Core.Simple_rs.commit rs t1;
  Heap.commit_action heap t1;
  (* A prepared-then-aborted mutex modification must survive snapshots. *)
  let t2 = aid 2 in
  ignore (Heap.seize heap t2 m);
  Heap.set_mutex heap t2 m (Value.Int 2);
  Heap.release heap t2 m;
  Core.Simple_rs.prepare rs t2 (Heap.mos heap t2);
  Core.Simple_rs.abort rs t2;
  Heap.abort_action heap t2;
  Core.Simple_rs.housekeep rs;
  let rs', _ = Core.Simple_rs.recover dir in
  check_mutex (Core.Simple_rs.heap rs') um (Value.Int 2) "mutex latest across snapshot"

(* The simple log's checkpoint as two slices with commits between them:
   they land on the old log after the marker, the final slice copies
   them over, and a crash after the switch recovers every commit. *)
let test_simple_snapshot_sliced () =
  let module S = Core.Simple_rs in
  let heap = Heap.create () in
  let dir = Log_dir.create ~page_size:256 () in
  let rs = S.create heap dir in
  let commit_value = Helpers.commit_value ~prepare:(S.prepare rs) ~commit:(S.commit rs) heap in
  for i = 0 to 19 do
    commit_value ~seq:i ~name:(Printf.sprintf "k%d" (i mod 4)) ~v:i
  done;
  let job = S.hk_start rs in
  Alcotest.(check bool) "the walk is not the last slice" false (S.hk_step rs job ~budget:1);
  commit_value ~seq:100 ~name:"k0" ~v:100;
  commit_value ~seq:101 ~name:"k4" ~v:101;
  Alcotest.(check bool) "in progress between the slices" true (S.housekeeping_active rs);
  Alcotest.(check bool) "the copy and switch complete it" true (S.hk_step rs job ~budget:1);
  Alcotest.(check bool) "done" false (S.housekeeping_active rs);
  commit_value ~seq:102 ~name:"k1" ~v:102;
  let rs', _ = S.recover dir in
  List.iter
    (fun (name, v) -> Alcotest.(check int) name v (stable_int (S.heap rs') name))
    [ ("k0", 100); ("k1", 102); ("k2", 18); ("k3", 19); ("k4", 101) ]

(* One checkpoint at a time, as on the hybrid log: a second start raises
   instead of reformatting the spare log under the first, and a finished
   job is stale. *)
let test_simple_hk_guards () =
  let module S = Core.Simple_rs in
  let heap = Heap.create () in
  let dir = Log_dir.create ~page_size:256 () in
  let rs = S.create heap dir in
  Helpers.commit_value ~prepare:(S.prepare rs) ~commit:(S.commit rs) heap ~seq:1 ~name:"x" ~v:7;
  let job = S.hk_start rs in
  let in_progress = Invalid_argument "Simple_rs.hk_start: already in progress" in
  Alcotest.check_raises "second start" in_progress (fun () -> ignore (S.hk_start rs));
  ignore (S.hk_step rs job ~budget:max_int);
  Alcotest.check_raises "second start between slices" in_progress (fun () ->
      ignore (S.hk_start rs));
  Alcotest.check_raises "whole checkpoint between slices" in_progress (fun () -> S.housekeep rs);
  Alcotest.(check bool) "first job completes" true (S.hk_step rs job ~budget:max_int);
  Alcotest.check_raises "finished job is stale" (Invalid_argument "Simple_rs.hk_step: stale job")
    (fun () -> ignore (S.hk_step rs job ~budget:1));
  S.housekeep rs;
  let rs', _ = S.recover dir in
  Alcotest.(check int) "x" 7 (stable_int (S.heap rs') "x")

(* --- Checkpoint histories: one script over either log --------------- *)

(* The recovery-system operations a history drives, over either log. The
   simple log has no early prepare: [early] writes nothing and hands the
   whole MOS back for the eventual prepare. *)
type system = {
  heap : Heap.t;
  prepare : Aid.t -> Value.addr list -> unit;
  early : Aid.t -> Value.addr list -> Value.addr list;
  commit : Aid.t -> unit;
  abort : Aid.t -> unit;
  committing : Aid.t -> Gid.t list -> unit;
  done_ : Aid.t -> unit;
  checkpoint : unit -> int -> bool;  (** start one; the result runs a slice of [budget] *)
  log : unit -> Log.t;
  dir : Log_dir.t;
  recover : unit -> Heap.t * Core.Tables.Recovery_info.t;
}

type log_kind = Hybrid of Rs.technique | Simple

let system kind =
  let heap = Heap.create () in
  let dir = Log_dir.create ~page_size:256 () in
  match kind with
  | Hybrid technique ->
      let rs = Rs.create heap dir in
      {
        heap;
        prepare = Rs.prepare rs;
        early = Rs.write_entry rs;
        commit = Rs.commit rs;
        abort = Rs.abort rs;
        committing = Rs.committing rs;
        done_ = Rs.done_ rs;
        checkpoint =
          (fun () ->
            let job = Rs.hk_start rs technique in
            fun budget -> Rs.hk_step rs job ~budget);
        log = (fun () -> Rs.log rs);
        dir;
        recover =
          (fun () ->
            let rs, info = Rs.recover dir in
            (Rs.heap rs, info));
      }
  | Simple ->
      let module S = Core.Simple_rs in
      let rs = S.create heap dir in
      {
        heap;
        prepare = S.prepare rs;
        early = (fun _ mos -> mos);
        commit = S.commit rs;
        abort = S.abort rs;
        committing = S.committing rs;
        done_ = S.done_ rs;
        checkpoint =
          (fun () ->
            let job = S.hk_start rs in
            fun budget -> S.hk_step rs job ~budget);
        log = (fun () -> S.log rs);
        dir;
        recover =
          (fun () ->
            let rs, info = S.recover dir in
            (S.heap rs, info));
      }

(* Writes name stable variables by index: atomic "a0".."a3" and mutex
   "m0", "m1". Writes to an atomic object another open action holds are
   skipped, so no history blocks. *)
type op =
  | Commit of int list * int list  (** atomic and mutex writes; prepare; commit *)
  | Abort of int list * int list  (** prepare, then abort *)
  | Early of int list * int list  (** early prepare (§4.4); the action stays open *)
  | Finish of bool  (** prepare the oldest open early action; commit if true, else abort *)
  | In_doubt of int list * int list  (** prepare and never decide *)
  | Committing  (** a coordinator enters phase two *)
  | Done  (** the oldest committing coordinator finishes *)
  | Adopt
      (** a prepared action's version of an inaccessible object becomes
          accessible: a [Base_committed] and a [Prepared_data] entry *)

let pp_ints = Fmt.(brackets (list ~sep:semi int))

let pp_op ppf = function
  | Commit (a, m) -> Fmt.pf ppf "Commit (%a, %a)" pp_ints a pp_ints m
  | Abort (a, m) -> Fmt.pf ppf "Abort (%a, %a)" pp_ints a pp_ints m
  | Early (a, m) -> Fmt.pf ppf "Early (%a, %a)" pp_ints a pp_ints m
  | Finish c -> Fmt.pf ppf "Finish %b" c
  | In_doubt (a, m) -> Fmt.pf ppf "In_doubt (%a, %a)" pp_ints a pp_ints m
  | Committing -> Fmt.string ppf "Committing"
  | Done -> Fmt.string ppf "Done"
  | Adopt -> Fmt.string ppf "Adopt"

type run = {
  sys : system;
  mutable seq : int;  (** next action number; also the next value written *)
  atomics : Value.addr array;
  mutexes : Value.addr array;
  mutable open_ : (Aid.t * Value.addr list) list;  (** early actions, oldest first, with MOS′ *)
  mutable coords : Aid.t list;  (** committing coordinators, oldest first *)
  mutable adopted : int;
}

let fresh_aid r =
  r.seq <- r.seq + 1;
  aid r.seq

let write r t (atomics, mutexes) =
  let heap = r.sys.heap in
  List.iter
    (fun i ->
      let a = r.atomics.(i) in
      match Heap.writer_of heap a with
      | Some w when not (Aid.equal w t) -> ()
      | Some _ | None -> Heap.set_current heap t a (Value.Int r.seq))
    atomics;
  List.iter
    (fun i ->
      let m = r.mutexes.(i) in
      ignore (Heap.seize heap t m);
      Heap.set_mutex heap t m (Value.Int r.seq);
      Heap.release heap t m)
    mutexes

let decide r t commit =
  if commit then begin
    r.sys.commit t;
    Heap.commit_action r.sys.heap t
  end
  else begin
    r.sys.abort t;
    Heap.abort_action r.sys.heap t
  end

let start kind =
  let sys = system kind in
  let heap = sys.heap in
  let t = aid 1 in
  let atomics =
    Array.init 4 (fun i ->
        let a = Heap.alloc_atomic heap ~creator:t (Value.Int i) in
        Heap.set_stable_var heap t (Printf.sprintf "a%d" i) (Value.Ref a);
        a)
  in
  let mutexes =
    Array.init 2 (fun i ->
        let m = Heap.alloc_mutex heap (Value.Int (10 + i)) in
        Heap.set_stable_var heap t (Printf.sprintf "m%d" i) (Value.Ref m);
        m)
  in
  sys.prepare t (Heap.mos heap t);
  sys.commit t;
  Heap.commit_action heap t;
  { sys; seq = 1; atomics; mutexes; open_ = []; coords = []; adopted = 0 }

let apply r op =
  let heap = r.sys.heap in
  match op with
  | Commit (a, m) | Abort (a, m) ->
      let t = fresh_aid r in
      write r t (a, m);
      r.sys.prepare t (Heap.mos heap t);
      decide r t (match op with Commit _ -> true | _ -> false)
  | Early (a, m) ->
      let t = fresh_aid r in
      write r t (a, m);
      r.open_ <- r.open_ @ [ (t, r.sys.early t (Heap.mos heap t)) ]
  | Finish commit -> (
      match r.open_ with
      | [] -> ()
      | (t, leftovers) :: rest ->
          r.open_ <- rest;
          r.sys.prepare t leftovers;
          decide r t commit)
  | In_doubt (a, m) ->
      let t = fresh_aid r in
      write r t (a, m);
      r.sys.prepare t (Heap.mos heap t)
  | Committing ->
      let t = fresh_aid r in
      r.sys.committing t [ Gid.of_int 1; Gid.of_int 2 ];
      r.coords <- r.coords @ [ t ]
  | Done -> (
      match r.coords with
      | [] -> ()
      | t :: rest ->
          r.coords <- rest;
          r.sys.done_ t)
  | Adopt ->
      (* C creates an object nothing references; P prepares a new version
         of it (skipped: inaccessible); Q links it and commits. *)
      let c = fresh_aid r in
      let o = Heap.alloc_atomic heap ~creator:c (Value.Int r.seq) in
      Heap.commit_action heap c;
      let p = fresh_aid r in
      Heap.set_current heap p o (Value.Int r.seq);
      r.sys.prepare p (Heap.mos heap p);
      let q = fresh_aid r in
      Heap.set_stable_var heap q (Printf.sprintf "h%d" r.adopted) (Value.Ref o);
      r.adopted <- r.adopted + 1;
      r.sys.prepare q (Heap.mos heap q);
      decide r q true

(* The [k]th commit run between two checkpoint slices. *)
let between k = Commit ([ k mod 4 ], [ k mod 2 ])

(* Checkpoint with slices of [budget], committing between the first few
   slices (each commit adds two entries to carry, so with no cap a budget
   of 1 never catches up); returns how many commits ran between them. *)
let checkpoint r ~budget =
  let step = r.sys.checkpoint () in
  let n = ref 0 in
  while not (step budget) do
    if !n < 3 then begin
      apply r (between !n);
      incr n
    end
  done;
  !n

(* What recovery rebuilt: every stable variable's object (base, current
   version and its writer; or mutex value), the prepared actions and the
   committing coordinators. *)
let image (heap, info) =
  let show v = Fmt.str "%a" Value.pp v in
  let obj name =
    match Heap.get_stable_var heap name with
    | Some (Value.Ref a) -> (
        match Heap.kind_of heap a with
        | Heap.Mutex -> Fmt.str "%s=mutex %s" name (show (Heap.mutex_value heap a))
        | Heap.Atomic | Heap.Regular | Heap.Placeholder ->
            let v = Heap.atomic_view heap a in
            Fmt.str "%s=%s cur=%s by %s" name (show v.base)
              (Option.fold ~none:"-" ~some:show v.cur)
              (Option.fold ~none:"-" ~some:(Fmt.str "%a" Aid.pp) (Heap.writer_of heap a)))
    | Some v -> Fmt.str "%s=%s" name (show v)
    | None -> name ^ " unbound"
  in
  List.map obj (List.sort compare (Heap.stable_var_names heap))
  @ List.map (Fmt.str "prepared %a" Aid.pp) (Core.Tables.Recovery_info.prepared_actions info)
  @ List.map
      (fun (a, gids) -> Fmt.str "committing %a %a" Aid.pp a Fmt.(list Gid.pp) gids)
      (Core.Tables.Recovery_info.committing_actions info)

(* A fixed history with every entry kind a checkpoint rewrites: atomic and
   mutex objects, early prepares whose data entries precede newer mutex
   versions, an abort, a prepared version adopted through a
   [Prepared_data] entry, an in-doubt action, committing coordinators (one
   done), and an early action still open across the checkpoint. *)
let golden_history =
  [
    Commit ([ 0; 1 ], [ 0 ]);
    Commit ([ 2 ], [ 1 ]);
    Commit ([ 0; 3 ], []);
    Early ([ 1 ], [ 0 ]);
    Early ([ 2 ], [ 0; 1 ]);
    Commit ([ 0 ], [ 0 ]);
    Finish true;
    Finish true;
    Abort ([ 3 ], [ 1 ]);
    Adopt;
    In_doubt ([ 0 ], [ 1 ]);
    Committing;
    Committing;
    Done;
    Early ([ 3 ], []);
    Commit ([ 1 ], []);
  ]

(* The golden history plus an early action still open across the
   checkpoint with two mutex versions: one a later commit supersedes, one
   still the newest. *)
let golden_open_mutex = golden_history @ [ Early ([ 2 ], [ 0; 1 ]); Commit ([], [ 0 ]) ]

(* The new log's forced stream after each checkpoint, pinned: entry count
   and the CRC-32 of every entry's address and bytes. The checkpoints'
   output is part of the on-disk contract, so a refactor of the replay or
   the snapshot walk must reproduce it byte for byte. On the open-mutex
   history the hybrid log drops the superseded in-flight mutex version
   and its snapshot copies only prepared mutex versions. *)
let test_checkpoint_bytes_pinned () =
  let digest history kind ~budget =
    let r = start kind in
    List.iter (apply r) history;
    let between = checkpoint r ~budget in
    let log = r.sys.log () in
    let buf = Buffer.create 4096 in
    Seq.iter
      (fun (a, raw) ->
        Buffer.add_string buf (string_of_int a);
        Buffer.add_string buf raw)
      (Log.read_forward log (Log.low_water log));
    Fmt.str "%d between, %d entries, crc %08lx" between (Log.entry_count log)
      (Rs_util.Crc32.string (Buffer.contents buf))
  in
  List.iter
    (fun (label, history, kind, budget, want) ->
      Alcotest.(check string) label want (digest history kind ~budget))
    [
      ("hybrid compaction", golden_history, Hybrid Rs.Compaction, max_int, "1 between, 19 entries, crc 72d2317b");
      ("hybrid compaction, budget 2", golden_history, Hybrid Rs.Compaction, 2, "3 between, 27 entries, crc 8f65d460");
      ("hybrid snapshot", golden_history, Hybrid Rs.Snapshot, max_int, "1 between, 18 entries, crc 0b4760b6");
      ("simple snapshot", golden_history, Simple, max_int, "1 between, 17 entries, crc 5ebf3283");
      ("open mutex: hybrid compaction", golden_open_mutex, Hybrid Rs.Compaction, max_int, "1 between, 20 entries, crc 98376ba1");
      ("open mutex: hybrid compaction, budget 2", golden_open_mutex, Hybrid Rs.Compaction, 2, "3 between, 26 entries, crc 6802c401");
      ("open mutex: hybrid snapshot", golden_open_mutex, Hybrid Rs.Snapshot, max_int, "1 between, 20 entries, crc b2ecd49d");
      ("open mutex: simple snapshot", golden_open_mutex, Simple, max_int, "1 between, 17 entries, crc 818ecbd0");
    ]

(* An early-prepared mutex version of an action still open at the
   checkpoint is not yet stable state: a snapshot must not copy it, and
   once a later commit supersedes it, the in-flight rewrite must not give
   it an address above the newer version. *)
let test_open_early_mutex technique () =
  let m0_after history ~finish =
    let r = start (Hybrid technique) in
    List.iter (apply r) history;
    let step = r.sys.checkpoint () in
    while not (step max_int) do
      ()
    done;
    if finish then apply r (Finish true);
    let heap, _ = r.sys.recover () in
    match Heap.get_stable_var heap "m0" with
    | Some (Value.Ref m) -> Heap.mutex_value heap m
    | Some _ | None -> Alcotest.fail "m0 unbound"
  in
  Alcotest.check value_testable "never prepared: the initial value" (Value.Int 10)
    (m0_after [ Early ([], [ 0 ]) ] ~finish:false);
  Alcotest.check value_testable "superseded early version loses" (Value.Int 3)
    (m0_after [ Early ([], [ 0 ]); Commit ([], [ 0 ]) ] ~finish:true)

(* A checkpoint does not change what recovery rebuilds: a random history
   recovered after a checkpoint (with commits between its slices) matches
   the same history recovered with those commits and no checkpoint. *)
let gen_history_of kinds =
  QCheck.Gen.(
    let idx n = list_size (int_bound 2) (int_bound (n - 1)) in
    let op =
      frequency
        [
          (5, map2 (fun a m -> Commit (a, m)) (idx 4) (idx 2));
          (2, map2 (fun a m -> Abort (a, m)) (idx 4) (idx 2));
          (2, map2 (fun a m -> Early (a, m)) (idx 4) (idx 2));
          (2, map (fun c -> Finish c) bool);
          (1, map2 (fun a m -> In_doubt (a, m)) (idx 4) (idx 2));
          (1, return Committing);
          (1, return Done);
          (1, return Adopt);
        ]
    in
    quad (oneofl kinds) (oneofl [ 1; 2; 3; max_int ]) (list_size (int_bound 20) op)
      (list_size (int_bound 8) op))

let gen_history = gen_history_of [ Hybrid Rs.Compaction; Hybrid Rs.Snapshot; Simple ]

let print_history (kind, budget, before, after) =
  Fmt.str "%s, budget %d: %a | checkpoint | %a"
    (match kind with
    | Hybrid Rs.Compaction -> "hybrid compaction"
    | Hybrid Rs.Snapshot -> "hybrid snapshot"
    | Simple -> "simple snapshot")
    budget
    Fmt.(list ~sep:semi pp_op)
    before
    Fmt.(list ~sep:semi pp_op)
    after

let prop_checkpoint_preserves_recovery =
  QCheck.Test.make ~name:"a checkpoint does not change what recovery rebuilds" ~count:150
    (QCheck.make ~print:print_history gen_history)
    (fun (kind, budget, before, after) ->
      let with_ckpt = start kind in
      List.iter (apply with_ckpt) before;
      let n = checkpoint with_ckpt ~budget in
      List.iter (apply with_ckpt) after;
      let without = start kind in
      List.iter (apply without) before;
      List.iter (apply without) (List.init n between);
      List.iter (apply without) after;
      let want = image (without.sys.recover ()) and got = image (with_ckpt.sys.recover ()) in
      if want <> got then
        QCheck.Test.fail_reportf "recovered without a checkpoint:@.%a@.with one:@.%a"
          Fmt.(list string) want Fmt.(list string) got;
      true)

(* A warm standby of [r]'s log, fed as a replicated pair feeds it: every
   force ships its batch, and every generation switch (which restarts log
   addresses) re-seeds a fresh replica with the new log's forced prefix. *)
let standby r =
  let dir = r.sys.dir in
  let replica = ref None in
  let ship r' ~base ~entries ~table ~low_water =
    match Replica.apply r' ~base ~entries ~table ~low_water with
    | Replica.Applied -> ()
    | Replica.Gap a -> Alcotest.failf "ship left a gap at %d" a
  in
  let attach () =
    let log = Log_dir.current dir in
    let r' =
      Replica.create ~page_size:(Log_dir.page_size dir)
        ~segment_pages:(Log_dir.segment_pages dir) ()
    in
    replica := Some r';
    let forced = Seq.filter (fun (a, _) -> Log.is_forced log a) (Log.read_forward log 0) in
    ship r' ~base:0 ~entries:(List.of_seq forced) ~table:(Log.segment_table log)
      ~low_water:(Log.low_water log);
    Log.set_on_force log
      (Some
         (fun fb ->
           ship r' ~base:fb.Log.fb_base ~entries:fb.Log.fb_entries ~table:fb.Log.fb_table
             ~low_water:fb.Log.fb_low_water))
  in
  attach ();
  Log_dir.set_on_switch dir (Some attach);
  fun () -> Option.get !replica

(* Promotion rebuilds what recovery rebuilds: a standby fed through a
   random history, with a checkpoint (and its re-seed) mid-stream and
   optionally a standby crash and reopen, promotes to the image that
   recovery of the primary's own log directory yields. *)
let prop_promotion_matches_recovery =
  QCheck.Test.make ~name:"promotion rebuilds what recovery rebuilds" ~count:150
    (QCheck.make
       ~print:(fun (h, reopen) -> Fmt.str "%s, reopen %b" (print_history h) reopen)
       QCheck.Gen.(pair (gen_history_of [ Hybrid Rs.Compaction; Hybrid Rs.Snapshot ]) bool))
    (fun ((kind, budget, before, after), reopen) ->
      let r = start kind in
      let replica = standby r in
      List.iter (apply r) before;
      ignore (checkpoint r ~budget);
      List.iter (apply r) after;
      let replica = replica () in
      if reopen then begin
        Replica.invalidate replica;
        Replica.reopen replica
      end;
      let rs, info = Replica.build_recovery replica in
      let got = image (Rs.heap rs, info) and want = image (r.sys.recover ()) in
      if want <> got then
        QCheck.Test.fail_reportf "recovered:@.%a@.promoted:@.%a" Fmt.(list string) want
          Fmt.(list string) got;
      true)

let suite =
  with_technique "churn then housekeep" churn_then_housekeep
  @ with_technique "preserves prepared action" test_housekeep_preserves_prepared
  @ with_technique "preserves mutex semantics" test_housekeep_preserves_mutex
  @ with_technique "two-stage interleaving" test_two_stage_interleaving
  @ with_technique "in-flight early prepare" test_inflight_early_prepare
  @ with_technique "interleaved commits and aborts" test_interleaved_commit_abort
  @ with_technique "crash at stage boundary" test_crash_at_stage_boundary
  @ with_technique "crash at segment retirement" test_crash_at_segment_retirement
  @ with_technique "incremental checkpoint slices" test_incremental_slices
  @ with_technique "crash between checkpoint slices" test_incremental_crash_between_slices
  @ with_technique "open early mutex version across a checkpoint" test_open_early_mutex
  @ [
      Alcotest.test_case "parallel recovery equivalence" `Quick
        test_parallel_recovery_equivalence;
      Alcotest.test_case "parallel recovery reads each page once" `Quick
        test_parallel_recovery_reads_once;
    ]
  @ [
      Alcotest.test_case "crash during housekeeping" `Quick test_crash_during_housekeeping;
      Alcotest.test_case "repeated housekeeping" `Quick test_repeated_housekeeping;
      Alcotest.test_case "snapshot trims AS" `Quick test_snapshot_trims_as;
      Alcotest.test_case "simple-log snapshot (ablation)" `Quick test_simple_snapshot_basic;
      Alcotest.test_case "simple-log snapshot keeps prepared" `Quick
        test_simple_snapshot_prepared_action;
      Alcotest.test_case "simple-log snapshot mutex rule" `Quick test_simple_snapshot_mutex;
      Alcotest.test_case "simple-log snapshot: commits between slices" `Quick
        test_simple_snapshot_sliced;
      Alcotest.test_case "simple-log snapshot: one at a time" `Quick test_simple_hk_guards;
      Alcotest.test_case "checkpoint bytes pinned" `Quick test_checkpoint_bytes_pinned;
      Alcotest.test_case "checkpoint writes around the page cache" `Quick
        test_checkpoint_writes_around_cache;
      QCheck_alcotest.to_alcotest prop_checkpoint_preserves_recovery;
      QCheck_alcotest.to_alcotest prop_promotion_matches_recovery;
    ]
