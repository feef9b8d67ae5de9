(* Tests for Rs_dir: placement determinism, the batched uid allocator
   (no reuse across crash/restart, bounded leak), cross-shard routing,
   and directory-mode load. *)

module Placement = Rs_dir.Placement
module Directory = Rs_dir.Directory
module Load = Rs_load.Load
module System = Rs_guardian.System
module Heap = Rs_objstore.Heap
module Value = Rs_objstore.Value
module Gid = Rs_util.Gid
module Uid = Rs_util.Uid

let gids n = List.init n Gid.of_int
let key k = Printf.sprintf "obj%d" k

let mk_system ?(n = 3) () = System.create ~seed:11 ~latency:1.0 ~n ()

let mk_dir ?batch ?(n = 3) ?(pseed = 5) () =
  let system = mk_system ~n () in
  let placement = Placement.create ~seed:pseed ~shards:(gids n) () in
  (system, Directory.create ?batch ~system ~placement ())

(* --- placement --------------------------------------------------------- *)

let test_placement_deterministic () =
  let keys = List.init 200 key in
  let p1 = Placement.create ~seed:7 ~shards:(gids 5) () in
  let p2 = Placement.create ~seed:7 ~shards:(gids 5) () in
  List.iter
    (fun k ->
      Alcotest.(check int)
        ("placement of " ^ k)
        (Gid.to_int (Placement.shard_of_key p1 k))
        (Gid.to_int (Placement.shard_of_key p2 k)))
    keys;
  (* A different seed must move at least one key. *)
  let p3 = Placement.create ~seed:8 ~shards:(gids 5) () in
  Alcotest.(check bool) "different seed differs" true
    (List.exists
       (fun k -> not (Gid.equal (Placement.shard_of_key p1 k) (Placement.shard_of_key p3 k)))
       keys)

(* Placement hashes keys through Crc32: a checksum change would silently
   move data between shards, so pin the assignment of a fixed key list. *)
let test_placement_pinned () =
  let keys = List.init 24 key @ [ ""; "k"; "acct-17"; String.make 1500 'z' ] in
  let render p =
    String.concat ""
      (List.map (fun k -> string_of_int (Gid.to_int (Placement.shard_of_key p k))) keys)
  in
  Alcotest.(check string) "hash, seed 7, 5 shards" "3334021202434112343423334310"
    (render (Placement.create ~seed:7 ~shards:(gids 5) ()));
  Alcotest.(check string) "hash, seed 0, 8 shards" "3462737455247000554152030737"
    (render (Placement.create ~shards:(gids 8) ()))

let test_placement_covers_all_shards () =
  let p = Placement.create ~seed:3 ~shards:(gids 8) () in
  let hits = Array.make 8 0 in
  for k = 0 to 999 do
    let g = Gid.to_int (Placement.shard_of_key p (key k)) in
    hits.(g) <- hits.(g) + 1
  done;
  Array.iteri
    (fun g n -> Alcotest.(check bool) (Printf.sprintf "shard %d owns keys" g) true (n > 0))
    hits

(* --- allocator --------------------------------------------------------- *)

let test_allocator_unique_uids () =
  let _system, d = mk_dir ~batch:4 () in
  let uids = List.init 10 (fun k -> Directory.create_object d ~key:(key k) ~init:(Value.Int 0)) in
  let distinct = List.sort_uniq Uid.compare uids in
  Alcotest.(check int) "all uids distinct" (List.length uids) (List.length distinct);
  List.iter
    (fun u ->
      Alcotest.(check bool) "uid in directory region" true (Uid.to_int u >= Directory.base d);
      (* Every minted uid is locatable through the reserved-range table. *)
      match Directory.locate_uid d u with
      | Some _ -> ()
      | None -> Alcotest.failf "uid %d not covered by any range" (Uid.to_int u))
    uids;
  let ranges = Directory.reserved_ranges d in
  Alcotest.(check bool) "several batches reserved" true (List.length ranges >= 3);
  Alcotest.(check int) "watermark = base + batches"
    (Directory.base d + (Directory.batch d * List.length ranges))
    (Directory.watermark d);
  (match Directory.verify_unique_uids d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "uniqueness: %s" e)

let test_batch_exhaustion_across_crash () =
  let system, d = mk_dir ~batch:4 ~n:2 () in
  (* Find a non-master shard so the crash hits a pool, not the allocator. *)
  let victim =
    match List.filter (fun g -> not (Gid.equal g (Directory.master d))) (gids 2) with
    | g :: _ -> g
    | [] -> assert false
  in
  (* Keys owned by the victim shard. *)
  let owned = ref [] in
  let i = ref 0 in
  while List.length !owned < 5 do
    let k = Printf.sprintf "vk%d" !i in
    if Gid.equal (Directory.locate d k) victim then owned := k :: !owned;
    incr i
  done;
  let before =
    List.map
      (fun k -> Directory.create_object d ~key:k ~init:(Value.Int 0))
      (List.filteri (fun i _ -> i < 2) !owned)
  in
  let w0 = Directory.watermark d in
  let remaining0 = Directory.pool_remaining d victim in
  Alcotest.(check bool) "pool partly used" true (remaining0 > 0);
  Directory.crash d victim;
  Alcotest.(check int) "pool leaked on crash" remaining0 (Directory.leaked d);
  ignore (Directory.restart d victim);
  System.quiesce system;
  (* Survivors kept their uids; new creates never reuse them and never
     reuse the leaked range — the watermark only moves forward. *)
  let after =
    List.map
      (fun k -> Directory.create_object d ~key:k ~init:(Value.Int 0))
      (List.filteri (fun i _ -> i >= 2) !owned)
  in
  let all = before @ after in
  Alcotest.(check int) "no uid reused" (List.length all)
    (List.length (List.sort_uniq Uid.compare all));
  List.iter
    (fun u ->
      Alcotest.(check bool) "post-crash uids above old watermark" true (Uid.to_int u >= w0))
    after;
  Alcotest.(check bool) "watermark advanced" true (Directory.watermark d > w0);
  (* Bounded leak: exactly the pool content at crash, nothing since. *)
  Alcotest.(check bool) "leak bounded by one batch" true
    (Directory.leaked d <= Directory.batch d);
  (match Directory.verify_unique_uids d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "uniqueness after crash: %s" e)

(* --- routing ----------------------------------------------------------- *)

(* A cross-shard action whose steps all land on non-coordinator shards:
   the coordinator drives 2PC for participants it is not one of. *)
let test_cross_shard_non_coordinator () =
  let system, d = mk_dir ~batch:8 ~n:3 () in
  (* Two keys on two *different* shards, neither of which is the third. *)
  let shard_of k = Gid.to_int (Directory.locate d k) in
  let find_key_on g =
    let rec go i =
      let k = Printf.sprintf "x%d" i in
      if shard_of k = g then k else go (i + 1)
    in
    go 0
  in
  let ka = find_key_on 0 and kb = find_key_on 1 in
  ignore (Directory.create_object d ~key:ka ~init:(Value.Int 0));
  ignore (Directory.create_object d ~key:kb ~init:(Value.Int 0));
  (* create_object awaits the commit decision; the phase-two install of
     the root bindings may still be in flight. *)
  System.quiesce system;
  let bump _k heap aid =
    match Heap.get_stable_var heap (if _k then ka else kb) with
    | Some (Value.Ref a) -> (
        Heap.write_lock heap aid a;
        match Heap.read_atomic heap aid a with
        | Value.Int v -> Heap.set_current heap aid a (Value.Int (v + 1))
        | _ -> failwith "not an int")
    | _ -> failwith "missing"
  in
  let h =
    Directory.submit d
      ~coordinator:(Gid.of_int 2)
      ~steps:[ (ka, bump true); (kb, bump false) ]
  in
  Alcotest.(check bool) "commits" true (System.await system h = System.Committed);
  System.quiesce system;
  (match Directory.snapshot_read d ka with
  | Some (Value.Int 1) -> ()
  | _ -> Alcotest.fail "ka not updated");
  match Directory.snapshot_read d kb with
  | Some (Value.Int 1) -> ()
  | _ -> Alcotest.fail "kb not updated"

let test_guardian_down_is_structured () =
  let system = mk_system ~n:2 () in
  System.crash system (Gid.of_int 1);
  (match
     System.submit system ~coordinator:(Gid.of_int 1)
       ~steps:[ (Gid.of_int 0, fun _ _ -> ()) ]
   with
  | _ -> Alcotest.fail "submit to a dead coordinator must raise"
  | exception System.Guardian_down { gid } ->
      Alcotest.(check int) "names the dead guardian" 1 (Gid.to_int gid));
  ignore (System.restart system (Gid.of_int 1))

(* --- directory-mode load ----------------------------------------------- *)

let test_load_directory_mode () =
  let cfg =
    {
      Load.default with
      guardians = 4;
      directory = true;
      cross_shard = 0.3;
      uid_batch = 8;
      objects_per_guardian = 4;
      duration = 60.0;
      mode = Load.Closed { clients = 8; think = 1.0 };
    }
  in
  let t = Load.create cfg in
  Load.start t;
  let s = Load.drain t in
  Alcotest.(check bool) "commits" true (s.committed > 0);
  Alcotest.(check int) "all resolved" 0 (Load.unresolved t);
  (match Load.check t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariant: %s" e);
  (* Determinism end to end: same config, same stats. *)
  let s2 = Load.run cfg in
  Alcotest.(check bool) "same seed, same stats" true (s = s2)

let test_load_directory_reroutes_on_crash () =
  let cfg =
    {
      Load.default with
      guardians = 3;
      directory = true;
      cross_shard = 0.2;
      uid_batch = 8;
      duration = 80.0;
      mode = Load.Closed { clients = 6; think = 0.5 };
    }
  in
  let t = Load.create cfg in
  Load.start t;
  let d = Option.get (Load.directory t) in
  let sys = Load.system t in
  let sim = System.sim sys in
  ignore (System.run ~until:(Rs_sim.Sim.now sim +. 20.0) sys);
  Directory.crash d (Gid.of_int 1);
  ignore (System.run ~until:(Rs_sim.Sim.now sim +. 10.0) sys);
  ignore (Directory.restart d (Gid.of_int 1));
  let s = Load.drain t in
  Alcotest.(check bool) "commits despite crash" true (s.committed > 0);
  Alcotest.(check int) "no stuck actions" 0 (Load.unresolved t);
  match Load.check t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariant after crash: %s" e

let suite =
  [
    Alcotest.test_case "placement is deterministic" `Quick test_placement_deterministic;
    Alcotest.test_case "placement covers all shards" `Quick test_placement_covers_all_shards;
    Alcotest.test_case "placement is pinned" `Quick test_placement_pinned;
    Alcotest.test_case "allocator mints unique uids" `Quick test_allocator_unique_uids;
    Alcotest.test_case "batch exhaustion across crash" `Quick test_batch_exhaustion_across_crash;
    Alcotest.test_case "cross-shard, non-coordinator steps" `Quick
      test_cross_shard_non_coordinator;
    Alcotest.test_case "Guardian_down is structured" `Quick test_guardian_down_is_structured;
    Alcotest.test_case "directory-mode load checks" `Quick test_load_directory_mode;
    Alcotest.test_case "directory-mode load survives crash" `Quick
      test_load_directory_reroutes_on_crash;
  ]
