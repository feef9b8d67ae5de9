(* Tests for the Argus object model: heap, locks, versions, incremental
   copying (§2.4). *)

module Heap = Rs_objstore.Heap
module Value = Rs_objstore.Value
module Fvalue = Rs_objstore.Fvalue
module Flatten = Rs_objstore.Flatten
module Uid = Rs_util.Uid
module Aid = Rs_util.Aid
module Gid = Rs_util.Gid

let aid n = Aid.make ~coordinator:(Gid.of_int 0) ~seq:n

let test_alloc_kinds () =
  let h = Heap.create () in
  let t1 = aid 1 in
  let a = Heap.alloc_atomic h ~creator:t1 (Value.Int 1) in
  let m = Heap.alloc_mutex h (Value.Int 2) in
  let r = Heap.alloc_regular h (Value.Int 3) in
  Alcotest.(check bool) "atomic" true (Heap.kind_of h a = Heap.Atomic);
  Alcotest.(check bool) "mutex" true (Heap.kind_of h m = Heap.Mutex);
  Alcotest.(check bool) "regular" true (Heap.kind_of h r = Heap.Regular);
  Alcotest.(check bool) "atomic has uid" true (Heap.uid_of h a <> None);
  Alcotest.(check bool) "regular has no uid" true (Heap.uid_of h r = None);
  (* Creator holds a read lock on the new atomic object (§2.4.1). *)
  match (Heap.atomic_view h a).lock with
  | Heap.Read readers -> Alcotest.(check bool) "creator read lock" true (Aid.Set.mem t1 readers)
  | Heap.Free | Heap.Write _ -> Alcotest.fail "expected read lock"

let test_read_write_locks () =
  let h = Heap.create () in
  let t1 = aid 1 and t2 = aid 2 in
  let a = Heap.alloc_atomic h ~creator:t1 (Value.Int 10) in
  Heap.commit_action h t1;
  (* Two readers coexist. *)
  ignore (Heap.read_atomic h t1 a);
  ignore (Heap.read_atomic h t2 a);
  (* Upgrade blocked while another reader holds the lock. *)
  (match Heap.write_lock h t1 a with
  | () -> Alcotest.fail "expected conflict"
  | exception Heap.Lock_conflict _ -> ());
  Heap.abort_action h t2;
  (* Sole reader upgrades. *)
  Heap.write_lock h t1 a;
  Heap.set_current h t1 a (Value.Int 11);
  (* Writer sees its version; readers conflict. *)
  Alcotest.(check bool) "writer view" true
    (Value.equal_shape (Heap.read_atomic h t1 a) (Value.Int 11));
  (match Heap.read_atomic h t2 a with
  | _ -> Alcotest.fail "expected conflict"
  | exception Heap.Lock_conflict { holders; _ } ->
      Alcotest.(check bool) "holder is t1" true (holders = [ t1 ]))

let test_commit_installs_version () =
  let h = Heap.create () in
  let t1 = aid 1 and t2 = aid 2 in
  let a = Heap.alloc_atomic h ~creator:t1 (Value.Int 0) in
  Heap.commit_action h t1;
  Heap.set_current h t2 a (Value.Int 5);
  Heap.commit_action h t2;
  let view = Heap.atomic_view h a in
  Alcotest.(check bool) "base updated" true (Value.equal_shape view.base (Value.Int 5));
  Alcotest.(check bool) "no current" true (view.cur = None);
  Alcotest.(check bool) "lock free" true (view.lock = Heap.Free)

let test_abort_discards_version () =
  let h = Heap.create () in
  let t1 = aid 1 and t2 = aid 2 in
  let a = Heap.alloc_atomic h ~creator:t1 (Value.Int 0) in
  Heap.commit_action h t1;
  Heap.set_current h t2 a (Value.Int 99);
  Heap.abort_action h t2;
  let view = Heap.atomic_view h a in
  Alcotest.(check bool) "base kept" true (Value.equal_shape view.base (Value.Int 0));
  Alcotest.(check bool) "lock released" true (view.lock = Heap.Free)

let test_version_copy_isolates_regulars () =
  (* Mutating a regular object inside a version must not damage the base
     version: write_lock copies contained regulars (§2.4.3 analogue). *)
  let h = Heap.create () in
  let t1 = aid 1 and t2 = aid 2 in
  let r = Heap.alloc_regular h (Value.Int 7) in
  let a = Heap.alloc_atomic h ~creator:t1 (Value.Tup [| Value.Ref r; Value.Int 0 |]) in
  Heap.commit_action h t1;
  Heap.write_lock h t2 a;
  (match Heap.current_of h t2 a with
  | Value.Tup [| Value.Ref r'; _ |] ->
      Alcotest.(check bool) "regular copied" true (r' <> r);
      Heap.set_regular h r' (Value.Int 8)
  | v -> Alcotest.failf "unexpected version %s" (Format.asprintf "%a" Value.pp v));
  Heap.abort_action h t2;
  Alcotest.(check bool) "original regular untouched" true
    (Value.equal_shape (Heap.regular_value h r) (Value.Int 7))

let test_mutex_seize () =
  let h = Heap.create () in
  let t1 = aid 1 and t2 = aid 2 in
  let m = Heap.alloc_mutex h (Value.Int 1) in
  ignore (Heap.seize h t1 m);
  (match Heap.seize h t2 m with
  | _ -> Alcotest.fail "expected possession conflict"
  | exception Heap.Lock_conflict _ -> ());
  Heap.set_mutex h t1 m (Value.Int 2);
  Heap.release h t1 m;
  ignore (Heap.seize h t2 m);
  Alcotest.(check bool) "sees new state" true
    (Value.equal_shape (Heap.mutex_value h m) (Value.Int 2));
  Heap.release h t2 m;
  (* Abort does NOT undo mutex modifications (§2.4.2). *)
  ignore (Heap.seize h t1 m);
  Heap.set_mutex h t1 m (Value.Int 3);
  Heap.release h t1 m;
  Heap.abort_action h t1;
  Alcotest.(check bool) "abort keeps mutex state" true
    (Value.equal_shape (Heap.mutex_value h m) (Value.Int 3))

let test_mos_tracking () =
  let h = Heap.create () in
  let t1 = aid 1 in
  let a = Heap.alloc_atomic h ~creator:t1 (Value.Int 0) in
  Heap.commit_action h t1;
  let m = Heap.alloc_mutex h (Value.Int 0) in
  let t2 = aid 2 in
  Heap.set_current h t2 a (Value.Int 1);
  ignore (Heap.seize h t2 m);
  Heap.set_mutex h t2 m (Value.Int 1);
  Heap.release h t2 m;
  let mos = Heap.mos h t2 in
  Alcotest.(check (list int)) "mos in order" [ a; m ] mos;
  Heap.commit_action h t2;
  Alcotest.(check (list int)) "mos cleared" [] (Heap.mos h t2)

let test_stable_vars () =
  let h = Heap.create () in
  let t1 = aid 1 in
  let a = Heap.alloc_atomic h ~creator:t1 (Value.Int 42) in
  Heap.set_stable_var h t1 "balance" (Value.Ref a);
  (* Uncommitted bindings are invisible in the base view. *)
  Alcotest.(check bool) "not yet committed" true (Heap.get_stable_var h "balance" = None);
  Heap.commit_action h t1;
  (match Heap.get_stable_var h "balance" with
  | Some (Value.Ref a') -> Alcotest.(check int) "bound" a a'
  | Some _ | None -> Alcotest.fail "missing binding");
  Alcotest.(check (list string)) "names" [ "balance" ] (Heap.stable_var_names h)

let test_reachable_uids () =
  let h = Heap.create () in
  let t1 = aid 1 in
  let a = Heap.alloc_atomic h ~creator:t1 (Value.Int 1) in
  let b = Heap.alloc_atomic h ~creator:t1 (Value.Ref a) in
  let orphan = Heap.alloc_atomic h ~creator:t1 (Value.Int 9) in
  Heap.set_stable_var h t1 "root" (Value.Ref b);
  Heap.commit_action h t1;
  let reach = Heap.reachable_uids h in
  let u x = Option.get (Heap.uid_of h x) in
  Alcotest.(check bool) "a reachable" true (Uid.Set.mem (u a) reach);
  Alcotest.(check bool) "b reachable" true (Uid.Set.mem (u b) reach);
  Alcotest.(check bool) "root reachable" true (Uid.Set.mem Uid.stable_vars reach);
  Alcotest.(check bool) "orphan not reachable" false (Uid.Set.mem (u orphan) reach)

let test_flatten_replaces_uids () =
  let h = Heap.create () in
  let t1 = aid 1 in
  let inner = Heap.alloc_atomic h ~creator:t1 (Value.Int 5) in
  let m = Heap.alloc_mutex h (Value.Int 6) in
  let r = Heap.alloc_regular h (Value.Tup [| Value.Ref inner; Value.Str "reg" |]) in
  let v = Value.Tup [| Value.Ref m; Value.Ref r; Value.Int 3 |] in
  let fv = Flatten.flatten h v in
  let uids = Fvalue.uids fv in
  let u x = Option.get (Heap.uid_of h x) in
  (* The mutex and the atomic referenced through the regular object both
     appear as uids; the regular is inlined. *)
  Alcotest.(check bool) "mutex uid" true (List.exists (Uid.equal (u m)) uids);
  Alcotest.(check bool) "inner uid via regular" true (List.exists (Uid.equal (u inner)) uids);
  Alcotest.(check int) "exactly two" 2 (List.length uids)

let test_flatten_rebuild_roundtrip () =
  let h = Heap.create () in
  let t1 = aid 1 in
  let inner = Heap.alloc_atomic h ~creator:t1 (Value.Int 5) in
  let shared = Heap.alloc_regular h (Value.Str "shared") in
  let v =
    Value.Tup
      [| Value.Ref shared; Value.Ref shared; Value.Ref inner; Value.Bool true; Value.Unit |]
  in
  let fv = Flatten.flatten h v in
  (* Codec roundtrip of the flattened form. *)
  let enc = Rs_util.Codec.Enc.create () in
  Fvalue.encode enc fv;
  let fv' = Fvalue.decode (Rs_util.Codec.Dec.of_string (Rs_util.Codec.Enc.contents enc)) in
  Alcotest.(check bool) "fvalue codec roundtrip" true (Fvalue.equal fv fv');
  (* Rebuild into the same heap: sharing of the regular is preserved. *)
  match Flatten.rebuild h fv' with
  | Value.Tup [| Value.Ref s1; Value.Ref s2; Value.Ref i; Value.Bool true; Value.Unit |] ->
      Alcotest.(check int) "sharing preserved" s1 s2;
      Alcotest.(check int) "uid resolved to existing object" inner i;
      Alcotest.(check bool) "regular content" true
        (Value.equal_shape (Heap.regular_value h s1) (Value.Str "shared"))
  | v -> Alcotest.failf "unexpected rebuild: %s" (Format.asprintf "%a" Value.pp v)

let test_regular_cycle () =
  let h = Heap.create () in
  let r1 = Heap.alloc_regular h Value.Unit in
  let r2 = Heap.alloc_regular h (Value.Ref r1) in
  Heap.set_regular h r1 (Value.Ref r2);
  let fv = Flatten.flatten h (Value.Ref r1) in
  (* Rebuild the cycle and check it closes. *)
  match Flatten.rebuild h fv with
  | Value.Ref n1 -> (
      match Heap.regular_value h n1 with
      | Value.Ref n2 -> (
          match Heap.regular_value h n2 with
          | Value.Ref n1' -> Alcotest.(check int) "cycle closes" n1 n1'
          | v -> Alcotest.failf "n2 -> %s" (Format.asprintf "%a" Value.pp v))
      | v -> Alcotest.failf "n1 -> %s" (Format.asprintf "%a" Value.pp v))
  | v -> Alcotest.failf "root %s" (Format.asprintf "%a" Value.pp v)

let test_placeholder_patching () =
  let h = Heap.create () in
  let u = Uid.of_int 77 in
  (* Rebuild a version referencing an object not yet restored. *)
  let fv = Fvalue.make ~nodes:[| Fvalue.Nuid u; Fvalue.Ntup [| 0 |] |] ~root:1 in
  let v = Flatten.rebuild h fv in
  let holder = Heap.install_atomic h ~uid:(Uid.of_int 78) ~base:(Some v) ~cur:None in
  (* Now the real object arrives, and the final pass resolves it. *)
  let real = Heap.install_atomic h ~uid:u ~base:(Some (Value.Int 1)) ~cur:None in
  Heap.patch_placeholders h;
  match (Heap.atomic_view h holder).base with
  | Value.Tup [| Value.Ref a |] -> Alcotest.(check int) "patched to real object" real a
  | v -> Alcotest.failf "unpatched: %s" (Format.asprintf "%a" Value.pp v)

let test_dangling_placeholder_fails () =
  let h = Heap.create () in
  let fv = Fvalue.make ~nodes:[| Fvalue.Nuid (Uid.of_int 123) |] ~root:0 in
  let v = Flatten.rebuild h fv in
  ignore (Heap.install_atomic h ~uid:(Uid.of_int 124) ~base:(Some v) ~cur:None);
  match Heap.patch_placeholders h with
  | () -> Alcotest.fail "expected failure on dangling uid"
  | exception Failure _ -> ()

(* The root index never caches a value: a binding whose value is a
   placeholder must read the real object once the final recovery pass has
   patched the pair in place, even if the index was built before it. *)
let test_root_index_sees_patch () =
  let h = Heap.create () in
  let u = Uid.of_int 77 in
  let fv =
    Fvalue.make
      ~nodes:[| Fvalue.Nstr "x"; Fvalue.Nuid u; Fvalue.Ntup [| 0; 1 |]; Fvalue.Ntup [| 2 |] |]
      ~root:3
  in
  let root =
    Heap.install_atomic h ~uid:Uid.stable_vars ~base:(Some (Flatten.rebuild h fv)) ~cur:None
  in
  Alcotest.(check int) "root reinstalled in place" (Heap.root_addr h) root;
  (match Heap.get_stable_var h "x" with
  | Some (Value.Ref a) ->
      Alcotest.(check bool) "bound to a placeholder" true (Heap.kind_of h a = Heap.Placeholder)
  | Some _ | None -> Alcotest.fail "x unbound before patching");
  let real = Heap.install_atomic h ~uid:u ~base:(Some (Value.Int 1)) ~cur:None in
  Heap.patch_placeholders h;
  (match Heap.get_stable_var h "x" with
  | Some (Value.Ref a) -> Alcotest.(check int) "patched binding" real a
  | Some _ | None -> Alcotest.fail "x unbound after patching");
  (match Heap.committed_var h "x" with
  | Some (Value.Ref a) -> Alcotest.(check int) "patched snapshot binding" real a
  | Some _ | None -> Alcotest.fail "x unbound in a snapshot after patching");
  Alcotest.(check (list string)) "names" [ "x" ] (Heap.stable_var_names h)

let pair name v = Value.Tup [| Value.Str name; v |]

(* Lookups keep [List.assoc_opt]'s first-match semantics over the root
   tuple, skip malformed entries, and fall back to a scan when a slot's
   name no longer matches. *)
let test_root_index_first_match () =
  let h = Heap.create () in
  let root = Heap.root_addr h in
  let pairs = [| pair "x" (Value.Int 1); Value.Int 5; pair "y" (Value.Int 2); pair "x" (Value.Int 3) |] in
  Heap.set_base h root (Value.Tup pairs);
  let get n = Heap.get_stable_var h n in
  Alcotest.(check bool) "first x" true (get "x" = Some (Value.Int 1));
  Alcotest.(check bool) "y" true (get "y" = Some (Value.Int 2));
  Alcotest.(check bool) "unbound" true (get "z" = None);
  Alcotest.(check (list string)) "names in tuple order" [ "x"; "y"; "x" ] (Heap.stable_var_names h);
  (* A name moved under the index: the stale slot is re-checked. *)
  pairs.(0) <- pair "w" (Value.Int 9);
  Alcotest.(check bool) "scan finds the later x" true (get "x" = Some (Value.Int 3));
  Heap.set_base h root Value.Unit;
  Alcotest.(check bool) "non-tuple root binds nothing" true (get "x" = None);
  Alcotest.(check (list string)) "no names" [] (Heap.stable_var_names h)

(* Model-based check of the indexed lookups. Random interleavings of
   binding, commit, abort and snapshots over two heaps; after every step
   each lookup must agree with a linear scan of the root version it reads
   and with a pure model of the committed bindings. *)
type root_op =
  | Bind of int * int * int  (** heap, name, value *)
  | Commit of int
  | Abort of int
  | Open of int
  | Release of int * int  (** heap, index among its open snapshots *)
  | With_snapshot of int

let var_names = [| "a"; "b"; "c"; "d"; "e" |]

(* "z" is never bound. *)
let probe_names = Array.to_list var_names @ [ "z" ]

let show_root_op = function
  | Bind (h, n, v) -> Printf.sprintf "bind(h%d,%s,%d)" h var_names.(n) v
  | Commit h -> Printf.sprintf "commit(h%d)" h
  | Abort h -> Printf.sprintf "abort(h%d)" h
  | Open h -> Printf.sprintf "open(h%d)" h
  | Release (h, i) -> Printf.sprintf "release(h%d,%d)" h i
  | With_snapshot h -> Printf.sprintf "with_snapshot(h%d)" h

let gen_root_ops =
  QCheck.Gen.(
    let heap = int_bound 1 in
    list_size (int_range 0 60)
      (frequency
         [
           (5, map3 (fun h n v -> Bind (h, n, v)) heap (int_bound (Array.length var_names - 1)) (int_bound 9));
           (2, map (fun h -> Commit h) heap);
           (1, map (fun h -> Abort h) heap);
           (1, map (fun h -> Open h) heap);
           (1, map2 (fun h i -> Release (h, i)) heap (int_bound 3));
           (1, map (fun h -> With_snapshot h) heap);
         ]))

module Smap = Map.Make (String)

let scan_root v name =
  match v with
  | Value.Tup pairs ->
      Array.to_list pairs
      |> List.find_map (function
           | Value.Tup [| Value.Str n; x |] when n = name -> Some x
           | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Tup _ | Value.Ref _ ->
               None)
  | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Ref _ -> None

let scan_names = function
  | Value.Tup pairs ->
      Array.to_list pairs
      |> List.filter_map (function
           | Value.Tup [| Value.Str n; _ |] -> Some n
           | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Tup _ | Value.Ref _ ->
               None)
  | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Ref _ -> []

type model_heap = {
  heap : Heap.t;
  mutable writer : Aid.t option;
  mutable committed : int Smap.t;
  mutable pending : int Smap.t;  (** what the open writer would commit *)
  mutable snaps : (Heap.snapshot * int Smap.t) list;
}

let prop_root_index =
  QCheck.Test.make ~name:"root index agrees with a scan of the root" ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_root_op ops)) gen_root_ops)
    (fun ops ->
      let seq = ref 0 in
      let hs =
        Array.init 2 (fun _ ->
            {
              heap = Heap.create ();
              writer = None;
              committed = Smap.empty;
              pending = Smap.empty;
              snaps = [];
            })
      in
      let expect what model name got =
        let want = Option.map (fun v -> Value.Int v) (Smap.find_opt name model) in
        if got <> want then QCheck.Test.fail_reportf "%s %s disagrees with the model" what name
      in
      let check_snapshot m s model =
        let root = Heap.snapshot_read m.heap s (Heap.root_addr m.heap) in
        List.iter
          (fun n ->
            let got = Heap.snapshot_var m.heap s n in
            if got <> scan_root root n then QCheck.Test.fail_reportf "snapshot_var %s disagrees with a scan" n;
            expect "snapshot_var" model n got)
          probe_names
      in
      let check m =
        let base = (Heap.atomic_view m.heap (Heap.root_addr m.heap)).base in
        List.iter
          (fun n ->
            let got = Heap.get_stable_var m.heap n in
            if got <> scan_root base n then QCheck.Test.fail_reportf "get_stable_var %s disagrees with a scan" n;
            expect "get_stable_var" m.committed n got;
            expect "committed_var" m.committed n (Heap.committed_var m.heap n))
          probe_names;
        let names = Heap.stable_var_names m.heap in
        if names <> scan_names base then QCheck.Test.fail_report "stable_var_names disagrees with a scan";
        if List.sort compare names <> List.map fst (Smap.bindings m.committed) then
          QCheck.Test.fail_report "stable_var_names disagrees with the model";
        List.iter (fun (s, model) -> check_snapshot m s model) m.snaps
      in
      let finish h ~commit =
        let m = hs.(h) in
        match m.writer with
        | None -> ()
        | Some t ->
            if commit then begin
              Heap.commit_action m.heap t;
              m.committed <- m.pending
            end
            else Heap.abort_action m.heap t;
            m.writer <- None
      in
      List.iter
        (fun op ->
          (match op with
          | Bind (h, n, v) ->
              let m = hs.(h) in
              let t =
                match m.writer with
                | Some t -> t
                | None ->
                    incr seq;
                    let t = aid !seq in
                    m.writer <- Some t;
                    m.pending <- m.committed;
                    t
              in
              Heap.set_stable_var m.heap t var_names.(n) (Value.Int v);
              m.pending <- Smap.add var_names.(n) v m.pending
          | Commit h -> finish h ~commit:true
          | Abort h -> finish h ~commit:false
          | Open h ->
              let m = hs.(h) in
              m.snaps <- m.snaps @ [ (Heap.snapshot m.heap, m.committed) ]
          | Release (h, i) ->
              let m = hs.(h) in
              (match List.nth_opt m.snaps i with
              | Some (s, _) ->
                  Heap.release_snapshot m.heap s;
                  m.snaps <- List.filteri (fun j _ -> j <> i) m.snaps
              | None -> ())
          | With_snapshot h ->
              let m = hs.(h) in
              Heap.with_snapshot m.heap (fun s -> check_snapshot m s m.committed));
          Array.iter check hs)
        ops;
      true)

let test_heap_check_clean () =
  let h = Heap.create () in
  let t1 = aid 1 in
  let r = Heap.alloc_regular h (Value.Int 1) in
  let a = Heap.alloc_atomic h ~creator:t1 (Value.Tup [| Value.Ref r; Value.Int 2 |]) in
  let m = Heap.alloc_mutex h (Value.Ref a) in
  Heap.set_stable_var h t1 "x" (Value.Ref m);
  Heap.commit_action h t1;
  Alcotest.(check (list string)) "clean heap" []
    (List.map
       (Format.asprintf "%a" Rs_objstore.Heap_check.pp_issue)
       (Rs_objstore.Heap_check.check h))

let test_heap_check_detects_placeholder () =
  let h = Heap.create () in
  let p = Heap.install_placeholder h (Uid.of_int 99) in
  ignore (Heap.install_atomic h ~uid:(Uid.of_int 98) ~base:(Some (Value.Ref p)) ~cur:None);
  Alcotest.(check bool) "placeholder flagged" true
    (Rs_objstore.Heap_check.check h <> [])

let test_heap_check_detects_lockless_current () =
  let h = Heap.create () in
  let t1 = aid 1 in
  let a = Heap.alloc_atomic h ~creator:t1 (Value.Int 0) in
  Heap.commit_action h t1;
  (* Fabricate an inconsistency: install a current version with a lock,
     then strip the lock via abort while keeping... abort clears both, so
     instead check the write-lock-without-current direction using the
     recovery-time installer with base only and a manual lock. *)
  ignore a;
  let b = Heap.install_atomic h ~uid:(Uid.of_int 55) ~base:None ~cur:(Some (t1, Value.Int 1)) in
  ignore b;
  (* This heap is consistent (lock + current). Now commit the action: the
     checker must remain clean afterwards too. *)
  Alcotest.(check (list string)) "consistent with lock+current" []
    (List.map
       (Format.asprintf "%a" Rs_objstore.Heap_check.pp_issue)
       (Rs_objstore.Heap_check.check h));
  Heap.commit_action h t1;
  Alcotest.(check (list string)) "consistent after commit" []
    (List.map
       (Format.asprintf "%a" Rs_objstore.Heap_check.pp_issue)
       (Rs_objstore.Heap_check.check h))

(* Wait-queue tests use a synchronous runtime: [block] parks by raising
   (the waiter stays queued — the fiber analogue of suspending), [wake]
   logs grants so FIFO order is observable. *)
exception Parked

let wait_runtime woken =
  {
    Heap.block = (fun ~addr:_ ~aid:_ -> raise Parked);
    wake = (fun ~addr:_ ~aid -> woken := !woken @ [ aid ]);
  }

let park f =
  match f () with
  | _ -> Alcotest.fail "expected request to park"
  | exception Parked -> ()

let test_wait_queue_fifo () =
  let h = Heap.create () in
  let woken = ref [] in
  Heap.set_runtime h (Some (wait_runtime woken));
  let t1 = aid 1 and t2 = aid 2 and t3 = aid 3 in
  let a = Heap.alloc_atomic h ~creator:t1 (Value.Int 0) in
  Heap.commit_action h t1;
  Heap.write_lock h t1 a;
  park (fun () -> Heap.write_lock h t2 a);
  park (fun () -> Heap.write_lock h t3 a);
  Alcotest.(check bool) "queue front-first" true (Heap.waiting h a = [ t2; t3 ]);
  Heap.commit_action h t1;
  (* Write transfers to the head only; t3 stays queued behind t2. *)
  Alcotest.(check bool) "head granted first" true (!woken = [ t2 ]);
  Alcotest.(check bool) "t3 still queued" true (Heap.waiting h a = [ t3 ]);
  (match (Heap.atomic_view h a).lock with
  | Heap.Write w -> Alcotest.(check bool) "t2 holds write" true (Aid.equal w t2)
  | Heap.Free | Heap.Read _ -> Alcotest.fail "expected write lock");
  Heap.commit_action h t2;
  Alcotest.(check bool) "FIFO order" true (!woken = [ t2; t3 ])

let test_wait_readers_batch () =
  let h = Heap.create () in
  let woken = ref [] in
  Heap.set_runtime h (Some (wait_runtime woken));
  let t1 = aid 1 and t2 = aid 2 and t3 = aid 3 in
  let a = Heap.alloc_atomic h ~creator:t1 (Value.Int 0) in
  Heap.commit_action h t1;
  Heap.write_lock h t1 a;
  park (fun () -> ignore (Heap.read_atomic h t2 a));
  park (fun () -> ignore (Heap.read_atomic h t3 a));
  Heap.commit_action h t1;
  (* Consecutive readers are granted together in queue order. *)
  Alcotest.(check bool) "both readers woken in order" true (!woken = [ t2; t3 ]);
  match (Heap.atomic_view h a).lock with
  | Heap.Read rs ->
      Alcotest.(check bool) "both hold read" true (Aid.Set.mem t2 rs && Aid.Set.mem t3 rs)
  | Heap.Free | Heap.Write _ -> Alcotest.fail "expected read lock"

let test_upgrade_waits_at_front () =
  let h = Heap.create () in
  let woken = ref [] in
  Heap.set_runtime h (Some (wait_runtime woken));
  let t1 = aid 1 and t2 = aid 2 and t3 = aid 3 in
  let a = Heap.alloc_atomic h ~creator:t1 (Value.Int 0) in
  Heap.commit_action h t1;
  ignore (Heap.read_atomic h t1 a);
  ignore (Heap.read_atomic h t2 a);
  park (fun () -> Heap.write_lock h t3 a);
  (* t1's upgrade outranks the queued writer: it already holds a read
     lock t3 can never get past. *)
  park (fun () -> Heap.write_lock h t1 a);
  Alcotest.(check bool) "upgrade at queue front" true (Heap.waiting h a = [ t1; t3 ]);
  Heap.abort_action h t2;
  Alcotest.(check bool) "upgrader granted on sole-reader" true (!woken = [ t1 ]);
  Alcotest.(check bool) "writer still queued" true (Heap.waiting h a = [ t3 ]);
  match (Heap.atomic_view h a).lock with
  | Heap.Write w -> Alcotest.(check bool) "t1 upgraded" true (Aid.equal w t1)
  | Heap.Free | Heap.Read _ -> Alcotest.fail "expected write lock"

let test_no_barging_past_queued_writer () =
  let h = Heap.create () in
  let woken = ref [] in
  Heap.set_runtime h (Some (wait_runtime woken));
  let t1 = aid 1 and t2 = aid 2 and t3 = aid 3 in
  let a = Heap.alloc_atomic h ~creator:t1 (Value.Int 0) in
  Heap.commit_action h t1;
  ignore (Heap.read_atomic h t1 a);
  park (fun () -> Heap.write_lock h t2 a);
  (* Read-compatible with the held lock, but granting would starve the
     queued writer: t3 waits its turn. *)
  park (fun () -> ignore (Heap.read_atomic h t3 a));
  Alcotest.(check bool) "reader queued behind writer" true (Heap.waiting h a = [ t2; t3 ]);
  Alcotest.(check bool) "nobody woken yet" true (!woken = [])

let test_cancel_wait_releases_queue () =
  let h = Heap.create () in
  let woken = ref [] in
  Heap.set_runtime h (Some (wait_runtime woken));
  let t1 = aid 1 and t2 = aid 2 and t3 = aid 3 in
  let a = Heap.alloc_atomic h ~creator:t1 (Value.Int 0) in
  Heap.commit_action h t1;
  (* Cancelling a queued waiter removes it without granting. *)
  Heap.write_lock h t1 a;
  park (fun () -> Heap.write_lock h t2 a);
  park (fun () -> Heap.write_lock h t3 a);
  Heap.cancel_wait h t2 a;
  Alcotest.(check bool) "t2 dequeued" true (Heap.waiting h a = [ t3 ]);
  Alcotest.(check bool) "no grant from cancel alone" true (!woken = []);
  Heap.commit_action h t1;
  Alcotest.(check bool) "t3 not stranded" true (!woken = [ t3 ]);
  Heap.commit_action h t3;
  (* Cancelling a blocking head grants compatible waiters behind it. *)
  let b = Heap.alloc_atomic h ~creator:t1 (Value.Int 0) in
  Heap.commit_action h t1;
  ignore (Heap.read_atomic h t1 b);
  park (fun () -> Heap.write_lock h t2 b);
  park (fun () -> ignore (Heap.read_atomic h t3 b));
  woken := [];
  Heap.cancel_wait h t2 b;
  Alcotest.(check bool) "reader granted past cancelled writer" true (!woken = [ t3 ])

(* --- The version path: no forced minor collections ----------------- *)

module Codec = Rs_util.Codec

let encoded f =
  let enc = Codec.Enc.create () in
  f enc;
  Codec.Enc.contents enc

(* A stable-variable root of [n] bindings, over 256 nodes from n = 86. *)
let binding_root n =
  Value.Tup
    (Array.init n (fun i -> Value.Tup [| Value.Str (Printf.sprintf "v%d" i); Value.Int i |]))

let test_version_path_forces_no_minor () =
  let h = Heap.create () in
  let root = binding_root 300 in
  let fv = Helpers.check_no_minor "flatten a 300-binding root" (fun () -> Flatten.flatten h root) in
  let bytes = encoded (fun e -> Fvalue.encode e fv) in
  let fv' =
    Helpers.check_no_minor "decode it" (fun () -> Fvalue.decode (Codec.Dec.of_string bytes))
  in
  Alcotest.(check bool) "decode roundtrip" true (Fvalue.equal fv fv');
  let v = Helpers.check_no_minor "rebuild it" (fun () -> Flatten.rebuild h fv') in
  Alcotest.(check bool) "rebuild roundtrip" true (Value.equal_shape v root);
  let r = Heap.create () in
  Helpers.check_no_minor "restore 300 objects" (fun () ->
      for i = 1 to 300 do
        let uid = Uid.of_int (1000 + i) in
        ignore (Heap.install_atomic r ~uid ~base:(Some (Value.Int i)) ~cur:None)
      done);
  Alcotest.(check int) "objects restored" 301 (Heap.size r);
  (* Binding one more stable variable copies the root's version and
     builds the new one from its bindings. *)
  for i = 0 to 299 do
    Heap.set_stable_var r (aid 1) (Printf.sprintf "v%d" i) (Value.Int i)
  done;
  Heap.commit_action r (aid 1);
  Helpers.check_no_minor "bind a 301st stable variable" (fun () ->
      Heap.set_stable_var r (aid 2) "w" (Value.Int 0));
  Heap.commit_action r (aid 2);
  Alcotest.(check int) "bindings" 301 (List.length (Heap.stable_var_names r))

(* Encoding a value that reaches no regular object allocates nothing:
   the words two back-to-back [Gc.minor_words] readings allocate are all
   there is around it. *)
let test_heap_encoder_allocates_nothing () =
  let h = Heap.create () in
  let a = Heap.alloc_atomic h ~creator:(aid 1) (Value.Int 1) in
  let root =
    Value.Tup (Array.init 256 (fun i -> Value.Tup [| Value.Str (Printf.sprintf "v%d" i); Value.Ref a |]))
  in
  let enc = Codec.Enc.create ~size:65536 () in
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  Flatten.encode h enc root;
  let w2 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "words allocated by encode" (w1 -. w0) (w2 -. w1);
  Alcotest.(check string) "same bytes as flatten then encode"
    (encoded (fun e -> Fvalue.encode e (Flatten.flatten h root)))
    (Codec.Enc.contents enc)

(* The flattener as it stood before [Flatten.encode]: the reference the
   heap encoder is checked against. *)
let reference_flatten heap v =
  let module Vec = Rs_util.Vec in
  let nodes = Vec.create () in
  let memo = Hashtbl.create 8 in
  let push n =
    Vec.push nodes n;
    Vec.length nodes - 1
  in
  let rec go v =
    match v with
    | Value.Unit -> push Fvalue.Nunit
    | Value.Bool b -> push (Fvalue.Nbool b)
    | Value.Int i -> push (Fvalue.Nint i)
    | Value.Str s -> push (Fvalue.Nstr s)
    | Value.Tup vs ->
        let children = Array.map go vs in
        push (Fvalue.Ntup children)
    | Value.Ref a -> (
        match Heap.kind_of heap a with
        | Heap.Atomic | Heap.Mutex | Heap.Placeholder -> push (Fvalue.Nuid (Option.get (Heap.uid_of heap a)))
        | Heap.Regular -> (
            match Hashtbl.find_opt memo a with
            | Some idx -> idx
            | None ->
                let idx = push (Fvalue.Nregular 0) in
                Hashtbl.add memo a idx;
                let child = go (Heap.regular_value heap a) in
                Vec.set nodes idx (Fvalue.Nregular child);
                idx))
  in
  let root = go v in
  Fvalue.make ~nodes:(Array.of_list (Vec.to_list nodes)) ~root

(* A value over a fixed set of objects: [S_obj i] is one of three atomic
   objects, three mutexes and two placeholders; [S_reg i] is regular
   object [i], whose content is [regulars.(i)] — so regular objects can
   be shared and can form cycles. *)
type vspec =
  | S_unit
  | S_bool of bool
  | S_int of int
  | S_str of string
  | S_tup of vspec list
  | S_obj of int
  | S_reg of int

type vcase = { root : vspec; regulars : vspec list }

let rec show_vspec = function
  | S_unit -> "()"
  | S_bool b -> string_of_bool b
  | S_int i -> string_of_int i
  | S_str s -> Printf.sprintf "%S" s
  | S_tup l -> "(" ^ String.concat ", " (List.map show_vspec l) ^ ")"
  | S_obj i -> Printf.sprintf "obj%d" i
  | S_reg i -> Printf.sprintf "reg%d" i

let show_vcase c =
  Printf.sprintf "root %s; regulars [%s]" (show_vspec c.root)
    (String.concat "; " (List.map show_vspec c.regulars))

(* A value over [nreg] regular objects and the eight objects of
   [build_vcase]: three atomic, three mutex, two placeholders. *)
let rec gen_vspec nreg depth =
  let open QCheck.Gen in
  let leaf =
    frequency
      ([
         (1, return S_unit);
         (1, map (fun b -> S_bool b) bool);
         (2, map (fun i -> S_int i) int);
         (2, map (fun s -> S_str s) (string_size ~gen:printable (0 -- 8)));
         (2, map (fun i -> S_obj i) (0 -- 7));
       ]
      @ if nreg = 0 then [] else [ (2, map (fun i -> S_reg i) (0 -- (nreg - 1))) ])
  in
  if depth = 0 then leaf
  else
    frequency
      [ (2, leaf); (1, map (fun l -> S_tup l) (list_size (0 -- 5) (gen_vspec nreg (depth - 1)))) ]

let gen_vcase =
  let open QCheck.Gen in
  let value = gen_vspec in
  frequency [ (1, return 0); (1, 1 -- 4) ] >>= fun nreg ->
  frequency
    [
      (1, value nreg 4);
      (* A root as wide as a stable-variable root: over 256 nodes. *)
      (1, map (fun l -> S_tup l) (list_size (100 -- 400) (value nreg 2)));
    ]
  >>= fun root ->
  list_size (return nreg) (value nreg 3) >>= fun regulars -> return { root; regulars }

let build_vcase c =
  let h = Heap.create () in
  let objs =
    Array.concat
      [
        Array.init 3 (fun i -> Heap.alloc_atomic h ~creator:(aid 1) (Value.Int i));
        Array.init 3 (fun i -> Heap.alloc_mutex h (Value.Int i));
        Array.init 2 (fun i -> Heap.install_placeholder h (Uid.of_int (9000 + i)));
      ]
  in
  let regs = Array.of_list (List.map (fun _ -> Heap.alloc_regular h Value.Unit) c.regulars) in
  let rec value = function
    | S_unit -> Value.Unit
    | S_bool b -> Value.Bool b
    | S_int i -> Value.Int i
    | S_str s -> Value.Str s
    | S_tup l -> Value.Tup (Array.of_list (List.map value l))
    | S_obj i -> Value.Ref objs.(i)
    | S_reg i -> Value.Ref regs.(i)
  in
  List.iteri (fun i s -> Heap.set_regular h regs.(i) (value s)) c.regulars;
  (h, objs, value)

let prop_heap_encoder =
  QCheck.Test.make ~name:"the heap encoder writes what flatten-then-encode writes" ~count:300
    (QCheck.make ~print:show_vcase gen_vcase)
    (fun c ->
      let h, _, value = build_vcase c in
      let v = value c.root in
      let reference = reference_flatten h v in
      (* A prefix checks that the encoder appends. *)
      let with_prefix f = encoded (fun e -> Codec.Enc.u8 e 0x7f; f e) in
      let got = with_prefix (fun e -> Flatten.encode h e v) in
      if got <> with_prefix (fun e -> Fvalue.encode e reference) then
        QCheck.Test.fail_report "encode differs from the reference";
      if not (Fvalue.equal (Flatten.flatten h v) reference) then
        QCheck.Test.fail_report "flatten differs from the reference";
      let seen = ref [] in
      Flatten.iter_uids h v (fun u ->
          if not (List.exists (Uid.equal u) !seen) then seen := u :: !seen);
      if not (List.equal Uid.equal (List.rev !seen) (Fvalue.uids reference)) then
        QCheck.Test.fail_report "iter_uids differs from the reference's uids";
      true)

(* The walk as it was when it marked addresses in a hash table, through
   the public accessors: the reference for order and coverage. *)
let reference_iter_reachable t f =
  let seen = Hashtbl.create 64 in
  let rec go_value = function
    | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ -> ()
    | Value.Tup vs -> Array.iter go_value vs
    | Value.Ref a -> go_addr a
  and go_addr a =
    if not (Hashtbl.mem seen a) then begin
      Hashtbl.add seen a ();
      f a;
      match Heap.kind_of t a with
      | Heap.Atomic ->
          let view = Heap.atomic_view t a in
          go_value view.base;
          Option.iter go_value view.cur
      | Heap.Mutex -> go_value (Heap.mutex_value t a)
      | Heap.Regular -> go_value (Heap.regular_value t a)
      | Heap.Placeholder -> ()
    end
  in
  go_addr (Heap.root_addr t)

(* A graph of [build_vcase]'s objects: the atomic objects get a base
   each and perhaps an uncommitted current version, the mutex objects a
   value, so any object can reach any other, itself included. *)
type wcase = { graph : vcase; atomics : (vspec * vspec option) list; mutexes : vspec list }

let show_wcase w =
  Printf.sprintf "%s; atomics [%s]; mutexes [%s]" (show_vcase w.graph)
    (String.concat "; "
       (List.map
          (fun (b, c) -> show_vspec b ^ Option.fold ~none:"" ~some:(fun c -> " / " ^ show_vspec c) c)
          w.atomics))
    (String.concat "; " (List.map show_vspec w.mutexes))

let gen_wcase =
  let open QCheck.Gen in
  gen_vcase >>= fun graph ->
  let value = gen_vspec (List.length graph.regulars) 2 in
  list_repeat 3 (pair value (opt value)) >>= fun atomics ->
  list_repeat 3 value >>= fun mutexes -> return { graph; atomics; mutexes }

let prop_iter_reachable =
  QCheck.Test.make ~name:"the heap walk visits what the hash-table walk visits, in order"
    ~count:300 (QCheck.make ~print:show_wcase gen_wcase)
    (fun w ->
      let h, objs, value = build_vcase w.graph in
      let t1 = aid 1 in
      List.iteri (fun i (base, _) -> Heap.set_base h objs.(i) (value base)) w.atomics;
      List.iteri
        (fun i m ->
          let a = objs.(3 + i) in
          ignore (Heap.seize h t1 a : Value.t);
          Heap.set_mutex h t1 a (value m);
          Heap.release h t1 a)
        w.mutexes;
      Heap.set_stable_var h t1 "root" (value w.graph.root);
      Heap.commit_action h t1;
      List.iteri
        (fun i (_, cur) -> Option.iter (fun c -> Heap.set_current h (aid 2) objs.(i) (value c)) cur)
        w.atomics;
      let visits walk =
        let order = ref [] in
        walk h (fun a -> order := a :: !order);
        List.rev !order
      in
      let want = visits reference_iter_reachable in
      if visits Heap.iter_reachable <> want then
        QCheck.Test.fail_report "iter_reachable differs from the reference walk";
      let want_uids = Uid.Set.of_list (List.filter_map (Heap.uid_of h) want) in
      if not (Uid.Set.equal (Heap.reachable_uids h) want_uids) then
        QCheck.Test.fail_report "reachable_uids differs from the reference walk's uids";
      true)

let suite =
  [
    Alcotest.test_case "alloc kinds" `Quick test_alloc_kinds;
    Alcotest.test_case "read/write locks" `Quick test_read_write_locks;
    Alcotest.test_case "commit installs version" `Quick test_commit_installs_version;
    Alcotest.test_case "abort discards version" `Quick test_abort_discards_version;
    Alcotest.test_case "version copy isolates regulars" `Quick test_version_copy_isolates_regulars;
    Alcotest.test_case "mutex seize semantics" `Quick test_mutex_seize;
    Alcotest.test_case "MOS tracking" `Quick test_mos_tracking;
    Alcotest.test_case "stable variables" `Quick test_stable_vars;
    Alcotest.test_case "reachable uids" `Quick test_reachable_uids;
    Alcotest.test_case "flatten replaces uids" `Quick test_flatten_replaces_uids;
    Alcotest.test_case "flatten/rebuild roundtrip" `Quick test_flatten_rebuild_roundtrip;
    Alcotest.test_case "regular object cycle" `Quick test_regular_cycle;
    Alcotest.test_case "version path forces no minor collection" `Quick
      test_version_path_forces_no_minor;
    Alcotest.test_case "heap encoder allocates nothing on a tree" `Quick
      test_heap_encoder_allocates_nothing;
    QCheck_alcotest.to_alcotest prop_heap_encoder;
    QCheck_alcotest.to_alcotest prop_iter_reachable;
    Alcotest.test_case "placeholder patching" `Quick test_placeholder_patching;
    Alcotest.test_case "dangling placeholder fails" `Quick test_dangling_placeholder_fails;
    Alcotest.test_case "root index sees placeholder patch" `Quick test_root_index_sees_patch;
    Alcotest.test_case "root index: first match, stale slot" `Quick test_root_index_first_match;
    QCheck_alcotest.to_alcotest prop_root_index;
    Alcotest.test_case "heap check: clean heap" `Quick test_heap_check_clean;
    Alcotest.test_case "heap check: detects placeholder" `Quick test_heap_check_detects_placeholder;
    Alcotest.test_case "heap check: lock/version pairing" `Quick test_heap_check_detects_lockless_current;
    Alcotest.test_case "wait queue is FIFO" `Quick test_wait_queue_fifo;
    Alcotest.test_case "wait queue batches readers" `Quick test_wait_readers_batch;
    Alcotest.test_case "upgrade waits at queue front" `Quick test_upgrade_waits_at_front;
    Alcotest.test_case "no barging past queued writer" `Quick test_no_barging_past_queued_writer;
    Alcotest.test_case "cancel_wait releases queue" `Quick test_cancel_wait_releases_queue;
  ]
