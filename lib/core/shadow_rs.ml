module Uid = Rs_util.Uid
module Aid = Rs_util.Aid
module Codec = Rs_util.Codec
module Heap = Rs_objstore.Heap
module Store = Rs_storage.Stable_store
module Log = Rs_slog.Stable_log
module Trace = Rs_obs.Trace

type addr = Log_entry.addr

(* The stable footprint: version store, two map areas, map root, and the
   in-flight log. These survive crashes; everything else is volatile. *)
type stores = {
  vstore : Store.t;
  areas : Store.t array;
  root : Store.t;
  istore : Store.t;
}

type t = {
  heap : Heap.t;
  stores : stores;
  vlog : Log.t;
  mutable ilog : Log.t;
  mutable slot : int; (* current map area *)
  map : (addr * Log_entry.otype) Uid.Tbl.t; (* uid -> version address *)
  mutable acc : Uid.Set.t;
  pat : unit Aid.Tbl.t;
  pending : (addr * Log_entry.otype) Uid.Tbl.t Aid.Tbl.t; (* installed at commit *)
  committing_active : unit Aid.Tbl.t; (* coordinator actions in phase two *)
}

let heap t = t.heap

let encode_root slot =
  let e = Codec.Enc.create ~size:4 () in
  Codec.Enc.varint e slot;
  Codec.Enc.contents e

let decode_root s =
  let d = Codec.Dec.of_string s in
  let slot = Codec.Dec.varint d in
  Codec.Dec.expect_end d;
  if slot <> 0 && slot <> 1 then failwith "Shadow_rs: corrupt map root";
  slot

let encode_map map =
  let e = Codec.Enc.create ~size:256 () in
  let entries =
    Uid.Tbl.fold (fun u (a, ot) acc -> (u, a, ot) :: acc) map []
    |> List.sort (fun (a, _, _) (b, _, _) -> Uid.compare a b)
  in
  Codec.Enc.list
    (fun e (u, a, ot) ->
      Codec.Enc.varint e (Uid.to_int u);
      Codec.Enc.varint e a;
      Codec.Enc.u8 e (match ot with Log_entry.Atomic -> 0 | Log_entry.Mutex -> 1))
    e entries;
  Codec.Enc.contents e

let decode_map s =
  let d = Codec.Dec.of_string s in
  let entries =
    Codec.Dec.list
      (fun d ->
        let u = Uid.of_int (Codec.Dec.varint d) in
        let a = Codec.Dec.varint d in
        let ot =
          match Codec.Dec.u8 d with
          | 0 -> Log_entry.Atomic
          | 1 -> Log_entry.Mutex
          | n -> raise (Codec.Error (Printf.sprintf "Shadow_rs: bad otype %d" n))
        in
        (u, a, ot))
      d
  in
  Codec.Dec.expect_end d;
  entries

(* Writing the map: format the spare area as a one-entry log, force the
   serialized map into it, then flip the root — the atomic switch of the
   shadowing scheme. *)
let install_map t =
  let spare = 1 - t.slot in
  let mlog = Log.create (t.stores.areas.(spare)) in
  ignore (Log.force_write mlog (encode_map t.map));
  Store.put t.stores.root 0 (encode_root spare);
  t.slot <- spare

let create heap () =
  let stores =
    {
      vstore = Store.create ~pages:8 ();
      areas = [| Store.create ~pages:8 (); Store.create ~pages:8 () |];
      root = Store.create ~pages:1 ();
      istore = Store.create ~pages:8 ();
    }
  in
  let t =
    {
      heap;
      stores;
      vlog = Log.create stores.vstore;
      ilog = Log.create stores.istore;
      slot = 0;
      map = Uid.Tbl.create 64;
      acc = Uid.Set.singleton Uid.stable_vars;
      pat = Aid.Tbl.create 8;
      pending = Aid.Tbl.create 8;
      committing_active = Aid.Tbl.create 4;
    }
  in
  ignore (Log.force_write (Log.create stores.areas.(0)) (encode_map t.map));
  Store.put stores.root 0 (encode_root 0);
  t

let pending_tbl t aid =
  match Aid.Tbl.find_opt t.pending aid with
  | Some tbl -> tbl
  | None ->
      let tbl = Uid.Tbl.create 8 in
      Aid.Tbl.replace t.pending aid tbl;
      tbl

let write_version t ~uid ~otype ~aid version =
  Log_entry.write_data t.vlog ~uid:(Some uid) ~otype ~aid version

(* The encoder of a version that is already flattened. *)
let flat version e = Rs_objstore.Fvalue.encode e version

let sink_for t aid : Write_objects.sink =
  {
    data =
      (fun ~uid ~otype version ->
        let a = write_version t ~uid ~otype ~aid:(Some aid) version in
        Uid.Tbl.replace (pending_tbl t aid) uid (a, otype));
    base_committed =
      (fun ~uid version ->
        (* A newly accessible base version is committed data: write it to
           the version store, install it in the (volatile) map — the next
           map write makes it stable — and record a one-pair committed_ss
           in the in-flight log so a crash before that write recovers it. *)
        let a = write_version t ~uid ~otype:Log_entry.Atomic ~aid:None (flat version) in
        Uid.Tbl.replace t.map uid (a, Log_entry.Atomic);
        ignore
          (Log_entry.write t.ilog (Log_entry.Committed_ss { cssl = [ (uid, a) ]; prev = None })));
    prepared_data =
      (fun ~uid ~aid version ->
        (* Current version of a newly accessible object held by another
           prepared action: add it to that action's pending set so its
           commit installs it, and extend that action's prepared record so
           recovery finds it. *)
        let a = write_version t ~uid ~otype:Log_entry.Atomic ~aid:(Some aid) (flat version) in
        Uid.Tbl.replace (pending_tbl t aid) uid (a, Log_entry.Atomic);
        ignore
          (Log_entry.write t.ilog
             (Log_entry.Prepared { aid; pairs = Some [ (uid, a) ]; prev = None })));
  }

let prepare t aid mos =
  ignore
    (Write_objects.write_mos ~heap:t.heap
       ~accessible:(fun u -> Uid.Set.mem u t.acc)
       ~add_accessible:(fun u -> t.acc <- Uid.Set.add u t.acc)
       ~prepared:(fun a -> Aid.Tbl.mem t.pat a)
       ~aid ~mos ~sink:(sink_for t aid));
  Log.force t.vlog;
  let pairs =
    Uid.Tbl.fold (fun u (a, _) acc -> (u, a) :: acc) (pending_tbl t aid) []
    |> List.sort (fun (a, _) (b, _) -> Uid.compare a b)
  in
  ignore
    (Log.force_write t.ilog
       (Log_entry.encode (Log_entry.Prepared { aid; pairs = Some pairs; prev = None })));
  Aid.Tbl.replace t.pat aid ()

(* Truncate the in-flight log when nothing is in flight: participant data
   is all reflected in the stably written map, and no coordinator is mid
   phase two. Committed/aborted records of finished actions may be
   forgotten: a resent commit/abort is acknowledged idempotently. *)
let maybe_truncate_ilog t =
  if
    Aid.Tbl.length t.pat = 0
    && Aid.Tbl.length t.pending = 0
    && Aid.Tbl.length t.committing_active = 0
  then t.ilog <- Log.create t.stores.istore

let commit t aid =
  ignore (Log.force_write t.ilog (Log_entry.encode (Log_entry.Committed { aid; prev = None })));
  (match Aid.Tbl.find_opt t.pending aid with
  | Some tbl -> Uid.Tbl.iter (fun u entry -> Uid.Tbl.replace t.map u entry) tbl
  | None -> ());
  Aid.Tbl.remove t.pending aid;
  Aid.Tbl.remove t.pat aid;
  install_map t;
  maybe_truncate_ilog t

let abort t aid =
  ignore (Log.force_write t.ilog (Log_entry.encode (Log_entry.Aborted { aid; prev = None })));
  (* Mutex versions written by this prepared action survive the abort
     (§2.4.2): they are installed in the map even though the atomic
     versions are discarded. *)
  let mutexes =
    match Aid.Tbl.find_opt t.pending aid with
    | None -> []
    | Some tbl ->
        Uid.Tbl.fold
          (fun u (a, ot) acc ->
            match ot with Log_entry.Mutex -> (u, (a, ot)) :: acc | Log_entry.Atomic -> acc)
          tbl []
  in
  Aid.Tbl.remove t.pending aid;
  Aid.Tbl.remove t.pat aid;
  if mutexes <> [] then begin
    List.iter (fun (u, entry) -> Uid.Tbl.replace t.map u entry) mutexes;
    install_map t
  end;
  maybe_truncate_ilog t

let map_size t = Uid.Tbl.length t.map

let recover old =
  let stores = old.stores in
  Store.recover stores.root;
  let heap = Heap.create () in
  let ctx = Restore.create_ctx heap in
  let vlog = Log.open_ stores.vstore in
  let ilog = Log.open_ stores.istore in
  let slot =
    match Store.get stores.root 0 with
    | Some s -> decode_root s
    | None -> failwith "Shadow_rs.recover: lost map root"
  in
  let map_entries =
    let mlog = Log.open_ stores.areas.(slot) in
    match Log.get_top mlog with
    | None -> failwith "Shadow_rs.recover: empty map area"
    | Some a -> decode_map (Log.read mlog a)
  in
  let read_data = Log_entry.read_data vlog in
  (* Pairs of in-flight prepared records, remembered so that the map and
     the pending sets can be rebuilt once final action states are known. *)
  let seen_prepared : (Aid.t * (Uid.t * addr) list) list ref = ref [] in
  let seen_bc : (Uid.t * addr) list ref = ref [] in
  (* First the in-flight log, newest first — exactly the backward scan of
     the general recovery algorithm over a very short log. *)
  (match Log.get_top ilog with
  | None -> ()
  | Some top ->
      Seq.iter
        (fun (a, raw) ->
          ctx.Restore.processed <- ctx.Restore.processed + 1;
          let entry = Log_entry.decode raw in
          (match entry with
          | Log_entry.Prepared { aid; pairs; _ } ->
              seen_prepared := (aid, Option.value pairs ~default:[]) :: !seen_prepared
          | Log_entry.Committed_ss { cssl; _ } -> seen_bc := cssl @ !seen_bc
          | Log_entry.Committed _ | Log_entry.Aborted _ | Log_entry.Committing _ | Log_entry.Done _ -> ()
          | Log_entry.Base_committed _ | Log_entry.Prepared_data _ | Log_entry.Data _ ->
              failwith "Shadow_rs.recover: unexpected entry in the in-flight log");
          Restore.replay ctx ~read_data a entry)
        (Log.read_backward ilog top));
  (* Then the map: the committed stable state, replayed as a committed_ss. *)
  Restore.replay ctx ~read_data (-1)
    (Log_entry.Committed_ss { cssl = List.map (fun (u, a, _) -> (u, a)) map_entries; prev = None });
  let info = Restore.finish ctx ~uid_gen:(Heap.uid_gen heap) in
  Trace.emit
    (Trace.Recovery_scan
       { system = "shadow"; entries = info.Tables.Recovery_info.entries_processed });
  let t =
    {
      heap;
      stores;
      vlog;
      ilog;
      slot;
      map = Uid.Tbl.create 64;
      acc = Uid.Set.add Uid.stable_vars (Heap.reachable_uids heap);
      pat = Aid.Tbl.create 8;
      pending = Aid.Tbl.create 8;
      committing_active = Aid.Tbl.create 4;
    }
  in
  List.iter
    (fun (a, _) -> Aid.Tbl.replace t.committing_active a ())
    (Tables.Recovery_info.committing_actions info);
  List.iter (fun (u, a, ot) -> Uid.Tbl.replace t.map u (a, ot)) map_entries;
  List.iter (fun aid -> Aid.Tbl.replace t.pat aid ()) (Tables.Recovery_info.prepared_actions info);
  (* Rebuild the volatile map and pending sets from the in-flight records,
     oldest first so later versions win:
     - base-committed pairs belong to the committed state;
     - pairs of actions that committed belong there too (the crash may
       have hit between the committed record and the map switch);
     - mutex pairs survive even for aborted actions (§2.4.2);
     - pairs of still-prepared actions are re-installed as pending, so a
       commit after recovery installs them in the map. *)
  let otype_of daddr = fst (read_data daddr) in
  let stale = ref false in
  let install u entry =
    match Uid.Tbl.find_opt t.map u with
    | Some e when e = entry -> ()
    | Some _ | None ->
        Uid.Tbl.replace t.map u entry;
        stale := true
  in
  List.iter (fun (u, a) -> install u (a, otype_of a)) (List.rev !seen_bc);
  List.iter
    (fun (aid, pairs) ->
      let state = List.assoc_opt aid info.Tables.Recovery_info.pt in
      List.iter
        (fun (u, a) ->
          let ot = otype_of a in
          match state with
          | Some Tables.Pt.Committed -> install u (a, ot)
          | Some Tables.Pt.Aborted -> if ot = Log_entry.Mutex then install u (a, ot)
          | Some Tables.Pt.Prepared -> Uid.Tbl.replace (pending_tbl t aid) u (a, ot)
          | None -> ())
        pairs)
    (List.rev !seen_prepared);
  (* If the in-flight log contributed committed pairs the stable map does
     not yet hold — the crash hit a commit between its committed record
     and the map switch — complete the switch now. Leaving them volatile
     is unsound: [maybe_truncate_ilog] assumes the stable map covers all
     finished actions and may discard their only stable copy, so a second
     crash would lose committed effects. *)
  if !stale then install_map t;
  (t, info)

let stable_stores t =
  [ t.stores.vstore; t.stores.areas.(0); t.stores.areas.(1); t.stores.root; t.stores.istore ]

let physical_writes t =
  Store.physical_writes t.stores.vstore
  + Store.physical_writes t.stores.areas.(0)
  + Store.physical_writes t.stores.areas.(1)
  + Store.physical_writes t.stores.root
  + Store.physical_writes t.stores.istore
