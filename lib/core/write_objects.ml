module Uid = Rs_util.Uid
module Aid = Rs_util.Aid
module Heap = Rs_objstore.Heap
module Flatten = Rs_objstore.Flatten
module Fvalue = Rs_objstore.Fvalue

type sink = {
  data : uid:Uid.t -> otype:Log_entry.otype -> (Rs_util.Codec.Enc.t -> unit) -> unit;
  base_committed : uid:Uid.t -> Fvalue.t -> unit;
  prepared_data : uid:Uid.t -> aid:Aid.t -> Fvalue.t -> unit;
}

let write_mos ~heap ~accessible ~add_accessible ~prepared ~aid ~mos ~sink =
  let naos = Queue.create () in
  let queued = Hashtbl.create 8 in
  (* Scan a version for references to recoverable objects that are not
     accessible yet: they are newly accessible (§3.3.3.2). *)
  let scan v =
    Flatten.iter_uids heap v (fun u ->
        if (not (accessible u)) && not (Hashtbl.mem queued u) then begin
          Hashtbl.add queued u ();
          match Heap.addr_of_uid heap u with
          | Some a -> Queue.add (u, a) naos
          | None ->
              (* A version references a uid absent from volatile memory:
                 impossible during normal operation. *)
              invalid_arg "Write_objects: reference to unknown uid"
        end)
  in
  let flatten v = Flatten.flatten heap v in
  let emit_data ~uid ~otype v =
    sink.data ~uid ~otype (fun e -> Flatten.encode heap e v);
    scan v
  in
  (* Step 3: the MOS proper — only accessible objects are written; the
     rest are candidates for MOS' (some may yet become newly accessible
     while the NAOS drains below). *)
  let skipped =
    List.filter
      (fun a ->
        match Heap.uid_of heap a with
        | None -> false (* regular objects are never written on their own *)
        | Some u ->
            if accessible u then begin
              (match Heap.kind_of heap a with
              | Heap.Atomic ->
                  let view = Heap.atomic_view heap a in
                  let version =
                    match (view.lock, view.cur) with
                    | Heap.Write w, Some cur when Aid.equal w aid -> cur
                    | (Heap.Write _ | Heap.Read _ | Heap.Free), _ -> view.base
                  in
                  emit_data ~uid:u ~otype:Log_entry.Atomic version
              | Heap.Mutex -> emit_data ~uid:u ~otype:Log_entry.Mutex (Heap.mutex_value heap a)
              | Heap.Regular | Heap.Placeholder ->
                  invalid_arg "Write_objects: non-recoverable object in MOS");
              false
            end
            else true)
      mos
  in
  (* Step 4: drain the NAOS; processing can reveal further newly
     accessible objects, which join the queue. *)
  let rec drain () =
    match Queue.take_opt naos with
    | None -> ()
    | Some (u, a) ->
        (match Heap.kind_of heap a with
        | Heap.Mutex -> emit_data ~uid:u ~otype:Log_entry.Mutex (Heap.mutex_value heap a)
        | Heap.Atomic -> (
            let view = Heap.atomic_view heap a in
            let emit_base () =
              sink.base_committed ~uid:u (flatten view.base);
              scan view.base
            in
            match (view.lock, view.cur) with
            | Heap.Write w, Some cur when Aid.equal w aid ->
                emit_base ();
                emit_data ~uid:u ~otype:Log_entry.Atomic cur
            | Heap.Write w, Some cur when prepared w ->
                emit_base ();
                sink.prepared_data ~uid:u ~aid:w (flatten cur);
                scan cur
            | (Heap.Write _ | Heap.Read _ | Heap.Free), _ -> emit_base ())
        | Heap.Regular | Heap.Placeholder ->
            invalid_arg "Write_objects: non-recoverable object in NAOS");
        add_accessible u;
        drain ()
  in
  drain ();
  (* MOS' (§4.4): whatever is still inaccessible after the NAOS settled. *)
  List.filter
    (fun a ->
      match Heap.uid_of heap a with None -> false | Some u -> not (accessible u))
    skipped

type snapshot = {
  cssl : Log_entry.pairs;
  in_doubt : Log_entry.t list;
  new_as : Uid.Set.t;
  new_mt : Log_entry.pairs;
}

let snapshot ~heap ~old_log ~mt ~pat ~committing ~prepared_pairs ~write_data =
  let cssl = ref [] and in_doubt = ref [] and new_mt = ref [] in
  let new_as = ref [ Uid.stable_vars ] in
  let copy ~uid otype version =
    let a = write_data ~uid ~otype version in
    cssl := (uid, a) :: !cssl;
    a
  in
  Heap.iter_reachable heap (fun a ->
      match Heap.kind_of heap a with
      | Heap.Regular | Heap.Placeholder -> ()
      | Heap.Atomic -> (
          let uid = Option.get (Heap.uid_of heap a) in
          new_as := uid :: !new_as;
          let view = Heap.atomic_view heap a in
          ignore (copy ~uid Log_entry.Atomic (fun e -> Flatten.encode heap e view.base));
          match (view.lock, view.cur) with
          | Heap.Write w, Some cur when Aid.Tbl.mem pat w ->
              in_doubt :=
                Log_entry.Prepared_data
                  { uid; version = Flatten.flatten heap cur; aid = w; prev = None }
                :: !in_doubt
          | (Heap.Write _ | Heap.Read _ | Heap.Free), _ -> ())
      | Heap.Mutex -> (
          let uid = Option.get (Heap.uid_of heap a) in
          new_as := uid :: !new_as;
          match Uid.Tbl.find_opt mt uid with
          | Some oaddr -> (
              match Log_entry.read_data old_log oaddr with
              | Log_entry.Mutex, version ->
                  let a = copy ~uid Log_entry.Mutex (fun e -> Fvalue.encode e version) in
                  new_mt := (uid, a) :: !new_mt
              | Log_entry.Atomic, _ -> failwith "Write_objects.snapshot: MT points at an atomic entry")
          | None -> () (* newly accessible and still being prepared: carried after the marker *)));
  (* PT status of prepared actions and CT status of committing
     coordinators is invisible to the heap traversal; emit it explicitly
     (an oversight in §5.2 that compaction does not share). *)
  Aid.Tbl.iter
    (fun aid () -> in_doubt := Log_entry.Prepared { aid; pairs = prepared_pairs; prev = None } :: !in_doubt)
    pat;
  Aid.Tbl.iter
    (fun aid gids -> in_doubt := Log_entry.Committing { aid; gids; prev = None } :: !in_doubt)
    committing;
  { cssl = List.rev !cssl; in_doubt = List.rev !in_doubt; new_as = Uid.Set.of_list !new_as; new_mt = List.rev !new_mt }
