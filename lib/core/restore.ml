module Uid = Rs_util.Uid
module Aid = Rs_util.Aid
module Heap = Rs_objstore.Heap
module Flatten = Rs_objstore.Flatten
module Fvalue = Rs_objstore.Fvalue

type output = {
  committed : uid:Uid.t -> Log_entry.otype -> Fvalue.t -> int;
  owed_base : uid:Uid.t -> vm:int -> Fvalue.t -> unit;
  current : uid:Uid.t -> aid:Aid.t -> Fvalue.t -> int;
  prepared_data : uid:Uid.t -> aid:Aid.t -> Fvalue.t -> int;
  settle : unit -> unit;
}

type ctx = {
  out : output;
  ot : Tables.Ot.t;
  pt : Tables.Pt.t;
  ct : Tables.Ct.t;
  mutable processed : int;
}

let create out =
  { out; ot = Tables.Ot.create (); pt = Tables.Pt.create (); ct = Tables.Ct.create (); processed = 0 }

(* The heap output. A rebuilt value may reference uids not yet restored;
   those become placeholder references, patched when the replay settles. *)
let heap_output heap =
  let rebuild fv = Flatten.rebuild heap fv in
  let current ~uid ~aid fv = Heap.install_atomic heap ~uid ~base:None ~cur:(Some (aid, rebuild fv)) in
  {
    committed =
      (fun ~uid otype fv ->
        match otype with
        | Log_entry.Atomic -> Heap.install_atomic heap ~uid ~base:(Some (rebuild fv)) ~cur:None
        | Log_entry.Mutex -> Heap.install_mutex heap ~uid (rebuild fv));
    owed_base = (fun ~uid:_ ~vm fv -> Heap.set_base heap vm (rebuild fv));
    current;
    prepared_data = current;
    settle = (fun () -> Heap.patch_placeholders heap);
  }

let create_ctx heap = create (heap_output heap)

(* Outcome entries (§3.4.4 step 2.a–c, f–g). Reading backward, the first
   outcome seen for an action is its final state; older ones are ignored. *)

let on_prepared ctx aid = Tables.Pt.add_if_absent ctx.pt aid Tables.Pt.Prepared
let on_committed ctx aid = Tables.Pt.add_if_absent ctx.pt aid Tables.Pt.Committed
let on_aborted ctx aid = Tables.Pt.add_if_absent ctx.pt aid Tables.Pt.Aborted

let on_committing ctx aid gids =
  Tables.Ct.add_if_absent ctx.ct aid (Tables.Ct.Committing gids)

let on_done ctx aid = Tables.Ct.add_if_absent ctx.ct aid Tables.Ct.Done

(* A committed version: the first (newest) atomic version seen is the
   base — owed to an object whose prepared current version is already in
   place (§3.4.2 scenario 1, step 7) — and a mutex takes the version with
   the greatest log address (§4.4). *)
let restore_committed ctx ~uid ~src otype fv =
  match (Tables.Ot.find ctx.ot uid, otype) with
  | None, _ ->
      let vm = ctx.out.committed ~uid otype fv in
      Tables.Ot.add ctx.ot uid Tables.Ot.Restored ~kind:otype ~vm ~src
  | Some e, Log_entry.Mutex ->
      if src > e.src then begin
        e.vm <- ctx.out.committed ~uid otype fv;
        e.src <- src
      end
  | Some ({ state = Tables.Ot.Prepared; _ } as e), Log_entry.Atomic ->
      ctx.out.owed_base ~uid ~vm:e.vm fv;
      e.state <- Tables.Ot.Restored
  | Some { state = Tables.Ot.Restored; _ }, Log_entry.Atomic -> ()

(* A still-prepared action's current version, installed write-locked
   unless a later version is already in place. *)
let restore_current ctx ~uid ~src install fv =
  if Tables.Ot.find ctx.ot uid = None then
    Tables.Ot.add ctx.ot uid Tables.Ot.Prepared ~kind:Log_entry.Atomic ~vm:(install fv) ~src

let on_base_committed ctx ~uid fv = restore_committed ctx ~uid ~src:(-1) Log_entry.Atomic fv

let on_prepared_data ctx ~uid ~aid fv =
  match Tables.Pt.find ctx.pt aid with
  | Some Tables.Pt.Aborted -> ()
  | Some Tables.Pt.Committed -> on_base_committed ctx ~uid fv
  | Some Tables.Pt.Prepared | None ->
      (* With no outcome seen, the writing action must have prepared: its
         real prepared entry appears earlier in the log (§3.4.4 step
         2.e.ii). *)
      on_prepared ctx aid;
      restore_current ctx ~uid ~src:(-1) (ctx.out.prepared_data ~uid ~aid) fv

(* An object already restored may still be superseded by this data entry
   if it is a mutex whose entry has a greater log address (§4.4). The
   address precheck avoids fetching entries that cannot win. *)
let maybe_newer_mutex ctx ~uid ~src ~fetch (e : Tables.Ot.entry) =
  if e.kind = Log_entry.Mutex && src > e.src then
    match fetch () with
    | Log_entry.Mutex, fv -> restore_committed ctx ~uid ~src Log_entry.Mutex fv
    | Log_entry.Atomic, _ -> ()

let on_committed_data ctx ~uid ~src ~fetch =
  match Tables.Ot.find ctx.ot uid with
  | Some e when e.state = Tables.Ot.Restored -> maybe_newer_mutex ctx ~uid ~src ~fetch e
  | Some _ | None ->
      let otype, fv = fetch () in
      restore_committed ctx ~uid ~src otype fv

let on_data ctx ~uid ~aid ~src ~fetch =
  let pstate = match aid with None -> None | Some a -> Tables.Pt.find ctx.pt a in
  match pstate with
  | None -> () (* the action never prepared: its effects are discarded *)
  | Some Tables.Pt.Committed -> on_committed_data ctx ~uid ~src ~fetch
  | Some Tables.Pt.Prepared -> (
      match Tables.Ot.find ctx.ot uid with
      | Some e when e.state = Tables.Ot.Restored -> maybe_newer_mutex ctx ~uid ~src ~fetch e
      | Some _ -> () (* the prepared current version is already in place *)
      | None -> (
          match (fetch (), aid) with
          | (Log_entry.Atomic, fv), Some aid ->
              restore_current ctx ~uid ~src (ctx.out.current ~uid ~aid) fv
          | (Log_entry.Atomic, _), None -> ()
          | (Log_entry.Mutex, fv), _ -> restore_committed ctx ~uid ~src Log_entry.Mutex fv))
  | Some Tables.Pt.Aborted -> (
      (* Atomic versions of aborted actions are discarded; mutex versions
         written by a prepared action are kept (§3.4.2 scenario 2). *)
      match Tables.Ot.find ctx.ot uid with
      | Some e -> maybe_newer_mutex ctx ~uid ~src ~fetch e
      | None -> (
          match fetch () with
          | Log_entry.Atomic, _ -> ()
          | Log_entry.Mutex, fv -> restore_committed ctx ~uid ~src Log_entry.Mutex fv))

let on_committed_ss ctx ~pairs ~fetch =
  List.iter (fun (uid, addr) -> on_committed_data ctx ~uid ~src:addr ~fetch:(fun () -> fetch addr)) pairs

let replay ctx ~read_data addr entry =
  let fetch a =
    ctx.processed <- ctx.processed + 1;
    read_data a
  in
  match entry with
  | Log_entry.Prepared { aid; pairs; _ } ->
      on_prepared ctx aid;
      Option.iter
        (List.iter (fun (uid, a) ->
             on_data ctx ~uid ~aid:(Some aid) ~src:a ~fetch:(fun () -> fetch a)))
        pairs
  | Log_entry.Committed { aid; _ } -> on_committed ctx aid
  | Log_entry.Aborted { aid; _ } -> on_aborted ctx aid
  | Log_entry.Committing { aid; gids; _ } -> on_committing ctx aid gids
  | Log_entry.Done { aid; _ } -> on_done ctx aid
  | Log_entry.Base_committed { uid; version; _ } -> on_base_committed ctx ~uid version
  | Log_entry.Prepared_data { uid; version; aid; _ } -> on_prepared_data ctx ~uid ~aid version
  | Log_entry.Committed_ss { cssl; _ } -> on_committed_ss ctx ~pairs:cssl ~fetch
  | Log_entry.Data { uid = Some uid; otype; aid; version } ->
      on_data ctx ~uid ~aid ~src:addr ~fetch:(fun () -> (otype, version))
  | Log_entry.Data { uid = None; _ } -> () (* reached only through a pair or a CSSL *)

let finish ctx ~uid_gen =
  ctx.out.settle ();
  Uid.Gen.reset_past uid_gen (Tables.Ot.max_uid ctx.ot);
  {
    Tables.Recovery_info.pt = Tables.Pt.to_list ctx.pt;
    ct = Tables.Ct.to_list ctx.ct;
    objects = List.map (fun (u, (e : Tables.Ot.entry)) -> (u, e.vm)) (Tables.Ot.to_list ctx.ot);
    entries_processed = ctx.processed;
  }
