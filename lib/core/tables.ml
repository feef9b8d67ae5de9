module Aid = Rs_util.Aid
module Gid = Rs_util.Gid
module Uid = Rs_util.Uid

module Pt = struct
  type state = Prepared | Committed | Aborted
  type t = state Aid.Tbl.t

  let create () = Aid.Tbl.create 16
  let find t aid = Aid.Tbl.find_opt t aid
  let add_if_absent t aid state = if not (Aid.Tbl.mem t aid) then Aid.Tbl.replace t aid state

  let to_list t =
    Aid.Tbl.fold (fun aid s acc -> (aid, s) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> Aid.compare a b)

  let pp_state fmt = function
    | Prepared -> Format.pp_print_string fmt "prepared"
    | Committed -> Format.pp_print_string fmt "committed"
    | Aborted -> Format.pp_print_string fmt "aborted"
end

module Ct = struct
  type state = Committing of Gid.t list | Done
  type t = state Aid.Tbl.t

  let create () = Aid.Tbl.create 16
  let find t aid = Aid.Tbl.find_opt t aid
  let add_if_absent t aid state = if not (Aid.Tbl.mem t aid) then Aid.Tbl.replace t aid state

  let to_list t =
    Aid.Tbl.fold (fun aid s acc -> (aid, s) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> Aid.compare a b)

  let pp_state fmt = function
    | Committing gids ->
        Format.fprintf fmt "committing{%a}"
          (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f ",") Gid.pp)
          gids
    | Done -> Format.pp_print_string fmt "done"
end

module Ot = struct
  type state = Prepared | Restored

  type entry = {
    mutable state : state;
    kind : Log_entry.otype;
    mutable vm : Rs_objstore.Value.addr;
    mutable src : int;
  }

  type t = entry Uid.Tbl.t

  let create () = Uid.Tbl.create 64
  let find t uid = Uid.Tbl.find_opt t uid
  let add t uid state ~kind ~vm ~src = Uid.Tbl.replace t uid { state; kind; vm; src }

  let to_list t =
    Uid.Tbl.fold (fun uid e acc -> (uid, e) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> Uid.compare a b)

  let mutexes t =
    List.filter_map (fun (uid, e) -> if e.kind = Log_entry.Mutex then Some (uid, e.src) else None) (to_list t)

  let max_uid t =
    Uid.Tbl.fold (fun uid _ acc -> if Uid.compare uid acc > 0 then uid else acc) t
      Uid.stable_vars

  let size t = Uid.Tbl.length t
end

module Recovery_info = struct
  type t = {
    pt : (Aid.t * Pt.state) list;
    ct : (Aid.t * Ct.state) list;
    objects : (Uid.t * Rs_objstore.Value.addr) list;
    entries_processed : int;
  }

  let prepared_actions t =
    List.filter_map (function aid, Pt.Prepared -> Some aid | _, (Pt.Committed | Pt.Aborted) -> None) t.pt

  let committing_actions t =
    List.filter_map
      (fun (aid, s) ->
        match s with Ct.Committing gids -> Some (aid, gids) | Ct.Done -> None)
      t.ct

  let pp fmt t =
    Format.fprintf fmt "@[<v>PT:@,";
    List.iter (fun (aid, s) -> Format.fprintf fmt "  %a %a@," Aid.pp aid Pt.pp_state s) t.pt;
    Format.fprintf fmt "CT:@,";
    List.iter (fun (aid, s) -> Format.fprintf fmt "  %a %a@," Aid.pp aid Ct.pp_state s) t.ct;
    Format.fprintf fmt "OT:@,";
    List.iter (fun (uid, vm) -> Format.fprintf fmt "  %a restored @@%d@," Uid.pp uid vm) t.objects;
    Format.fprintf fmt "@]"
end

module Recovery_report = struct
  type t = { info : Recovery_info.t; repairs : int; segments_swept : int }

  let entries_processed t = t.info.Recovery_info.entries_processed
  let prepared_actions t = Recovery_info.prepared_actions t.info
  let committing_actions t = Recovery_info.committing_actions t.info

  (* The storage layers already count their recovery-time side work in
     the default metrics registry; one recovery's contribution is the
     delta across the wrapped call. *)
  let measure f =
    let counter name =
      Option.value ~default:0 (Rs_obs.Metrics.find_counter Rs_obs.Metrics.default name)
    in
    let repairs0 = counter "stable_store.repairs" in
    let swept0 = counter "slog.orphan_segments_swept" in
    let x, info = f () in
    ( x,
      {
        info;
        repairs = counter "stable_store.repairs" - repairs0;
        segments_swept = counter "slog.orphan_segments_swept" - swept0;
      } )

  let pp fmt t =
    Format.fprintf fmt
      "recovery: %d entries processed, %d prepared, %d committing, %d replica repairs, %d \
       segments swept"
      (entries_processed t)
      (List.length (prepared_actions t))
      (List.length (committing_actions t))
      t.repairs t.segments_swept
end
