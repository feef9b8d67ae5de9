module Uid = Rs_util.Uid
module Aid = Rs_util.Aid
module Log = Rs_slog.Stable_log
module Log_dir = Rs_slog.Log_dir

type issue = { addr : Log_entry.addr option; what : string }

let pp_issue fmt i =
  match i.addr with
  | Some a -> Format.fprintf fmt "L%d: %s" a i.what
  | None -> Format.fprintf fmt "log: %s" i.what

let issue ?addr what = { addr; what }
let issuef ?addr fmt = Format.kasprintf (fun what -> issue ?addr what) fmt

(* Decode every forced entry, newest first. *)
let decode_all log =
  match Log.get_top log with
  | None -> ([], [])
  | Some top ->
      Seq.fold_left
        (fun (entries, issues) (a, raw) ->
          match Log_entry.decode raw with
          | e -> ((a, e) :: entries, issues)
          | exception Rs_util.Codec.Error msg ->
              (entries, issuef ~addr:a "undecodable entry: %s" msg :: issues))
        ([], []) (Log.read_backward log top)
(* [entries] comes out oldest-first. *)

let is_data log a =
  match Log_entry.decode (Log.read log a) with
  | Log_entry.Data _ -> true
  | Log_entry.Prepared _ | Log_entry.Committed _ | Log_entry.Aborted _
  | Log_entry.Committing _ | Log_entry.Done _ | Log_entry.Base_committed _
  | Log_entry.Prepared_data _ | Log_entry.Committed_ss _ ->
      false
  | exception Rs_util.Codec.Error _ -> false
  | exception Invalid_argument _ -> false

let check_pairs log ~at pairs issues =
  List.fold_left
    (fun issues (uid, a) ->
      if a >= at then
        issuef ~addr:at "pair %a -> L%d points forward" Uid.pp uid a :: issues
      else if not (is_data log a) then
        issuef ~addr:at "pair %a -> L%d is not a data entry" Uid.pp uid a :: issues
      else issues)
    issues pairs

let check_cssl_duplicates log ~at cssl issues =
  let seen_atomic = Uid.Tbl.create 16 in
  List.fold_left
    (fun issues (uid, a) ->
      if a < at && is_data log a then
        match Log_entry.decode (Log.read log a) with
        | Log_entry.Data { otype = Log_entry.Atomic; _ } ->
            if Uid.Tbl.mem seen_atomic uid then
              issuef ~addr:at "CSSL has duplicate atomic uid %a" Uid.pp uid :: issues
            else begin
              Uid.Tbl.replace seen_atomic uid ();
              issues
            end
        | _ -> issues
      else issues)
    issues cssl

(* Per-action protocol-order accounting over an oldest-first entry list. *)
let check_action_order entries issues =
  let prepared = Aid.Tbl.create 16 in
  let resolved = Aid.Tbl.create 16 in
  let committing = Aid.Tbl.create 16 in
  List.fold_left
    (fun issues (a, e) ->
      match e with
      | Log_entry.Prepared { aid; _ } ->
          Aid.Tbl.replace prepared aid ();
          issues
      | Log_entry.Prepared_data { aid; _ } ->
          Aid.Tbl.replace prepared aid ();
          issues
      | Log_entry.Committed { aid; _ } -> (
          match Aid.Tbl.find_opt resolved aid with
          | Some `Aborted -> issuef ~addr:a "%a committed after aborted" Aid.pp aid :: issues
          | Some `Committed | None ->
              Aid.Tbl.replace resolved aid `Committed;
              if not (Aid.Tbl.mem prepared aid) then
                issuef ~addr:a "%a committed without prepared" Aid.pp aid :: issues
              else issues)
      | Log_entry.Aborted { aid; _ } -> (
          match Aid.Tbl.find_opt resolved aid with
          | Some `Committed -> issuef ~addr:a "%a aborted after committed" Aid.pp aid :: issues
          | Some `Aborted | None ->
              Aid.Tbl.replace resolved aid `Aborted;
              issues)
      | Log_entry.Committing { aid; _ } ->
          Aid.Tbl.replace committing aid ();
          issues
      | Log_entry.Done { aid; _ } ->
          if not (Aid.Tbl.mem committing aid) then
            issuef ~addr:a "%a done without committing" Aid.pp aid :: issues
          else issues
      | Log_entry.Data _ | Log_entry.Base_committed _ | Log_entry.Committed_ss _ -> issues)
    issues entries

(* The backward chain: every outcome entry's prev strictly decreases and
   lands on another outcome entry. *)
let check_chain_structure log entries issues =
  let outcome_addrs =
    List.filter_map (fun (a, e) -> if Log_entry.is_outcome e then Some a else None) entries
  in
  let outcome_set = Hashtbl.create (List.length outcome_addrs) in
  List.iter (fun a -> Hashtbl.replace outcome_set a ()) outcome_addrs;
  let is_outcome_addr a = Hashtbl.mem outcome_set a in
  List.fold_left
    (fun issues (a, e) ->
      match Log_entry.prev e with
      | None -> issues
      | Some p ->
          if p >= a then issuef ~addr:a "chain pointer L%d not backward" p :: issues
          else if not (is_outcome_addr p) then
            issuef ~addr:a "chain pointer L%d is not an outcome entry" p :: issues
          else issues)
    issues entries
  |> fun issues ->
  (* The head must reach nil without cycles (strict decrease guarantees
     termination; verify reachability decodes cleanly). *)
  match List.rev outcome_addrs with
  | [] -> issues
  | head :: _ ->
      let rec walk a seen issues =
        if List.length seen > List.length entries then
          issue ~addr:a "chain longer than the log (cycle?)" :: issues
        else
          match Log_entry.decode (Log.read log a) with
          | e -> (
              match Log_entry.prev e with
              | None -> issues
              | Some p ->
                  if is_outcome_addr p then walk p (a :: seen) issues
                  else issuef ~addr:a "chain pointer L%d unresolvable" p :: issues)
          | exception Rs_util.Codec.Error msg ->
              issuef ~addr:a "chain hits undecodable entry: %s" msg :: issues
          | exception Invalid_argument msg ->
              issuef ~addr:a "chain hits invalid address: %s" msg :: issues
      in
      walk head [] issues

let check_log log =
  let entries, issues = decode_all log in
  let issues = check_action_order entries issues in
  let issues = check_chain_structure log entries issues in
  let issues =
    List.fold_left
      (fun issues (a, e) ->
        match e with
        | Log_entry.Prepared { pairs = Some pairs; _ } -> check_pairs log ~at:a pairs issues
        | Log_entry.Committed_ss { cssl; _ } ->
            check_pairs log ~at:a cssl issues |> check_cssl_duplicates log ~at:a cssl
        | Log_entry.Prepared { pairs = None; _ }
        | Log_entry.Data _ | Log_entry.Committed _ | Log_entry.Aborted _
        | Log_entry.Committing _ | Log_entry.Done _ | Log_entry.Base_committed _
        | Log_entry.Prepared_data _ ->
            issues)
      issues entries
  in
  List.rev issues

(* Segment-chain fsck for a segmented log directory: the current log's
   segment table must tile exactly the live stream, every linked segment
   store must exist and carry a self-description agreeing with the table,
   and the pool registry must hold nothing unreachable (outside the crash
   windows [Log_dir.open_] sweeps). *)
let check_segments dir =
  let seg_pages = Log_dir.segment_pages dir in
  let log = Log_dir.current dir in
  let page_size = Log.page_size log in
  let cap = seg_pages * page_size in
  let table = Log.segment_table log in
  let low_water = Log.low_water log in
  let forced = Log.stream_bytes log in
  let issues = ref [] in
  let add ?addr fmt = Format.kasprintf (fun what -> issues := issue ?addr what :: !issues) fmt in
  (* Table shape: strictly ascending indices (which also rules out
     duplicates) and no id linked twice. *)
  let rec shape = function
    | (i1, _) :: ((i2, _) :: _ as rest) ->
        if i2 <= i1 then add "segment table indices not ascending (%d then %d)" i1 i2;
        shape rest
    | [ _ ] | [] -> ()
  in
  shape table;
  let ids = List.map snd table in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    add "segment table links some segment id twice";
  (* Coverage: every stream page in the live region has a segment. *)
  if forced > low_water then begin
    let lo = low_water / cap and hi = (forced - 1) / cap in
    for idx = lo to hi do
      if not (List.mem_assoc idx table) then
        add ~addr:(idx * cap) "live stream range has no segment for index %d" idx
    done
  end;
  (* Retirement completeness: a wholly-dead segment stays linked only if
     it is the tail (it still backs the next force's read-modify-write). *)
  let max_idx = List.fold_left (fun m (i, _) -> max m i) (-1) table in
  List.iter
    (fun (idx, id) ->
      if ((idx + 1) * cap) <= low_water && idx <> max_idx then
        add ~addr:(idx * cap) "segment %d (index %d) wholly below low-water yet linked" id idx)
    table;
  (* Every linked segment resolves in the pool and describes itself
     consistently with its table slot. *)
  List.iter
    (fun (idx, id) ->
      match Log_dir.segment_store dir id with
      | None -> add ~addr:(idx * cap) "table links segment %d but it is not in the pool" id
      | Some store -> (
          match Rs_storage.Stable_store.get store 0 with
          | None -> add ~addr:(idx * cap) "segment %d has no header page" id
          | Some raw -> (
              match Log.decode_segment_header raw with
              | exception Rs_util.Codec.Error msg ->
                  add ~addr:(idx * cap) "segment %d header undecodable: %s" id msg
              | h ->
                  if h.Log.seg_id <> id then
                    add ~addr:(idx * cap) "segment %d header claims id %d" id h.Log.seg_id;
                  if h.Log.seg_index <> idx then
                    add ~addr:(idx * cap) "segment %d header claims index %d, table says %d"
                      id h.Log.seg_index idx;
                  if h.Log.seg_base <> idx * cap then
                    add ~addr:(idx * cap) "segment %d header base %d, expected %d" id
                      h.Log.seg_base (idx * cap);
                  if h.Log.seg_page_size <> page_size then
                    add ~addr:(idx * cap) "segment %d page size %d, log uses %d" id
                      h.Log.seg_page_size page_size;
                  if h.Log.seg_pages <> seg_pages then
                    add ~addr:(idx * cap) "segment %d sized %d pages, log uses %d" id
                      h.Log.seg_pages seg_pages;
                  (match (h.Log.seg_prev_id, List.assoc_opt (idx - 1) table) with
                  | Some p, Some q when p <> q ->
                      add ~addr:(idx * cap)
                        "segment %d back link names %d, table names %d for index %d" id p q
                        (idx - 1)
                  | None, Some q ->
                      add ~addr:(idx * cap)
                        "segment %d has no back link but index %d is live as %d" id (idx - 1) q
                  | (Some _ | None), _ -> ()))))
    table;
  (* Reachability: nothing in the pool registry outside the current
     log's table and (mid-housekeeping) the pending log's. *)
  let reachable =
    ids @ (match Log_dir.pending_log dir with None -> [] | Some l -> List.map snd (Log.segment_table l))
  in
  List.iter
    (fun id ->
      if not (List.mem id reachable) then add "orphan segment %d in the pool registry" id)
    (Log_dir.segment_ids dir);
  List.rev !issues
