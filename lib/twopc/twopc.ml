module Aid = Rs_util.Aid
module Gid = Rs_util.Gid
module Sim = Rs_sim.Sim
module Metrics = Rs_obs.Metrics
module Trace = Rs_obs.Trace

type msg =
  | Prepare of Aid.t
  | Prepared_reply of Aid.t
  | Refused_reply of Aid.t
  | Commit of Aid.t
  | Committed_ack of Aid.t
  | Abort of Aid.t
  | Aborted_ack of Aid.t
  | Query of Aid.t

let msg_kind = function
  | Prepare _ -> "prepare"
  | Prepared_reply _ -> "prepared"
  | Refused_reply _ -> "refused"
  | Commit _ -> "commit"
  | Committed_ack _ -> "committed"
  | Abort _ -> "abort"
  | Aborted_ack _ -> "aborted"
  | Query _ -> "query"

let msg_aid = function
  | Prepare a
  | Prepared_reply a
  | Refused_reply a
  | Commit a
  | Committed_ack a
  | Abort a
  | Aborted_ack a
  | Query a ->
      a

let msg_to_string m = String.concat "" [ msg_kind m; "("; Aid.to_string (msg_aid m); ")" ]
let pp_msg fmt m = Format.pp_print_string fmt (msg_to_string m)

let m_retries = Metrics.counter "twopc.retries"

(* How long a coordinator waits for prepare replies before aborting
   unilaterally, and the re-send/query period of the committing phase and
   of prepared participants, in virtual time. *)
let prepare_timeout = 10.0
let retry_interval = 5.0

let m_prepare_timeouts = Metrics.counter "twopc.prepare_timeouts"

type hooks = {
  on_prepare : force:bool -> Aid.t -> [ `Prepared | `Refused ];
  on_commit : Aid.t -> unit;
  on_abort : Aid.t -> unit;
  on_committing : Aid.t -> Gid.t list -> unit;
  on_done : Aid.t -> unit;
  coordinator_outcome : Aid.t -> [ `Commit | `Abort ];
}

type coord_phase =
  | Preparing of { mutable waiting : Gid.Set.t }
  | Deciding
      (* Committing record written but its covering force not yet stable:
         the decision exists only in volatile memory, so nothing may be
         announced — not even a query answer, or a crash before the force
         would split the participants (Lindsay's hazard, one force later). *)
  | Committing of { mutable waiting : Gid.Set.t }
  | Aborting

type coord = {
  participants : Gid.t list;
  mutable phase : coord_phase;
  on_result : [ `Committed | `Aborted ] -> unit;
  mutable reported : bool;
}

(* Participant-side volatile state for actions between prepared and
   verdict. After a crash this is rebuilt by [await_verdict]. The verdict
   applied is remembered so that a contradictory verdict is detected
   instead of silently acknowledged. *)
type part_state = Part_prepared | Part_committed | Part_aborted

type t = {
  gid : Gid.t;
  sim : Sim.t;
  send : src:Gid.t -> dst:Gid.t -> msg -> unit;
  hooks : hooks;
  await_durable : (unit -> unit) -> unit;
      (* [await_durable k] runs [k] once every log record written so far
         is covered by a stable force. The default runs [k] immediately
         (hooks force synchronously); a guardian with a group-commit
         window passes its scheduler's [enqueue] so protocol messages
         that announce an outcome wait for the covering batch. *)
  coords : coord Aid.Tbl.t;
      (* unfinished actions only: one whose done record is written, or
         whose aborts are sent, leaves, and is answered from stable state *)
  parts : part_state Aid.Tbl.t;
  mutable stopped : bool;
}

let create ~gid ~sim ~send ~hooks ?(await_durable = fun k -> k ()) () =
  {
    gid;
    sim;
    send;
    hooks;
    await_durable;
    coords = Aid.Tbl.create 8;
    parts = Aid.Tbl.create 8;
    stopped = false;
  }

let gid t = t.gid
let coordinating t = Aid.Tbl.length t.coords

(* Self-test mutation (see [set_lazy_prepare]): every prepare takes the
   coordinator's-own-share path, remote ones included. *)
let lazy_prepare = ref false

let set_lazy_prepare b = lazy_prepare := b

(* [send_as t ~self] sends speaking as [self] — normally [t.gid], but a
   guardian answering mail addressed to a gid it took over (failover
   promotion) must reply under that name, or the peer's per-gid waiting
   sets never recognise the ack. *)
let send_as t ~self ~dst msg =
  if Trace.recording () then
    Trace.emit
      (Trace.Twopc_send
         { src = Gid.to_string self; dst = Gid.to_string dst; msg = msg_to_string msg })
  else Trace.skip ();
  t.send ~src:self ~dst msg

let send_msg t ~dst msg = send_as t ~self:t.gid ~dst msg

let note_recv t ~src msg =
  if Trace.recording () then
    Trace.emit
      (Trace.Twopc_recv
         { src = Gid.to_string src; dst = Gid.to_string t.gid; msg = msg_to_string msg })
  else Trace.skip ()

let stop t =
  t.stopped <- true;
  Aid.Tbl.reset t.coords;
  Aid.Tbl.reset t.parts

let report coord verdict =
  if not coord.reported then begin
    coord.reported <- true;
    coord.on_result verdict
  end

(* Coordinator: enter phase two — the committing record is the commit
   point (§2.2.1), but only once its covering force is stable. Until then
   the coordinator sits in [Deciding]: no client report, no commit
   messages, no query answers. A crash in the gap loses the record and
   recovery presumes abort, which is consistent precisely because nothing
   was announced. *)
let begin_committing t aid coord =
  t.hooks.on_committing aid coord.participants;
  coord.phase <- Deciding;
  t.await_durable (fun () ->
      let still_current =
        match Aid.Tbl.find_opt t.coords aid with Some c -> c == coord | None -> false
      in
      if (not t.stopped) && still_current && coord.phase = Deciding then begin
        let waiting = Gid.Set.of_list coord.participants in
        coord.phase <- Committing { waiting };
        report coord `Committed;
        List.iter (fun g -> send_msg t ~dst:g (Commit aid)) coord.participants;
        (* Re-send until everyone acknowledges; commit can never be undone. *)
        let rec retry () =
          if not t.stopped then
            match Aid.Tbl.find_opt t.coords aid with
            | Some { phase = Committing { waiting }; _ } when not (Gid.Set.is_empty waiting) ->
                Metrics.incr m_retries;
                Gid.Set.iter (fun g -> send_msg t ~dst:g (Commit aid)) waiting;
                Sim.schedule t.sim ~delay:retry_interval retry
            | Some _ | None -> ()
        in
        Sim.schedule t.sim ~delay:retry_interval retry
      end)

let begin_aborting t aid coord =
  coord.phase <- Aborting;
  report coord `Aborted;
  List.iter (fun g -> send_msg t ~dst:g (Abort aid)) coord.participants;
  (* Aborts need no acknowledgement barrier: participants that missed the
     message resolve through queries. *)
  Aid.Tbl.remove t.coords aid

let start_commit t aid ~participants ~on_result =
  if t.stopped then invalid_arg "Twopc.start_commit: stopped endpoint";
  let coord =
    { participants; phase = Preparing { waiting = Gid.Set.of_list participants }; on_result; reported = false }
  in
  Aid.Tbl.replace t.coords aid coord;
  List.iter (fun g -> send_msg t ~dst:g (Prepare aid)) participants;
  (* Unilateral abort if the preparing phase stalls (§2.2.1). *)
  Sim.schedule t.sim ~delay:prepare_timeout (fun () ->
      if not t.stopped then
        match Aid.Tbl.find_opt t.coords aid with
        | Some ({ phase = Preparing _; _ } as c) ->
            Metrics.incr m_prepare_timeouts;
            begin_aborting t aid c
        | Some _ | None -> ())

let resume_coordinator t aid participants =
  if not t.stopped then begin
    let coord =
      {
        participants;
        phase = Committing { waiting = Gid.Set.of_list participants };
        on_result = (fun _ -> ());
        reported = true;
      }
    in
    Aid.Tbl.replace t.coords aid coord;
    (* Some participants may already have committed; their re-acks drain
       the waiting set. *)
    List.iter (fun g -> send_msg t ~dst:g (Commit aid)) participants;
    let rec retry () =
      if not t.stopped then
        match Aid.Tbl.find_opt t.coords aid with
        | Some { phase = Committing { waiting }; _ } when not (Gid.Set.is_empty waiting) ->
            Metrics.incr m_retries;
            Gid.Set.iter (fun g -> send_msg t ~dst:g (Commit aid)) waiting;
            Sim.schedule t.sim ~delay:retry_interval retry
        | Some _ | None -> ()
    in
    Sim.schedule t.sim ~delay:retry_interval retry
  end

let await_verdict t aid ~coordinator =
  if not t.stopped then begin
    Aid.Tbl.replace t.parts aid Part_prepared;
    let rec query () =
      if not t.stopped then
        match Aid.Tbl.find_opt t.parts aid with
        | Some Part_prepared ->
            send_msg t ~dst:coordinator (Query aid);
            Sim.schedule t.sim ~delay:retry_interval query
        | Some (Part_committed | Part_aborted) | None -> ()
    in
    query ()
  end

(* Participant message handling. *)

(* The ack rides [await_durable] whenever this endpoint applied the
   commit — including duplicates, whose first ack may itself still be
   waiting on the covering force. An action not prepared here committed
   durably before a crash (only a prepared action can be committed, and
   recovery re-lists the ones still prepared): its coordinator re-sent the
   verdict, so the ack goes out as it stands, and applying it again would
   write a second committed record for an action the heap no longer has. *)
let part_commit t ~self aid =
  let ack () =
    if not t.stopped then send_as t ~self ~dst:(Aid.coordinator aid) (Committed_ack aid)
  in
  match Aid.Tbl.find_opt t.parts aid with
  | None -> ack ()
  | Some Part_aborted ->
      failwith
        (Format.asprintf "Twopc: %a received commit after aborting %a" Gid.pp t.gid Aid.pp aid)
  | Some Part_committed -> t.await_durable ack (* duplicate commit: already applied *)
  | Some Part_prepared ->
      t.hooks.on_commit aid;
      Aid.Tbl.replace t.parts aid Part_committed;
      t.await_durable ack

let part_abort t ~self aid =
  (match Aid.Tbl.find_opt t.parts aid with
  | Some Part_aborted -> ()
  | Some Part_committed ->
      failwith
        (Format.asprintf "Twopc: %a received abort after committing %a" Gid.pp t.gid Aid.pp aid)
  | Some Part_prepared | None -> t.hooks.on_abort aid);
  Aid.Tbl.replace t.parts aid Part_aborted;
  t.await_durable (fun () ->
      if not t.stopped then send_as t ~self ~dst:(Aid.coordinator aid) (Aborted_ack aid))

let handle ?self t ~src msg =
  (* [self] is the gid this message was addressed to: the endpoint's own
     gid normally, or a taken-over gid when a promoted heir answers its
     dead primary's mail. Replies and acks go out under that name so the
     peer's per-gid bookkeeping (waiting sets keyed by the gid it wrote
     to) recognises them. *)
  let self = match self with Some g -> g | None -> t.gid in
  note_recv t ~src msg;
  if not t.stopped then
    match msg with
    | Prepare aid -> (
        (* The coordinator's own share needs no force of its own: its
           committing record goes into this same log later, and that
           record's covering force covers this prepared record too. A
           crash before it loses both, and presumed abort resolves the
           action. *)
        let own = Gid.equal src t.gid || !lazy_prepare in
        match t.hooks.on_prepare ~force:(not own) aid with
        | `Prepared ->
            Aid.Tbl.replace t.parts aid Part_prepared;
            let reply () =
              if not t.stopped then begin
                send_as t ~self ~dst:src (Prepared_reply aid);
                (* If the verdict never arrives (lost message,
                   coordinator crash), start querying. *)
                let rec query () =
                  if not t.stopped then
                    match Aid.Tbl.find_opt t.parts aid with
                    | Some Part_prepared ->
                        send_as t ~self ~dst:(Aid.coordinator aid) (Query aid);
                        Sim.schedule t.sim ~delay:retry_interval query
                    | Some (Part_committed | Part_aborted) | None -> ()
                in
                Sim.schedule t.sim ~delay:(2.0 *. retry_interval) query
              end
            in
            (* A remote participant's reply promises the prepared record
               survives a crash: it must wait for the record's covering
               force. A crash in the gap sends no reply, the coordinator
               times out, and presumed abort resolves the action. *)
            if own then reply () else t.await_durable reply
        | `Refused -> send_as t ~self ~dst:src (Refused_reply aid))
    | Prepared_reply aid -> (
        match Aid.Tbl.find_opt t.coords aid with
        | Some ({ phase = Preparing p; _ } as coord) ->
            p.waiting <- Gid.Set.remove src p.waiting;
            if Gid.Set.is_empty p.waiting then begin_committing t aid coord
        | Some _ | None -> ())
    | Refused_reply aid -> (
        match Aid.Tbl.find_opt t.coords aid with
        | Some ({ phase = Preparing _; _ } as coord) -> begin_aborting t aid coord
        | Some _ | None -> ())
    | Commit aid -> part_commit t ~self aid
    | Abort aid -> part_abort t ~self aid
    | Committed_ack aid -> (
        match Aid.Tbl.find_opt t.coords aid with
        | Some { phase = Committing c; _ } ->
            c.waiting <- Gid.Set.remove src c.waiting;
            if Gid.Set.is_empty c.waiting then begin
              t.hooks.on_done aid;
              Aid.Tbl.remove t.coords aid
            end
        | Some _ | None -> ())
    | Aborted_ack _ -> ()
    | Query aid -> (
        (* A query must be answered from the LIVE protocol state first: an
           action still in its preparing phase is undecided, and answering
           abort now while committing later would split the participants
           (the oversight Lindsay pointed out in the thesis's 2PC
           discussion). Undecided queries get no answer; the participant
           retries. Only absent actions are answered from stable state,
           where unknown means abort (§2.2.3). *)
        match Aid.Tbl.find_opt t.coords aid with
        | Some { phase = Preparing _; _ } -> ()
        | Some { phase = Deciding; _ } ->
            () (* decision not yet durable: still undecided to the world *)
        | Some { phase = Committing _; _ } -> send_as t ~self ~dst:src (Commit aid)
        | Some { phase = Aborting; _ } -> send_as t ~self ~dst:src (Abort aid)
        | None -> (
            match t.hooks.coordinator_outcome aid with
            | `Commit -> send_as t ~self ~dst:src (Commit aid)
            | `Abort -> send_as t ~self ~dst:src (Abort aid)))
