(* Unit tests for the 2PC protocol engine in isolation: scripted hooks,
   direct message feeding, inspectable side effects — no guardians, no
   recovery system. *)

module Twopc = Rs_twopc.Twopc
module Sim = Rs_sim.Sim
module Net = Rs_sim.Net
module Aid = Rs_util.Aid
module Gid = Rs_util.Gid

let g = Gid.of_int
let aid ?(c = 0) n = Aid.make ~coordinator:(g c) ~seq:n

(* Trace payloads carry [msg_to_string]; the spec monitors and the
   benchmark parse that text, so it must keep the "<kind>(T<c>.<seq>)"
   form, and [pp_msg] must print the same. *)
let test_msg_rendering () =
  let a = Aid.make ~coordinator:(g 3) ~seq:41 in
  List.iter
    (fun (kind, m) ->
      let expect = Printf.sprintf "%s(T3.41)" kind in
      Alcotest.(check string) kind expect (Twopc.msg_to_string m);
      Alcotest.(check string) (kind ^ " via pp") expect (Format.asprintf "%a" Twopc.pp_msg m))
    [
      ("prepare", Twopc.Prepare a);
      ("prepared", Twopc.Prepared_reply a);
      ("refused", Twopc.Refused_reply a);
      ("commit", Twopc.Commit a);
      ("committed", Twopc.Committed_ack a);
      ("abort", Twopc.Abort a);
      ("aborted", Twopc.Aborted_ack a);
      ("query", Twopc.Query a);
    ]

(* A recording endpoint: every hook call and outgoing message is logged. *)
type probe = {
  endpoint : Twopc.t;
  events : string list ref;
  sent : (Gid.t * Twopc.msg) list ref;
}

let probe ~gid ~sim ?(prepare_result = `Prepared) ?(outcome = `Abort) ?await_durable () =
  let events = ref [] in
  let sent = ref [] in
  let log fmt = Format.kasprintf (fun s -> events := s :: !events) fmt in
  let hooks : Twopc.hooks =
    {
      on_prepare =
        (fun ~force a ->
          log "prepare %a" Aid.pp a;
          log "prepare %a force=%b" Aid.pp a force;
          prepare_result);
      on_commit = (fun a -> log "commit %a" Aid.pp a);
      on_abort = (fun a -> log "abort %a" Aid.pp a);
      on_committing = (fun a _ -> log "committing %a" Aid.pp a);
      on_done = (fun a -> log "done %a" Aid.pp a);
      coordinator_outcome = (fun _ -> outcome);
    }
  in
  let endpoint =
    Twopc.create ~gid ~sim
      ~send:(fun ~src:_ ~dst msg -> sent := (dst, msg) :: !sent)
      ~hooks ?await_durable ()
  in
  { endpoint; events; sent }

let has_event p s = List.exists (fun e -> e = s) !(p.events)

let pop_sent p =
  let l = List.rev !(p.sent) in
  p.sent := [];
  l

let test_participant_prepare_commit () =
  let sim = Sim.create () in
  let p = probe ~gid:(g 1) ~sim () in
  let a = aid 0 in
  Twopc.handle p.endpoint ~src:(g 0) (Twopc.Prepare a);
  Alcotest.(check bool) "on_prepare ran" true (has_event p "prepare T0.0");
  (match pop_sent p with
  | [ (dst, Twopc.Prepared_reply a') ] ->
      Alcotest.(check bool) "reply to coordinator" true (Gid.equal dst (g 0) && Aid.equal a a')
  | _ -> Alcotest.fail "expected one prepared reply");
  Twopc.handle p.endpoint ~src:(g 0) (Twopc.Commit a);
  Alcotest.(check bool) "on_commit ran" true (has_event p "commit T0.0");
  (match pop_sent p with
  | [ (_, Twopc.Committed_ack _) ] -> ()
  | _ -> Alcotest.fail "expected committed ack");
  (* Duplicate commit is acked but not re-applied. *)
  Twopc.handle p.endpoint ~src:(g 0) (Twopc.Commit a);
  Alcotest.(check int) "commit applied once" 1
    (List.length (List.filter (( = ) "commit T0.0") !(p.events)))

(* A participant that is not prepared — it committed durably, crashed, and
   its recovered coordinator re-sent the verdict — acks without applying
   the commit a second time. *)
let test_commit_unprepared_acked () =
  let sim = Sim.create () in
  let p = probe ~gid:(g 1) ~sim () in
  Twopc.handle p.endpoint ~src:(g 0) (Twopc.Commit (aid 0));
  (match pop_sent p with
  | [ (dst, Twopc.Committed_ack _) ] ->
      Alcotest.(check bool) "ack to coordinator" true (Gid.equal dst (g 0))
  | _ -> Alcotest.fail "expected one committed ack");
  Alcotest.(check bool) "on_commit not called" false (has_event p "commit T0.0")

(* [await_durable] that holds every continuation until the test releases
   it: a covering force that has not happened yet. *)
let deferred () =
  let q = Queue.create () in
  ((fun k -> Queue.add k q), (fun () -> Queue.length q), fun () -> Queue.iter (fun k -> k ()) q)

(* The coordinator's own share is written unforced and answered at once;
   a remote participant forces and replies only once the force is stable. *)
let test_self_prepare () =
  let sim = Sim.create () in
  let await_durable, waiting, _ = deferred () in
  let c = probe ~gid:(g 0) ~sim ~await_durable () in
  Twopc.handle c.endpoint ~src:(g 0) (Twopc.Prepare (aid 0));
  Alcotest.(check bool) "self-prepare unforced" true (has_event c "prepare T0.0 force=false");
  Alcotest.(check int) "no durability wait" 0 (waiting ());
  (match pop_sent c with
  | [ (dst, Twopc.Prepared_reply _) ] ->
      Alcotest.(check bool) "reply to self" true (Gid.equal dst (g 0))
  | _ -> Alcotest.fail "expected an immediate prepared reply");
  let await_durable, waiting, release = deferred () in
  let p = probe ~gid:(g 1) ~sim ~await_durable () in
  Twopc.handle p.endpoint ~src:(g 0) (Twopc.Prepare (aid 0));
  Alcotest.(check bool) "remote prepare forced" true (has_event p "prepare T0.0 force=true");
  Alcotest.(check int) "reply waits for the force" 1 (waiting ());
  Alcotest.(check int) "nothing sent before the force" 0 (List.length (pop_sent p));
  release ();
  match pop_sent p with
  | [ (_, Twopc.Prepared_reply _) ] -> ()
  | _ -> Alcotest.fail "expected the prepared reply after the force"

(* A finished action leaves the coordinator's table, committed or aborted. *)
let test_coordinator_forgets () =
  let sim = Sim.create () in
  let c = probe ~gid:(g 0) ~sim () in
  let a = aid 0 and b = aid 1 in
  Twopc.start_commit c.endpoint a ~participants:[ g 1 ] ~on_result:ignore;
  Twopc.start_commit c.endpoint b ~participants:[ g 1 ] ~on_result:ignore;
  Alcotest.(check int) "two in flight" 2 (Twopc.coordinating c.endpoint);
  Twopc.handle c.endpoint ~src:(g 1) (Twopc.Prepared_reply a);
  Twopc.handle c.endpoint ~src:(g 1) (Twopc.Committed_ack a);
  Twopc.handle c.endpoint ~src:(g 1) (Twopc.Refused_reply b);
  Alcotest.(check int) "both forgotten" 0 (Twopc.coordinating c.endpoint);
  ignore (pop_sent c);
  (* A forgotten action is answered from stable state. *)
  Twopc.handle c.endpoint ~src:(g 1) (Twopc.Query b);
  match pop_sent c with
  | [ (_, Twopc.Abort _) ] -> ()
  | _ -> Alcotest.fail "expected abort answer"

let test_participant_refuses_unknown () =
  let sim = Sim.create () in
  let p = probe ~gid:(g 1) ~sim ~prepare_result:`Refused () in
  Twopc.handle p.endpoint ~src:(g 0) (Twopc.Prepare (aid 0));
  match pop_sent p with
  | [ (_, Twopc.Refused_reply _) ] -> ()
  | _ -> Alcotest.fail "expected refused reply"

let test_commit_after_abort_detected () =
  let sim = Sim.create () in
  let p = probe ~gid:(g 1) ~sim () in
  let a = aid 0 in
  Twopc.handle p.endpoint ~src:(g 0) (Twopc.Prepare a);
  Twopc.handle p.endpoint ~src:(g 0) (Twopc.Abort a);
  Alcotest.(check bool) "raises on contradictory verdict" true
    (match Twopc.handle p.endpoint ~src:(g 0) (Twopc.Commit a) with
    | () -> false
    | exception Failure _ -> true)

let test_coordinator_happy_path () =
  let sim = Sim.create () in
  let c = probe ~gid:(g 0) ~sim () in
  let a = aid 0 in
  let verdict = ref None in
  Twopc.start_commit c.endpoint a ~participants:[ g 1; g 2 ] ~on_result:(fun v -> verdict := Some v);
  (match pop_sent c with
  | [ (d1, Twopc.Prepare _); (d2, Twopc.Prepare _) ] ->
      Alcotest.(check bool) "prepares to both" true
        (List.sort compare [ Gid.to_int d1; Gid.to_int d2 ] = [ 1; 2 ])
  | _ -> Alcotest.fail "expected two prepares");
  Twopc.handle c.endpoint ~src:(g 1) (Twopc.Prepared_reply a);
  Alcotest.(check bool) "still preparing" true (!verdict = None);
  Twopc.handle c.endpoint ~src:(g 2) (Twopc.Prepared_reply a);
  Alcotest.(check bool) "committing record written" true (has_event c "committing T0.0");
  Alcotest.(check bool) "verdict reported" true (!verdict = Some `Committed);
  (match pop_sent c with
  | [ (_, Twopc.Commit _); (_, Twopc.Commit _) ] -> ()
  | _ -> Alcotest.fail "expected two commits");
  Twopc.handle c.endpoint ~src:(g 1) (Twopc.Committed_ack a);
  Alcotest.(check bool) "not done yet" false (has_event c "done T0.0");
  Twopc.handle c.endpoint ~src:(g 2) (Twopc.Committed_ack a);
  Alcotest.(check bool) "done record written" true (has_event c "done T0.0")

let test_coordinator_abort_on_refusal () =
  let sim = Sim.create () in
  let c = probe ~gid:(g 0) ~sim () in
  let a = aid 0 in
  let verdict = ref None in
  Twopc.start_commit c.endpoint a ~participants:[ g 1; g 2 ] ~on_result:(fun v -> verdict := Some v);
  ignore (pop_sent c);
  Twopc.handle c.endpoint ~src:(g 1) (Twopc.Prepared_reply a);
  Twopc.handle c.endpoint ~src:(g 2) (Twopc.Refused_reply a);
  Alcotest.(check bool) "aborted" true (!verdict = Some `Aborted);
  Alcotest.(check bool) "no committing record" false (has_event c "committing T0.0");
  match pop_sent c with
  | [ (_, Twopc.Abort _); (_, Twopc.Abort _) ] -> ()
  | _ -> Alcotest.fail "expected two aborts"

let test_coordinator_unilateral_timeout () =
  let sim = Sim.create () in
  let c = probe ~gid:(g 0) ~sim () in
  let verdict = ref None in
  Twopc.start_commit c.endpoint (aid 0) ~participants:[ g 1 ] ~on_result:(fun v -> verdict := Some v);
  ignore (pop_sent c);
  (* No reply ever arrives; the prepare timeout aborts unilaterally. *)
  ignore (Sim.run sim);
  Alcotest.(check bool) "unilateral abort" true (!verdict = Some `Aborted)

let test_commit_retry_until_ack () =
  let sim = Sim.create () in
  let c = probe ~gid:(g 0) ~sim () in
  let a = aid 0 in
  Twopc.start_commit c.endpoint a ~participants:[ g 1 ] ~on_result:(fun _ -> ());
  ignore (pop_sent c);
  Twopc.handle c.endpoint ~src:(g 1) (Twopc.Prepared_reply a);
  ignore (pop_sent c);
  (* Let two retry periods elapse without acks: commits are re-sent. *)
  ignore (Sim.run ~until:11.0 sim);
  let resent = List.length (List.filter (function _, Twopc.Commit _ -> true | _ -> false) (pop_sent c)) in
  Alcotest.(check bool) (Printf.sprintf "retries happened (%d)" resent) true (resent >= 2);
  (* After the ack, retries stop. *)
  Twopc.handle c.endpoint ~src:(g 1) (Twopc.Committed_ack a);
  ignore (Sim.run sim);
  let after = List.filter (function _, Twopc.Commit _ -> true | _ -> false) (pop_sent c) in
  Alcotest.(check int) "no more retries" 0 (List.length after)

let test_query_answers () =
  let sim = Sim.create () in
  (* Finished/unknown actions answered from stable state via the hook. *)
  let c = probe ~gid:(g 0) ~sim ~outcome:`Commit () in
  Twopc.handle c.endpoint ~src:(g 1) (Twopc.Query (aid 7));
  (match pop_sent c with
  | [ (_, Twopc.Commit _) ] -> ()
  | _ -> Alcotest.fail "expected commit answer");
  let c2 = probe ~gid:(g 0) ~sim ~outcome:`Abort () in
  Twopc.handle c2.endpoint ~src:(g 1) (Twopc.Query (aid 7));
  (match pop_sent c2 with
  | [ (_, Twopc.Abort _) ] -> ()
  | _ -> Alcotest.fail "expected abort answer");
  (* An action mid-preparing gets NO answer (the Lindsay case). *)
  let c3 = probe ~gid:(g 0) ~sim ~outcome:`Abort () in
  let a = aid 0 in
  Twopc.start_commit c3.endpoint a ~participants:[ g 1 ] ~on_result:(fun _ -> ());
  ignore (pop_sent c3);
  Twopc.handle c3.endpoint ~src:(g 1) (Twopc.Query a);
  Alcotest.(check (list string)) "no answer while preparing" []
    (List.map (fun (_, m) -> Format.asprintf "%a" Twopc.pp_msg m) (pop_sent c3))

let test_resume_coordinator () =
  let sim = Sim.create () in
  let c = probe ~gid:(g 0) ~sim () in
  let a = aid 0 in
  Twopc.resume_coordinator c.endpoint a [ g 1; g 2 ];
  (match pop_sent c with
  | [ (_, Twopc.Commit _); (_, Twopc.Commit _) ] -> ()
  | _ -> Alcotest.fail "expected re-sent commits");
  Twopc.handle c.endpoint ~src:(g 1) (Twopc.Committed_ack a);
  Twopc.handle c.endpoint ~src:(g 2) (Twopc.Committed_ack a);
  Alcotest.(check bool) "done after resumed acks" true (has_event c "done T0.0")

let test_stopped_endpoint_ignores () =
  let sim = Sim.create () in
  let p = probe ~gid:(g 1) ~sim () in
  Twopc.stop p.endpoint;
  Twopc.handle p.endpoint ~src:(g 0) (Twopc.Prepare (aid 0));
  Alcotest.(check (list string)) "no events" [] !(p.events);
  Alcotest.(check (list string)) "no messages" []
    (List.map (fun (_, m) -> Format.asprintf "%a" Twopc.pp_msg m) (pop_sent p))

let suite =
  [
    Alcotest.test_case "participant prepare/commit" `Quick test_participant_prepare_commit;
    Alcotest.test_case "participant refuses unknown" `Quick test_participant_refuses_unknown;
    Alcotest.test_case "unprepared commit acked, not applied" `Quick test_commit_unprepared_acked;
    Alcotest.test_case "self-prepare unforced, remote waits" `Quick test_self_prepare;
    Alcotest.test_case "coordinator forgets finished" `Quick test_coordinator_forgets;
    Alcotest.test_case "contradictory verdict detected" `Quick test_commit_after_abort_detected;
    Alcotest.test_case "coordinator happy path" `Quick test_coordinator_happy_path;
    Alcotest.test_case "coordinator aborts on refusal" `Quick test_coordinator_abort_on_refusal;
    Alcotest.test_case "unilateral timeout abort" `Quick test_coordinator_unilateral_timeout;
    Alcotest.test_case "commit retried until ack" `Quick test_commit_retry_until_ack;
    Alcotest.test_case "query answers by state" `Quick test_query_answers;
    Alcotest.test_case "resume coordinator" `Quick test_resume_coordinator;
    Alcotest.test_case "stopped endpoint ignores" `Quick test_stopped_endpoint_ignores;
    Alcotest.test_case "message rendering" `Quick test_msg_rendering;
  ]
