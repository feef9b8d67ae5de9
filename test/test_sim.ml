(* Unit tests for the discrete-event simulator and the simulated network. *)

module Sim = Rs_sim.Sim
module Net = Rs_sim.Net
module Gid = Rs_util.Gid

let test_event_order () =
  let sim = Sim.create () in
  let order = ref [] in
  Sim.schedule sim ~delay:3.0 (fun () -> order := 3 :: !order);
  Sim.schedule sim ~delay:1.0 (fun () -> order := 1 :: !order);
  Sim.schedule sim ~delay:2.0 (fun () -> order := 2 :: !order);
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !order);
  Alcotest.(check bool) "clock advanced" true (Sim.now sim = 3.0)

let test_same_instant_fifo () =
  let sim = Sim.create () in
  let order = ref [] in
  for i = 1 to 10 do
    Sim.schedule sim ~delay:1.0 (fun () -> order := i :: !order)
  done;
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "schedule order at same instant"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !order)

let test_nested_scheduling () =
  let sim = Sim.create () in
  let hits = ref 0 in
  let rec tick n () =
    incr hits;
    if n > 0 then Sim.schedule sim ~delay:1.0 (tick (n - 1))
  in
  Sim.schedule sim ~delay:1.0 (tick 9);
  ignore (Sim.run sim);
  Alcotest.(check int) "recursive events" 10 !hits;
  Alcotest.(check bool) "time accumulates" true (Sim.now sim = 10.0)

let test_run_until () =
  let sim = Sim.create () in
  let hits = ref 0 in
  for _ = 1 to 5 do
    Sim.schedule sim ~delay:10.0 (fun () -> incr hits)
  done;
  Sim.schedule sim ~delay:1.0 (fun () -> incr hits);
  ignore (Sim.run ~until:5.0 sim);
  Alcotest.(check int) "only early events" 1 !hits;
  Alcotest.(check int) "rest pending" 5 (Sim.pending sim);
  ignore (Sim.run sim);
  Alcotest.(check int) "drained" 6 !hits

let test_negative_delay () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Sim.schedule: negative delay") (fun () ->
      Sim.schedule sim ~delay:(-1.0) (fun () -> ()))

(* A popped event's thunk must not stay reachable from the queue array:
   in a run it can hold a crashed guardian's whole heap. Schedule thunks
   capturing fresh blocks, pop them all, and the blocks must be
   collectable while the simulator itself is still live. *)
let test_popped_thunk_collectable () =
  let sim = Sim.create () in
  let weak = Weak.create 20 in
  let fill () =
    for i = 0 to 19 do
      let captured = Bytes.make 64 'x' in
      Weak.set weak i (Some captured);
      Sim.schedule sim ~delay:(float_of_int i) (fun () -> ignore (Bytes.length captured))
    done
  in
  fill ();
  ignore (Sim.run ~until:9.5 sim);
  Gc.full_major ();
  let live lo hi = List.filter (fun i -> Weak.check weak i) (List.init (hi - lo) (( + ) lo)) in
  Alcotest.(check (list int)) "popped thunks collected" [] (live 0 10);
  Alcotest.(check int) "pending thunks kept" 10 (List.length (live 10 20));
  ignore (Sim.run sim);
  Gc.full_major ();
  Alcotest.(check (list int)) "all collected once drained" [] (live 0 20);
  Alcotest.(check int) "simulator still usable" 0 (Sim.pending sim)

let test_net_delivery () =
  let sim = Sim.create () in
  let net = Net.create ~latency:2.0 sim () in
  let got = ref [] in
  Net.register net (Gid.of_int 0) (fun ~src msg -> got := (Gid.to_int src, msg) :: !got);
  Net.register net (Gid.of_int 1) (fun ~src:_ _ -> ());
  Net.send net ~src:(Gid.of_int 1) ~dst:(Gid.of_int 0) "hello";
  Alcotest.(check (list (pair int string))) "not yet delivered" [] !got;
  ignore (Sim.run sim);
  Alcotest.(check (list (pair int string))) "delivered with latency" [ (1, "hello") ] !got;
  Alcotest.(check bool) "latency applied" true (Sim.now sim = 2.0)

(* A message to self skips the wire: it lands in the same instant, but
   only after the event that sent it has finished, and the fault hook
   still sees its send. *)
let test_net_self_delivery () =
  let sim = Sim.create () in
  let net = Net.create ~latency:2.0 ~jitter:1.0 sim () in
  let g0 = Gid.of_int 0 in
  let order = ref [] in
  Net.register net g0 (fun ~src:_ msg -> order := (msg, Sim.now sim) :: !order);
  let hooked = ref 0 in
  let count = function
    | Net.Send ->
        incr hooked;
        Rs_util.Fault_hook.Go
    | _ -> Go
  in
  Rs_util.Fault_hook.with_hook count (fun () ->
      Sim.schedule sim ~delay:3.0 (fun () ->
          Net.send net ~src:g0 ~dst:g0 "self";
          order := ("sender done", Sim.now sim) :: !order);
      ignore (Sim.run sim));
  Alcotest.(check (list (pair string (float 0.0))))
    "same instant, after the sender" [ ("sender done", 3.0); ("self", 3.0) ] (List.rev !order);
  Alcotest.(check int) "Send site consulted" 1 !hooked;
  Alcotest.(check int) "counted sent" 1 (Net.messages_sent net);
  Alcotest.(check int) "counted delivered" 1 (Net.messages_delivered net)

let test_net_down_node_drops () =
  let sim = Sim.create () in
  let net = Net.create sim () in
  let got = ref 0 in
  Net.register net (Gid.of_int 0) (fun ~src:_ _ -> incr got);
  Net.register net (Gid.of_int 1) (fun ~src:_ _ -> ());
  (* Down at delivery time drops the message, even if sent while up. *)
  Net.send net ~src:(Gid.of_int 1) ~dst:(Gid.of_int 0) "doomed";
  Net.set_up net (Gid.of_int 0) false;
  ignore (Sim.run sim);
  Alcotest.(check int) "dropped at delivery" 0 !got;
  Alcotest.(check int) "counted" 1 (Net.messages_dropped net);
  (* A down sender sends nothing at all. *)
  Net.set_up net (Gid.of_int 1) false;
  Net.send net ~src:(Gid.of_int 1) ~dst:(Gid.of_int 0) "silent";
  Alcotest.(check int) "nothing sent" 1 (Net.messages_sent net)

let test_net_loss_statistics () =
  let sim = Sim.create ~seed:5 () in
  let net = Net.create ~drop_prob:0.5 sim () in
  let got = ref 0 in
  Net.register net (Gid.of_int 0) (fun ~src:_ _ -> incr got);
  for _ = 1 to 200 do
    Net.send net ~src:(Gid.of_int 0) ~dst:(Gid.of_int 0) "m"
  done;
  ignore (Sim.run sim);
  Alcotest.(check bool)
    (Printf.sprintf "about half lost (%d delivered)" !got)
    true
    (!got > 60 && !got < 140);
  Alcotest.(check int) "sent+dropped+delivered consistent" 200
    (Net.messages_delivered net + Net.messages_dropped net)

let test_net_unregistered () =
  let sim = Sim.create () in
  let net : string Net.t = Net.create sim () in
  Net.register net (Gid.of_int 0) (fun ~src:_ _ -> ());
  Alcotest.(check bool) "raises" true
    (match Net.send net ~src:(Gid.of_int 0) ~dst:(Gid.of_int 9) "x" with
    | () -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "event time order" `Quick test_event_order;
    Alcotest.test_case "same-instant FIFO" `Quick test_same_instant_fifo;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "run until" `Quick test_run_until;
    Alcotest.test_case "negative delay rejected" `Quick test_negative_delay;
    Alcotest.test_case "popped thunks collectable" `Quick test_popped_thunk_collectable;
    Alcotest.test_case "net delivery with latency" `Quick test_net_delivery;
    Alcotest.test_case "net self-delivery" `Quick test_net_self_delivery;
    Alcotest.test_case "net drops to down nodes" `Quick test_net_down_node_drops;
    Alcotest.test_case "net loss statistics" `Quick test_net_loss_statistics;
    Alcotest.test_case "net rejects unknown nodes" `Quick test_net_unregistered;
  ]
