(* Crash-during-I/O sweeps: arm a stable-storage crash on every store at
   every physical-write budget, run one more action (or a housekeeping
   pass), recover, and assert the all-or-nothing property. This exercises
   the atomicity argument end-to-end: torn pages, half-written forces,
   interrupted map switches, abandoned housekeeping logs.

   For atomic objects the assertion is exact: after recovery the state is
   either the pre-action state or the post-action state, never a mix.
   (Mutex objects are legitimately different — their updates survive once
   the action prepared — so the strict sweep uses atomic objects only;
   workload tests cover the mutex rule.) *)

module Scheme = Rs_workload.Scheme
module Synth = Rs_workload.Synth
module Store = Rs_storage.Stable_store
module Disk = Rs_storage.Disk

let scheme_of = function
  | 0 -> Scheme.simple ()
  | 1 -> Scheme.hybrid ()
  | _ -> Scheme.shadow ()

(* Run [op] with a crash on [store]'s physical write after [budget]
   writes. Returns whether the crash actually fired. *)
let with_crash store ~budget op =
  match Helpers.crash_nth (Store.is_write store) (budget + 1) op with
  | () -> false
  | exception Disk.Crash -> true

let check_all_or_nothing ~label t ~before ~after =
  let actual = Synth.counters t in
  if actual = before || actual = after then ()
  else
    Alcotest.failf "%s: mixed state %s (before %s, after %s)" label
      (String.concat "," (Array.to_list (Array.map string_of_int actual)))
      (String.concat "," (Array.to_list (Array.map string_of_int before)))
      (String.concat "," (Array.to_list (Array.map string_of_int after)))

(* Sweep crashes through one action's prepare+commit on every store. *)
let sweep_action which () =
  let crashes_hit = ref 0 in
  (* Fresh world per crash point: 6 objects, 5 committed actions. *)
  let world () =
    let t = Synth.create ~seed:5 ~scheme:(scheme_of which) ~n_objects:6 () in
    Synth.run_random_actions t ~n:5 ~objects_per_action:2 ();
    t
  in
  (* Counted on the world the action runs in, so the segment stores its
     logs hold by then are swept too. *)
  let store_count = List.length (Scheme.stable_stores (Synth.scheme (world ()))) in
  for store_idx = 0 to store_count - 1 do
    let budget = ref 0 in
    let exhausted = ref false in
    while (not !exhausted) && !budget < 200 do
      let t = ref (world ()) in
      let before = Synth.counters !t in
      let after =
        (* The model of the sweep action: objects 0 and 3 incremented. *)
        let c = Array.copy before in
        c.(0) <- c.(0) + 1;
        c.(3) <- c.(3) + 1;
        c
      in
      let store = List.nth (Scheme.stable_stores (Synth.scheme !t)) store_idx in
      let fired =
        with_crash store ~budget:!budget (fun () ->
            Synth.run_action !t ~indices:[ 0; 3 ] ~outcome:`Commit)
      in
      if fired then begin
        incr crashes_hit;
        let t', _ = Synth.crash_recover !t in
        t := t';
        check_all_or_nothing
          ~label:(Printf.sprintf "scheme %d store %d budget %d" which store_idx !budget)
          !t ~before ~after;
        incr budget
      end
      else exhausted := true (* this op writes fewer than [budget] pages here *)
    done
  done;
  (* The sweep must actually have exercised crash points. *)
  Alcotest.(check bool)
    (Printf.sprintf "sweep hit crash points (%d)" !crashes_hit)
    true (!crashes_hit > 0)

(* Sweep crashes through housekeeping: the new log is discarded, the old
   log stays authoritative, nothing is lost. *)
let sweep_housekeeping technique () =
  let crashes_hit = ref 0 in
  for store_idx = 0 to 2 do
    let budget = ref 0 in
    let exhausted = ref false in
    while (not !exhausted) && !budget < 400 do
      let t = ref (Synth.create ~seed:7 ~scheme:(Scheme.hybrid ()) ~n_objects:8 ()) in
      Synth.run_random_actions !t ~n:20 ~objects_per_action:2 ~abort_rate:0.2 ();
      let expected = Synth.counters !t in
      let store = List.nth (Scheme.stable_stores (Synth.scheme !t)) store_idx in
      let fired =
        with_crash store ~budget:!budget (fun () ->
            Scheme.housekeep (Synth.scheme !t) technique)
      in
      if fired then begin
        incr crashes_hit;
        let t', _ = Synth.crash_recover !t in
        t := t';
        let actual = Synth.counters !t in
        if actual <> expected then
          Alcotest.failf "housekeeping crash store %d budget %d lost state" store_idx !budget;
        (* And the surviving log must still be structurally sound. *)
        (match Synth.check_consistent !t with
        | Ok () -> ()
        | Error m -> Alcotest.failf "store %d budget %d: %s" store_idx !budget m);
        incr budget
      end
      else exhausted := true
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "sweep hit crash points (%d)" !crashes_hit)
    true (!crashes_hit > 0)

(* Crash mid-operation, recover, keep working, crash again at a later
   point: torn tails must not poison subsequent operation. *)
let crash_recover_continue which () =
  for budget = 0 to 30 do
    let t = ref (Synth.create ~seed:9 ~scheme:(scheme_of which) ~n_objects:5 ()) in
    Synth.run_random_actions !t ~n:3 ~objects_per_action:2 ();
    let store = List.hd (List.rev (Scheme.stable_stores (Synth.scheme !t))) in
    let fired =
      with_crash store ~budget (fun () -> Synth.run_action !t ~indices:[ 1 ] ~outcome:`Commit)
    in
    if fired then begin
      let t', info = Synth.crash_recover !t in
      t := t';
      (* The interrupted action may have been recovered as prepared, still
         holding its write lock. Resolve it the way a participant with no
         reachable coordinator does: abort (§2.2.3). *)
      List.iter
        (fun aid -> Scheme.abort (Synth.scheme !t) aid)
        (Core.Tables.Recovery_report.prepared_actions info)
    end;
    (* Whatever happened, the system must accept and persist new work. *)
    Synth.run_random_actions !t ~n:3 ~objects_per_action:2 ();
    let t', _ = Synth.crash_recover !t in
    t := t';
    (match Synth.check_consistent !t with
    | Ok () -> ()
    | Error m ->
        (* The interrupted action's update to object 1 may have been lost
           (crash before commit) even though the model counted it; any
           other divergence is a real bug. *)
        let actual = Synth.counters !t in
        let model = Synth.model !t in
        let fixable = ref true in
        Array.iteri
          (fun i v ->
            if i = 1 then begin
              if v <> model.(i) && v <> model.(i) - 1 then fixable := false
            end
            else if v <> model.(i) then fixable := false)
          actual;
        if not !fixable then Alcotest.failf "scheme %d budget %d: %s" which budget m)
  done

let suite =
  [
    Alcotest.test_case "action sweep (simple)" `Slow (sweep_action 0);
    Alcotest.test_case "action sweep (hybrid)" `Slow (sweep_action 1);
    Alcotest.test_case "action sweep (shadow)" `Slow (sweep_action 2);
    Alcotest.test_case "housekeeping sweep (compaction)" `Slow
      (sweep_housekeeping Scheme.Compaction);
    Alcotest.test_case "housekeeping sweep (snapshot)" `Slow (sweep_housekeeping Scheme.Snapshot);
    Alcotest.test_case "crash, recover, continue (simple)" `Quick (crash_recover_continue 0);
    Alcotest.test_case "crash, recover, continue (hybrid)" `Quick (crash_recover_continue 1);
    Alcotest.test_case "crash, recover, continue (shadow)" `Quick (crash_recover_continue 2);
  ]
