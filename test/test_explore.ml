(* Tests for the Rs_explore crash-schedule explorer: the shipped schemes
   must survive every enumerated schedule, and a deliberately seeded bug
   (forces that skip the header write, i.e. lie about stability) must be
   caught and shrunk to a tiny counterexample. *)

module Explore = Rs_explore.Explore
module Fault = Rs_explore.Fault

let config = { Explore.default_config with budget = 60 }

(* Fault points each target's census finds at the default seed. *)
let census_points =
  [
    ("simple", 47);
    ("hybrid", 58);
    ("shadow", 104);
    ("segments", 79);
    ("twopc", 32);
    ("group", 53);
    ("load", 20);
    ("shards", 20);
    ("repl", 20);
    ("ckpt", 20);
    ("mvcc", 20);
  ]

let check_points target (o : Explore.outcome) =
  Alcotest.(check int) (target ^ ": census points") (List.assoc target census_points) o.points

let check_clean target =
  let o = Explore.explore ~config target in
  check_points target o;
  Alcotest.(check bool) (target ^ ": ran schedules") true (o.Explore.schedules > 1);
  match o.Explore.counterexample with
  | None -> ()
  | Some { Explore.schedule; violation } ->
      Alcotest.failf "%s: %s under [%s]" target
        (Format.asprintf "%a" Rs_explore.Oracle.pp_violation violation)
        (Fault.schedule_to_string schedule)

let test_simple_clean () = check_clean "simple"
let test_hybrid_clean () = check_clean "hybrid"
let test_shadow_clean () = check_clean "shadow"
let test_twopc_clean () = check_clean "twopc"

(* The segmented-log target: crash schedules over segment allocation,
   link, and retirement boundaries (plus forces and store writes) in a
   churn-heavy, housekeeping-heavy workload; oracles include the
   segment-chain fsck. *)
let test_segments_clean () = check_clean "segments"

(* The group-commit target gets the full acceptance budget: committed
   effects must be durable and pairs atomic at every batch boundary,
   including crashes landing between a token's enqueue and its flush. *)
let test_group_clean () =
  let o = Explore.explore ~config:{ Explore.default_config with budget = 200 } "group" in
  check_points "group" o;
  Alcotest.(check int) "group: ran the full budget" 200 o.Explore.schedules;
  match o.Explore.counterexample with
  | None -> ()
  | Some { Explore.schedule; violation } ->
      Alcotest.failf "group: %s under [%s]"
        (Format.asprintf "%a" Rs_explore.Oracle.pp_violation violation)
        (Fault.schedule_to_string schedule)

(* The load target crashes guardians under contended closed-loop traffic;
   every schedule must drain with all handles resolved and the committed
   counters matching the model — this is the schedule family that caught
   the zombie-fiber phantom (a lock grant in flight across a crash). *)
let test_load_clean () =
  let o = Explore.explore ~config:{ Explore.default_config with budget = 60 } "load" in
  check_points "load" o;
  Alcotest.(check bool) "load: ran schedules" true (o.Explore.schedules > 1);
  match o.Explore.counterexample with
  | None -> ()
  | Some { Explore.schedule; violation } ->
      Alcotest.failf "load: %s under [%s]"
        (Format.asprintf "%a" Rs_explore.Oracle.pp_violation violation)
        (Fault.schedule_to_string schedule)

(* [target] explored with the seeded bug [m] switched on. *)
let explore_mutated m target =
  Rs_util.Fault_hook.with_mutations [ m ] (fun () -> Explore.explore ~config target)

(* A scheduler whose covering forces lie about stability must fail the
   group target's durably-acked floor. *)
let test_group_broken_force_caught () =
  let o = explore_mutated Rs_slog.Stable_log.Skip_header_write "group" in
  match o.Explore.counterexample with
  | None -> Alcotest.fail "broken force not detected by the group target"
  | Some _ -> ()

(* A remote participant that answers prepared before its prepared record
   is stable — the coordinator's-own-share shortcut applied where it is
   unsound — must be caught: a crash in the gap loses the record, and the
   commit it was promised lands on nothing. *)
let test_lazy_prepare_caught () =
  let o = explore_mutated Rs_twopc.Twopc.Lazy_prepare "twopc" in
  match o.Explore.counterexample with
  | None -> Alcotest.fail "lazily forced prepared record not detected by the twopc target"
  | Some _ -> ()

(* The self-test the subsystem ships with: break the force's atomic
   commit point (skip the header write) and the durability oracle must
   report a violation whose shrunk counterexample is tiny — the bug needs
   no elaborate crash schedule, only a recovery. *)
let test_broken_force_caught () =
  let o = explore_mutated Rs_slog.Stable_log.Skip_header_write "hybrid" in
  match o.Explore.counterexample with
  | None -> Alcotest.fail "broken force not detected"
  | Some { Explore.schedule; violation = _ } ->
      Alcotest.(check bool)
        "counterexample shrunk to <= 3 points" true
        (List.length schedule <= 3)

(* Depth-1-only exploration still works and stays within budget. *)
let test_depth_one () =
  let o = Explore.explore ~config:{ config with max_depth = 1 } "simple" in
  Alcotest.(check (option Alcotest.reject)) "no violation"
    None
    (Option.map (fun _ -> ()) o.Explore.counterexample);
  Alcotest.(check bool) "budget respected" true (o.Explore.schedules <= config.budget)

(* Every target's census, pinned: the baseline schedule alone runs, so
   this is cheap, and it covers the targets without a clean case above. *)
let test_census_pinned () =
  List.iter
    (fun (target, _) ->
      let o = Explore.explore ~config:{ Explore.default_config with budget = 1 } target in
      check_points target o;
      Alcotest.(check bool) (target ^ ": baseline clean") true (o.counterexample = None))
    census_points

(* The judge reports the spec monitors: a commit no log force covers
   surfaces as a monitor violation, for a world and a single scheme alike. *)
let test_judge_reports_monitors () =
  let sys = Rs_guardian.System.create ~n:1 () in
  Rs_obs.Trace.clear_clock ();
  List.iter
    (fun subject ->
      Rs_obs.Trace.clear ();
      Rs_obs.Trace.emit (Rs_obs.Trace.Action_commit { gid = "G0"; aid = "T0.1" });
      let oracles = List.map (fun v -> v.Rs_explore.Oracle.oracle) (Explore.judge subject) in
      Rs_obs.Trace.clear ();
      Alcotest.(check bool) "monitor:commit-implies-durable reported" true
        (List.mem "monitor:commit-implies-durable" oracles))
    [ Explore.World (Explore.world sys); Explore.Single (Rs_workload.Scheme.hybrid ()) ]

(* Every world installs its simulator's clock into the trace; neither an
   exploration nor a nemesis run may leave a dead simulator's clock
   behind. *)
let test_trace_clock_restored () =
  ignore (Explore.explore ~config:{ Explore.default_config with budget = 3 } "load");
  Alcotest.(check (float 0.)) "clock after explore" 0. (Rs_obs.Trace.now ());
  let o =
    Rs_explore.Nemesis.run
      { Rs_explore.Nemesis.default with seed = 3; duration = 30.0; events = 2 }
  in
  Alcotest.(check (list string)) "nemesis clean" [] o.violations;
  Alcotest.(check (float 0.)) "clock after nemesis" 0. (Rs_obs.Trace.now ())

let suite =
  [
    Alcotest.test_case "simple survives exploration" `Quick test_simple_clean;
    Alcotest.test_case "hybrid survives exploration" `Quick test_hybrid_clean;
    Alcotest.test_case "shadow survives exploration" `Quick test_shadow_clean;
    Alcotest.test_case "twopc survives exploration" `Quick test_twopc_clean;
    Alcotest.test_case "segments survive exploration" `Quick test_segments_clean;
    Alcotest.test_case "group commit survives exploration" `Quick test_group_clean;
    Alcotest.test_case "load survives exploration" `Quick test_load_clean;
    Alcotest.test_case "seeded broken force is caught" `Quick test_broken_force_caught;
    Alcotest.test_case "group target catches broken force" `Quick
      test_group_broken_force_caught;
    Alcotest.test_case "twopc target catches a lazy prepare" `Quick test_lazy_prepare_caught;
    Alcotest.test_case "depth-1 exploration" `Quick test_depth_one;
    Alcotest.test_case "census pinned for every target" `Quick test_census_pinned;
    Alcotest.test_case "judge reports the spec monitors" `Quick test_judge_reports_monitors;
    Alcotest.test_case "trace clock restored" `Quick test_trace_clock_restored;
  ]
