(* The spec monitors are asserted at the end of every test, literally:
   each case starts from a cleared trace and must leave the monitors
   clean over every event it emitted. *)
let monitored (name, speed, f) =
  ( name,
    speed,
    fun () ->
      Rs_obs.Trace.clear ();
      f ();
      match Rs_obs.Monitor.check () with
      | [] -> ()
      | vs ->
          Alcotest.failf "%d monitor violation(s): %a" (List.length vs)
            (Format.pp_print_list Rs_obs.Monitor.pp_violation)
            vs )

let () =
  Alcotest.run "argus-storage"
  @@ List.map (fun (suite, cases) -> (suite, List.map monitored cases))
    [
      ("util", Test_util.suite);
      ("storage", Test_storage.suite);
      ("slog", Test_slog.suite);
      ("sim", Test_sim.suite);
      ("objstore", Test_objstore.suite);
      ("log-entries", Test_entries.suite);
      ("simple-rs", Test_simple_rs.suite);
      ("restore-unit", Test_restore_unit.suite);
      ("scenarios", Test_scenarios.suite);
      ("hybrid-rs", Test_hybrid_rs.suite);
      ("housekeeping", Test_housekeeping.suite);
      ("shadow-rs", Test_shadow_rs.suite);
      ("twopc-unit", Test_twopc_unit.suite);
      ("twopc", Test_twopc.suite);
      ("workload", Test_workload.suite);
      ("crash-io", Test_crash_io.suite);
      ("log-check", Test_log_check.suite);
      ("graph-fuzz", Test_graph_fuzz.suite);
      ("obs", Test_obs.suite);
      ("group-commit", Test_group_commit.suite);
      ("explore", Test_explore.suite);
      ("load", Test_load.suite);
      ("dir", Test_dir.suite);
      ("repl", Test_repl.suite);
      ("mvcc", Test_mvcc.suite);
      ("nemesis", Test_nemesis.suite);
    ]
