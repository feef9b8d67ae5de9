(* argusctl — command-line driver for the reliable-object-storage
   simulator: run workloads, inject crashes, inspect logs.

   dune exec bin/argusctl.exe -- <command> [options] *)

open Cmdliner

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (runs are deterministic).")

(* bank: distributed transfers with crash injection *)

let bank seed guardians accounts transfers crash_every drop force_window =
  let system =
    Rs_guardian.System.create ~seed ~latency:1.0 ~jitter:0.5 ~drop_prob:drop ~force_window
      ~n:guardians ()
  in
  let bank =
    Rs_workload.Bank.create ~seed:(seed + 1) ~system ~accounts_per_guardian:accounts
      ~initial_balance:1000 ()
  in
  Rs_workload.Bank.run bank ~n_transfers:transfers
    ?crash_every:(if crash_every = 0 then None else Some crash_every)
    ();
  Printf.printf "transfers: %d committed, %d aborted\n" (Rs_workload.Bank.committed bank)
    (Rs_workload.Bank.aborted bank);
  match Rs_workload.Bank.check_conservation bank with
  | Ok () ->
      print_endline "balance conserved ✓";
      0
  | Error msg ->
      print_endline ("VIOLATION: " ^ msg);
      1

let bank_cmd =
  let guardians = Arg.(value & opt int 3 & info [ "guardians" ] ~doc:"Number of guardians.") in
  let accounts = Arg.(value & opt int 8 & info [ "accounts" ] ~doc:"Accounts per guardian.") in
  let transfers = Arg.(value & opt int 200 & info [ "transfers" ] ~doc:"Transfers to run.") in
  let crash_every =
    Arg.(value & opt int 25 & info [ "crash-every" ] ~doc:"Crash a guardian every N transfers (0 = never).")
  in
  let drop = Arg.(value & opt float 0.02 & info [ "drop" ] ~doc:"Message loss probability.") in
  let force_window =
    Arg.(value
         & opt float 0.0
         & info [ "force-window" ]
             ~doc:"Group-commit batching window in virtual time (0 = synchronous forces).")
  in
  Cmd.v
    (Cmd.info "bank" ~doc:"Run the distributed bank workload with crash injection.")
    Term.(const bank $ seed_arg $ guardians $ accounts $ transfers $ crash_every $ drop
          $ force_window)

let scheme_of_name = function
  | "simple" -> Rs_workload.Scheme.simple ()
  | "hybrid" -> Rs_workload.Scheme.hybrid ()
  | "shadow" -> Rs_workload.Scheme.shadow ()
  | s ->
      Printf.eprintf "unknown scheme %s (simple|hybrid|shadow)\n" s;
      exit 2

(* churn: single-guardian synthetic workload + housekeeping statistics *)

let churn seed scheme_name objects actions housekeep_every =
  let scheme = scheme_of_name scheme_name in
  let t = ref (Rs_workload.Synth.create ~seed ~scheme ~n_objects:objects ()) in
  let total = ref 0 in
  while !total < actions do
    let batch = min (max housekeep_every 1) (actions - !total) in
    Rs_workload.Synth.run_random_actions !t ~n:batch ~objects_per_action:2 ~abort_rate:0.1 ();
    total := !total + batch;
    if housekeep_every > 0 && Rs_workload.Scheme.supports_housekeeping (Rs_workload.Synth.scheme !t)
    then Rs_workload.Scheme.housekeep (Rs_workload.Synth.scheme !t) Rs_workload.Scheme.Snapshot
  done;
  let sch = Rs_workload.Synth.scheme !t in
  Printf.printf "scheme=%s actions=%d log_entries=%d log_bytes=%d physical_writes=%d\n"
    (Rs_workload.Scheme.name sch) actions
    (Rs_workload.Scheme.log_entries sch)
    (Rs_workload.Scheme.log_bytes sch)
    (Rs_workload.Scheme.physical_writes sch);
  let t', report = Rs_workload.Synth.crash_recover !t in
  t := t';
  Format.printf "%a@." Core.Tables.Recovery_report.pp report;
  match Rs_workload.Synth.check_consistent !t with
  | Ok () ->
      print_endline "state consistent after crash ✓";
      0
  | Error msg ->
      print_endline ("CORRUPT: " ^ msg);
      1

let churn_cmd =
  let scheme = Arg.(value & opt string "hybrid" & info [ "scheme" ] ~doc:"simple|hybrid|shadow.") in
  let objects = Arg.(value & opt int 64 & info [ "objects" ] ~doc:"Objects in the stable state.") in
  let actions = Arg.(value & opt int 500 & info [ "actions" ] ~doc:"Actions to run.") in
  let hk =
    Arg.(value & opt int 0 & info [ "housekeep-every" ] ~doc:"Snapshot every N actions (0 = never; hybrid only).")
  in
  Cmd.v
    (Cmd.info "churn" ~doc:"Run a synthetic single-guardian workload and report log statistics.")
    Term.(const churn $ seed_arg $ scheme $ objects $ actions $ hk)

(* log: dump a freshly generated log, entry by entry (didactic) *)

let dump_log actions =
  let heap = Rs_objstore.Heap.create () in
  let dir = Rs_slog.Log_dir.create () in
  let rs = Core.Hybrid_rs.create heap dir in
  let aid n = Rs_util.Aid.make ~coordinator:(Rs_util.Gid.of_int 0) ~seq:n in
  let a = Rs_objstore.Heap.alloc_atomic heap ~creator:(aid 0) (Rs_objstore.Value.Int 0) in
  Rs_objstore.Heap.set_stable_var heap (aid 0) "x" (Rs_objstore.Value.Ref a);
  Core.Hybrid_rs.prepare rs (aid 0) (Rs_objstore.Heap.mos heap (aid 0));
  Core.Hybrid_rs.commit rs (aid 0);
  Rs_objstore.Heap.commit_action heap (aid 0);
  for i = 1 to actions do
    Rs_objstore.Heap.set_current heap (aid i) a (Rs_objstore.Value.Int i);
    Core.Hybrid_rs.prepare rs (aid i) (Rs_objstore.Heap.mos heap (aid i));
    if i mod 4 = 3 then Core.Hybrid_rs.abort rs (aid i)
    else Core.Hybrid_rs.commit rs (aid i);
    if i mod 4 = 3 then Rs_objstore.Heap.abort_action heap (aid i)
    else Rs_objstore.Heap.commit_action heap (aid i)
  done;
  let log = Core.Hybrid_rs.log rs in
  Printf.printf "hybrid log after %d actions (%d entries):\n" actions
    (Rs_slog.Stable_log.entry_count log);
  (match Rs_slog.Stable_log.get_top log with
  | None -> ()
  | Some top ->
      Rs_slog.Stable_log.read_backward log top
      |> List.of_seq |> List.rev
      |> List.iter (fun (a, raw) ->
             Format.printf "L%-5d %a@." a Core.Log_entry.pp (Core.Log_entry.decode raw)));
  0

let log_cmd =
  let actions = Arg.(value & opt int 6 & info [ "actions" ] ~doc:"Actions to generate.") in
  Cmd.v
    (Cmd.info "dump-log" ~doc:"Generate a small hybrid log and print every entry.")
    Term.(const dump_log $ actions)

(* verify: run a workload, then validate the log structurally *)

let verify seed scheme_name actions housekeep =
  let scheme = scheme_of_name scheme_name in
  let t = Rs_workload.Synth.create ~seed ~scheme ~n_objects:16 ~mutex_fraction:0.25 () in
  Rs_workload.Synth.run_random_actions t ~n:actions ~objects_per_action:2 ~abort_rate:0.15 ();
  if housekeep then Rs_workload.Scheme.housekeep scheme Rs_workload.Scheme.Snapshot;
  (* The recovery log's entry structure (shadow keeps none), then the
     segment chain of every directory the scheme writes. *)
  let log_issues =
    match Rs_workload.Scheme.current_log scheme with
    | None -> []
    | Some log ->
        Printf.printf "checking %d log entries (%d bytes)...\n"
          (Rs_slog.Stable_log.entry_count log)
          (Rs_slog.Stable_log.stream_bytes log);
        Core.Log_check.check_log log
  in
  let seg_issues =
    List.concat_map
      (fun dir ->
        Printf.printf "checking segment chain (%d live segments, %d retired)...\n"
          (Rs_slog.Log_dir.live_segments dir)
          (Rs_slog.Log_dir.segments_retired dir);
        Core.Log_check.check_segments dir)
      (Rs_workload.Scheme.log_dirs scheme)
  in
  match log_issues @ seg_issues with
  | [] ->
      print_endline "log structurally sound ✓";
      0
  | issues ->
      List.iter (fun i -> Format.printf "  %a@." Core.Log_check.pp_issue i) issues;
      Printf.printf "%d issues\n" (List.length issues);
      1

let verify_cmd =
  let scheme = Arg.(value & opt string "hybrid" & info [ "scheme" ] ~doc:"simple|hybrid|shadow.") in
  let actions = Arg.(value & opt int 200 & info [ "actions" ] ~doc:"Actions to run first.") in
  let hk = Arg.(value & flag & info [ "housekeep" ] ~doc:"Snapshot before checking.") in
  Cmd.v
    (Cmd.info "verify" ~doc:"Generate a log with a workload and validate its structure (fsck).")
    Term.(const verify $ seed_arg $ scheme $ actions $ hk)

(* stats: run a synthetic workload, then dump the Rs_obs metrics registry *)

let stats seed scheme_name objects actions json =
  let scheme = scheme_of_name scheme_name in
  let t = Rs_workload.Synth.create ~seed ~scheme ~n_objects:objects () in
  Rs_workload.Synth.run_random_actions t ~n:actions ~objects_per_action:2 ~abort_rate:0.1 ();
  let _, report = Rs_workload.Synth.crash_recover t in
  if json then print_endline (Rs_obs.Metrics.to_json Rs_obs.Metrics.default)
  else begin
    Format.printf "%a@." Core.Tables.Recovery_report.pp report;
    Format.printf "%a" Rs_obs.Metrics.pp Rs_obs.Metrics.default
  end;
  0

let stats_cmd =
  let scheme = Arg.(value & opt string "hybrid" & info [ "scheme" ] ~doc:"simple|hybrid|shadow.") in
  let objects = Arg.(value & opt int 64 & info [ "objects" ] ~doc:"Objects in the stable state.") in
  let actions = Arg.(value & opt int 200 & info [ "actions" ] ~doc:"Actions to run.") in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the registry as JSON instead of text.") in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a workload plus one crash/recovery and print every Rs_obs metric.")
    Term.(const stats $ seed_arg $ scheme $ objects $ actions $ json)

(* trace: deterministic 2PC-with-crash scenario, dump the event trace *)

let trace seed capacity crash_after =
  Rs_obs.Trace.set_capacity capacity;
  Rs_obs.Trace.clear ();
  let module System = Rs_guardian.System in
  let module Heap = Rs_objstore.Heap in
  let module Value = Rs_objstore.Value in
  let g = Rs_util.Gid.of_int in
  let sys = System.create ~seed ~n:2 () in
  let set_var name v : System.work =
   fun heap aid ->
    match Heap.get_stable_var heap name with
    | Some (Value.Ref a) -> Heap.set_current heap aid a (Value.Int v)
    | Some _ -> failwith "bad var"
    | None ->
        let a = Heap.alloc_atomic heap ~creator:aid (Value.Int v) in
        Heap.set_stable_var heap aid name (Value.Ref a)
  in
  ignore
    (System.await sys (System.submit sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" 1) ]));
  ignore
    (System.await sys (System.submit sys ~coordinator:(g 0) ~steps:[ (g 1, set_var "y" 1) ]));
  System.quiesce sys;
  (* A distributed transfer interrupted mid-protocol: the participant
     crashes after [crash_after] simulator events, restarts, and resolves
     the in-doubt action through the query path (§2.2.3). *)
  ignore
    (System.submit sys ~coordinator:(g 0)
       ~steps:[ (g 0, set_var "x" 2); (g 1, set_var "y" 2) ]);
  let rec steps n = if n > 0 && Rs_sim.Sim.step (System.sim sys) then steps (n - 1) in
  steps crash_after;
  System.crash sys (g 1);
  ignore (System.restart sys (g 1));
  System.quiesce sys;
  print_string (Rs_obs.Trace.to_string ());
  Printf.printf "-- %d events emitted, %d buffered\n" (Rs_obs.Trace.total ())
    (List.length (Rs_obs.Trace.events ()));
  0

let trace_cmd =
  let capacity =
    Arg.(value & opt int 8192 & info [ "capacity" ] ~docv:"N" ~doc:"Trace ring capacity (events).")
  in
  let crash_after =
    Arg.(value & opt int 12 & info [ "crash-after" ] ~docv:"N"
           ~doc:"Simulator events to run before crashing the participant.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a seeded 2PC crash/recovery scenario and dump the structured event trace.")
    Term.(const trace $ seed_arg $ capacity $ crash_after)

(* explore: systematic crash-schedule exploration with invariant oracles *)

let explore_names = List.map fst Rs_explore.Explore.targets

let explore seed scheme_name budget max_depth break_force =
  let targets =
    match scheme_name with
    | "all" -> explore_names
    | s when List.mem s explore_names -> [ s ]
    | s ->
        Printf.eprintf "unknown target %s (%s|all)\n" s (String.concat "|" explore_names);
        exit 2
  in
  let config = { Rs_explore.Explore.seed; budget; max_depth } in
  let outcomes =
    Rs_util.Fault_hook.with_mutations
      (if break_force then [ Rs_slog.Stable_log.Skip_header_write ] else [])
      (fun () -> List.map (Rs_explore.Explore.explore ~config) targets)
  in
  List.iter (fun o -> Format.printf "%a@." Rs_explore.Explore.pp_outcome o) outcomes;
  (* The always-on spec monitors double-check every event since the last
     schedule's [Trace.clear]. *)
  let monitor_violations = Rs_obs.Monitor.check () in
  List.iter (fun v -> Format.printf "MONITOR %a@." Rs_obs.Monitor.pp_violation v) monitor_violations;
  if
    List.exists (fun o -> o.Rs_explore.Explore.counterexample <> None) outcomes
    || monitor_violations <> []
  then 1
  else 0

let explore_cmd =
  let scheme =
    Arg.(value
         & opt string "all"
         & info [ "scheme" ]
             ~doc:(String.concat "|" explore_names ^ "|all."))
  in
  let budget =
    Arg.(value & opt int 200 & info [ "budget" ] ~docv:"N" ~doc:"Maximum crash schedules per target.")
  in
  let max_depth =
    Arg.(value & opt int 2 & info [ "max-depth" ] ~docv:"D" ~doc:"Fault points per schedule (1 or 2).")
  in
  let break_force =
    Arg.(value & flag
         & info [ "break-force" ]
             ~doc:"Seed a bug (log forces skip the header write) to prove the oracles catch it.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Enumerate crash schedules per recovery scheme, check invariant oracles after \
             each recovery, and shrink any counterexample.")
    Term.(const explore $ seed_arg $ scheme $ budget $ max_depth $ break_force)

(* shards: directory-mode load demo — placement routing, batched uid
   reservation, cross-shard 2PC — with the uniqueness and atomicity
   invariants checked at the end. *)

let shards seed guardians cross duration clients batch =
  let module Load = Rs_load.Load in
  let module Directory = Rs_dir.Directory in
  let cfg =
    {
      Load.default with
      seed;
      guardians;
      directory = true;
      cross_shard = cross;
      uid_batch = batch;
      duration;
      objects_per_guardian = 4;
      mode = Load.Closed { clients; think = 1.0 };
    }
  in
  let t = Load.create cfg in
  Load.start t;
  let s = Load.drain t in
  let d = Option.get (Load.directory t) in
  Format.printf "%a@." Load.pp_stats s;
  Printf.printf
    "directory: master=G%d watermark=%d reserved_ranges=%d pool_batch=%d leaked=%d\n"
    (Rs_util.Gid.to_int (Directory.master d))
    (Directory.watermark d)
    (List.length (Directory.reserved_ranges d))
    (Directory.batch d) (Directory.leaked d);
  let uids_ok =
    match Directory.verify_unique_uids d with
    | Ok () ->
        print_endline "uid uniqueness ✓";
        true
    | Error msg ->
        print_endline ("UID VIOLATION: " ^ msg);
        false
  in
  match Load.check t with
  | Ok () when uids_ok ->
      print_endline "cross-shard atomicity ✓";
      0
  | Ok () -> 1
  | Error msg ->
      print_endline ("VIOLATION: " ^ msg);
      1

let shards_cmd =
  let guardians =
    Arg.(value & opt int 4 & info [ "guardians" ] ~docv:"N" ~doc:"Number of shards.")
  in
  let cross =
    Arg.(value
         & opt float 0.2
         & info [ "cross" ] ~docv:"P" ~doc:"Probability an operation spans two shards.")
  in
  let duration =
    Arg.(value & opt float 200.0 & info [ "duration" ] ~docv:"T" ~doc:"Virtual-time load window.")
  in
  let clients =
    Arg.(value & opt int 12 & info [ "clients" ] ~docv:"N" ~doc:"Closed-loop client population.")
  in
  let batch =
    Arg.(value & opt int 16 & info [ "batch" ] ~docv:"N" ~doc:"Uids per batched reservation.")
  in
  Cmd.v
    (Cmd.info "shards"
       ~doc:"Run directory-routed load across shards (batched uid reservation, cross-shard \
             2PC) and check uid uniqueness and the committed-state invariant.")
    Term.(const shards $ seed_arg $ guardians $ cross $ duration $ clients $ batch)

(* repl: primary/backup replication demo — log shipping, a mid-run
   failover, a rejoin — ending in the pair status line, the repl.*
   metrics, and the spec monitors. *)

let repl seed actions failover_at json =
  let module System = Rs_guardian.System in
  let module Heap = Rs_objstore.Heap in
  let module Value = Rs_objstore.Value in
  let module Pair = Rs_repl.Repl.Pair in
  let g = Rs_util.Gid.of_int in
  let sys = System.create ~seed ~latency:1.0 ~n:2 () in
  let p = Pair.create ~system:sys ~primary:(g 0) ~standby:(g 1) () in
  System.quiesce sys;
  let bump : System.work =
   fun heap aid ->
    match Heap.get_stable_var heap "x" with
    | Some (Value.Ref a) -> (
        Heap.write_lock heap aid a;
        match Heap.read_atomic heap aid a with
        | Value.Int v -> Heap.set_current heap aid a (Value.Int (v + 1))
        | _ -> failwith "not an int")
    | Some _ -> failwith "stable var is not a ref"
    | None ->
        let a = Heap.alloc_atomic heap ~creator:aid (Value.Int 1) in
        Heap.set_stable_var heap aid "x" (Value.Ref a)
  in
  let committed = ref 0 in
  for i = 1 to actions do
    let target = Pair.primary p in
    (match System.await sys (System.submit sys ~coordinator:target ~steps:[ (target, bump) ]) with
    | System.Committed -> incr committed
    | System.Aborted -> ());
    System.quiesce sys;
    if i = failover_at then begin
      Printf.printf "-- failover after action %d --\n" i;
      Pair.crash p (Pair.primary p);
      System.quiesce sys;
      ignore (Pair.promote p);
      Pair.rejoin p;
      System.quiesce sys
    end
  done;
  System.quiesce sys;
  if json then print_endline (Rs_obs.Metrics.to_json Rs_obs.Metrics.default)
  else begin
    print_endline (Pair.status p);
    List.iter
      (fun name ->
        Printf.printf "%-18s %d\n" name (Rs_obs.Metrics.counter_value (Rs_obs.Metrics.counter name)))
      [ "repl.ships"; "repl.ship_bytes"; "repl.applies"; "repl.resets"; "repl.resyncs";
        "repl.fenced"; "repl.failovers" ];
    Printf.printf "committed: %d/%d\n" !committed actions
  end;
  match Rs_obs.Monitor.check () with
  | [] ->
      if not json then print_endline "spec monitors clean ✓";
      0
  | vs ->
      List.iter (fun v -> Format.printf "MONITOR %a@." Rs_obs.Monitor.pp_violation v) vs;
      1

(* recover: churn a segmented hybrid log through N housekeeping cycles,
   crash, and recover twice — serial chain walk vs segment-parallel scan
   — reporting per-segment reader statistics and both paths' costs. *)

let recover_demo actions cycles json =
  let module Heap = Rs_objstore.Heap in
  let module Value = Rs_objstore.Value in
  let module Rs = Core.Hybrid_rs in
  let module Log = Rs_slog.Stable_log in
  let module Log_dir = Rs_slog.Log_dir in
  let heap = Heap.create () in
  let dir = Log_dir.create ~page_size:256 ~segment_pages:4 () in
  let rs = Rs.create heap dir in
  let aid n = Rs_util.Aid.make ~coordinator:(Rs_util.Gid.of_int 0) ~seq:n in
  let commit_value ~seq ~name ~v =
    let t = aid seq in
    (match Heap.get_stable_var heap name with
    | Some (Value.Ref a) -> Heap.set_current heap t a (Value.Int v)
    | Some _ -> failwith "stable var is not a ref"
    | None ->
        let a = Heap.alloc_atomic heap ~creator:t (Value.Int v) in
        Heap.set_stable_var heap t name (Value.Ref a));
    Rs.prepare rs t (Heap.mos heap t);
    Rs.commit rs t;
    Heap.commit_action heap t
  in
  (* Spread the passes so the final stretch of commits survives to the
     crash — that tail is what the segment readers divide up. *)
  let every = if cycles > 0 then max 1 (actions / (cycles + 1)) else max_int in
  for i = 0 to actions - 1 do
    commit_value ~seq:i ~name:(Printf.sprintf "k%d" (i mod 8)) ~v:i;
    if (i + 1) mod every = 0 && (i + 1) / every <= cycles then
      Rs.housekeep rs (if (i + 1) / every mod 2 = 0 then Rs.Snapshot else Rs.Compaction)
  done;
  let time_it f =
    let t0 = Sys.time () in
    let r = f () in
    (r, (Sys.time () -. t0) *. 1e6)
  in
  (* Crash: everything volatile is gone; both paths rebuild from [dir]. *)
  let (rs_s, report_s), us_s =
    time_it (fun () -> Core.Tables.Recovery_report.measure (fun () -> Rs.recover dir))
  in
  let stats = ref [] in
  let (rs_p, report_p), us_p =
    time_it (fun () ->
        Core.Tables.Recovery_report.measure (fun () -> Rs.recover_parallel ~stats dir))
  in
  let entries r = r.Core.Tables.Recovery_report.info.Core.Tables.Recovery_info.entries_processed in
  let stable_int h name =
    Heap.with_snapshot h (fun s ->
        match Heap.snapshot_var h s name with
        | Some (Value.Ref a) -> (
            match Heap.snapshot_read h s a with Value.Int v -> Some v | _ -> None)
        | Some _ | None -> None)
  in
  let diverged =
    List.filter_map
      (fun k ->
        let name = Printf.sprintf "k%d" k in
        let s = stable_int (Rs.heap rs_s) name and p = stable_int (Rs.heap rs_p) name in
        if s <> p then Some name else None)
      (List.init 8 Fun.id)
  in
  if json then print_endline (Rs_obs.Metrics.to_json Rs_obs.Metrics.default)
  else begin
    let log = Rs.log rs_p in
    Printf.printf "log: %d live entries, %d live bytes, %d segments (%d housekeeping cycles)\n"
      (Log.forced_count log) (Log.live_bytes log)
      (List.length (Log.segment_table log))
      cycles;
    Printf.printf "serial:   entries=%-6d reads=%-6d %8.0f us\n" (entries report_s)
      (Log.entry_reads (Rs.log rs_s))
      us_s;
    Printf.printf "parallel: entries=%-6d reads=%-6d %8.0f us\n" (entries report_p)
      (Log.entry_reads (Rs.log rs_p))
      us_p;
    print_endline "segment readers:";
    List.iter
      (fun (s : Log.segment_scan) ->
        Printf.printf "  seg %-3d base=%-7d len=%-6d frames=%-5d first=%s\n" s.Log.scan_id
          s.Log.scan_base s.Log.scan_len s.Log.scan_frames
          (match s.Log.scan_first with Some a -> string_of_int a | None -> "-"))
      !stats
  end;
  match diverged with
  | [] ->
      if not json then print_endline "serial and parallel images agree ✓";
      0
  | names ->
      Printf.eprintf "IMAGE DIVERGENCE on %s\n" (String.concat ", " names);
      1

let recover_cmd =
  let actions =
    Arg.(value & opt int 400 & info [ "actions" ] ~doc:"Committed actions before the crash.")
  in
  let cycles =
    Arg.(value
         & opt int 3
         & info [ "cycles" ] ~docv:"N" ~doc:"Housekeeping passes spread through the run.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the metrics registry as JSON.") in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Crash a churned segmented log and compare serial chain-walk recovery with the \
             segment-parallel scan, including per-segment reader statistics.")
    Term.(const recover_demo $ actions $ cycles $ json)

let repl_cmd =
  let actions = Arg.(value & opt int 40 & info [ "actions" ] ~doc:"Client actions to run.") in
  let failover_at =
    Arg.(value
         & opt int 20
         & info [ "failover-at" ] ~docv:"N"
             ~doc:"Crash the primary and promote after N actions (0 = never).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the metrics registry as JSON.") in
  Cmd.v
    (Cmd.info "repl"
       ~doc:"Run a replicated guardian pair (log shipping), fail over mid-run, and print the \
             replication status, metrics and spec-monitor verdict.")
    Term.(const repl $ seed_arg $ actions $ failover_at $ json)

(* nemesis: seeded fault composition (decay + partition + crash, plus
   standby promotion in replicated mode) under any load profile, judged by
   every oracle and spec monitor. *)

let nemesis seed seeds profile_name guardians clients duration events replicated break_barging =
  let profile =
    match profile_name with
    | _ when replicated -> Rs_load.Load.Synthetic
    | "synthetic" -> Rs_load.Load.Synthetic
    | "bank" -> Rs_load.Load.Bank
    | "reservation" -> Rs_load.Load.Reservation
    | "queue" -> Rs_load.Load.Queue
    | "saga" -> Rs_load.Load.Saga
    | s ->
        Printf.eprintf "unknown profile %s (synthetic|bank|reservation|queue|saga)\n" s;
        exit 2
  in
  let profile_name = if replicated then "synthetic" else profile_name in
  let cfg =
    {
      Rs_explore.Nemesis.default with
      profile;
      guardians;
      clients;
      duration;
      events;
      replicated;
    }
  in
  let failures =
    Rs_util.Fault_hook.with_mutations
      (if break_barging then [ Rs_objstore.Heap.Read_barging ] else [])
      (fun () ->
        List.init seeds (fun i ->
            let cfg = { cfg with seed = seed + i } in
            Printf.printf "== nemesis seed=%d profile=%s%s ==\n" cfg.seed profile_name
              (if replicated then " replicated" else "");
            let o = Rs_explore.Nemesis.run cfg in
            Format.printf "%a@." Rs_explore.Nemesis.pp_outcome o;
            o.violations <> [])
        |> List.filter Fun.id |> List.length)
  in
  if failures > 0 then 1 else 0

let nemesis_cmd =
  let seeds =
    Arg.(value & opt int 1 & info [ "seeds" ] ~docv:"N" ~doc:"Consecutive seeds to run, starting at --seed.")
  in
  let profile =
    Arg.(value & opt string "bank" & info [ "profile" ] ~doc:"synthetic|bank|reservation|queue|saga.")
  in
  let guardians = Arg.(value & opt int 3 & info [ "guardians" ] ~doc:"Traffic-bearing shards.") in
  let clients = Arg.(value & opt int 6 & info [ "clients" ] ~doc:"Closed-loop client population.") in
  let duration =
    Arg.(value & opt float 120.0 & info [ "duration" ] ~docv:"T" ~doc:"Virtual-time load window.")
  in
  let events =
    Arg.(value & opt int 6 & info [ "events" ] ~docv:"N" ~doc:"Fault events per run.")
  in
  let replicated =
    Arg.(value & flag
         & info [ "replicated" ]
             ~doc:"Attach a warm standby to shard 0; crashes of that shard promote it \
                   (synthetic profile, directory-routed).")
  in
  let break_barging =
    Arg.(value & flag
         & info [ "break-barging" ]
             ~doc:"Seed a bug (read locks barge past queued writers, the pre-wait-queue \
                   behaviour) to prove the lock-legality monitor catches it.")
  in
  Cmd.v
    (Cmd.info "nemesis"
       ~doc:"Run seeded fault schedules (disk decay, partitions, crashes, failovers) under \
             load and judge the run with every oracle and spec monitor.")
    Term.(const nemesis $ seed_arg $ seeds $ profile $ guardians $ clients $ duration $ events
          $ replicated $ break_barging)

(* walkthrough: replay the thesis's log scenarios (Figs. 3-7, 3-8, 3-10)
   and print the resulting tables, like the thesis's "at algorithm's end,
   the PT and OT contain" paragraphs. *)

let walkthrough () =
  let module Le = Core.Log_entry in
  let module Uid = Rs_util.Uid in
  let aid n = Rs_util.Aid.make ~coordinator:(Rs_util.Gid.of_int 0) ~seq:n in
  let fint = Rs_objstore.Fvalue.of_int in
  let replay title entries =
    Printf.printf "\n--- %s ---\n" title;
    let dir = Rs_slog.Log_dir.create ~page_size:256 () in
    let log = Rs_slog.Log_dir.current dir in
    List.iter (fun e -> ignore (Rs_slog.Stable_log.write log (Le.encode e))) entries;
    Rs_slog.Stable_log.force log;
    print_endline "log (forward order):";
    (match Rs_slog.Stable_log.get_top log with
    | None -> ()
    | Some top ->
        Rs_slog.Stable_log.read_backward log top
        |> List.of_seq |> List.rev
        |> List.iter (fun (a, raw) -> Format.printf "  L%-4d %a@." a Le.pp (Le.decode raw)));
    let _, info = Core.Simple_rs.recover dir in
    print_endline "recovered tables:";
    Format.printf "%a@." Core.Tables.Recovery_info.pp info
  in
  let t1 = aid 1 and t2 = aid 2 in
  let o1 = Uid.of_int 1 and o2 = Uid.of_int 2 in
  replay "Figure 3-7: atomic objects (T1 committed, T2 prepared)"
    [
      Le.Base_committed { uid = o1; version = fint 10; prev = None };
      Le.Base_committed { uid = o2; version = fint 20; prev = None };
      Le.Data { uid = Some o2; otype = Le.Atomic; aid = Some t1; version = fint 21 };
      Le.Prepared { aid = t1; pairs = None; prev = None };
      Le.Committed { aid = t1; prev = None };
      Le.Data { uid = Some o1; otype = Le.Atomic; aid = Some t2; version = fint 11 };
      Le.Prepared { aid = t2; pairs = None; prev = None };
    ];
  replay "Figure 3-8: mutex objects (T2 prepared then aborted)"
    [
      Le.Data { uid = Some o1; otype = Le.Mutex; aid = Some t1; version = fint 100 };
      Le.Data { uid = Some o2; otype = Le.Mutex; aid = Some t1; version = fint 200 };
      Le.Prepared { aid = t1; pairs = None; prev = None };
      Le.Committed { aid = t1; prev = None };
      Le.Data { uid = Some o1; otype = Le.Mutex; aid = Some t2; version = fint 101 };
      Le.Prepared { aid = t2; pairs = None; prev = None };
      Le.Aborted { aid = t2; prev = None };
    ];
  replay "Figure 3-10: a guardian as coordinator and participant"
    [
      Le.Base_committed { uid = o1; version = fint 10; prev = None };
      Le.Data { uid = Some o1; otype = Le.Atomic; aid = Some t1; version = fint 11 };
      Le.Prepared { aid = t1; pairs = None; prev = None };
      Le.Committed { aid = t1; prev = None };
      Le.Base_committed { uid = o2; version = fint 20; prev = None };
      Le.Data { uid = Some o2; otype = Le.Atomic; aid = Some t2; version = fint 21 };
      Le.Prepared { aid = t2; pairs = None; prev = None };
      Le.Committing { aid = t2; gids = [ Rs_util.Gid.of_int 1; Rs_util.Gid.of_int 2 ]; prev = None };
      Le.Committed { aid = t2; prev = None };
      Le.Done { aid = t2; prev = None };
    ];
  0

let walkthrough_cmd =
  Cmd.v
    (Cmd.info "walkthrough"
       ~doc:"Replay the thesis's simple-log scenarios and print the recovered tables.")
    Term.(const walkthrough $ const ())

let () =
  let doc = "reliable object storage to support atomic actions — simulator CLI" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "argusctl" ~doc)
          [
            bank_cmd;
            churn_cmd;
            log_cmd;
            verify_cmd;
            walkthrough_cmd;
            stats_cmd;
            trace_cmd;
            explore_cmd;
            shards_cmd;
            repl_cmd;
            recover_cmd;
            nemesis_cmd;
          ]))
