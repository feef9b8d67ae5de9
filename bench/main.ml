(* Benchmark harness regenerating every comparative claim of the thesis.

   The thesis (Oki, MIT/LCS/TR-308) has no measured tables — its Ch. 6
   explicitly leaves measurement to future work — so EXPERIMENTS.md defines
   one experiment per comparative claim and per figure, and this harness
   regenerates all of them:

     e1  commit-path cost vs stable-state size     (§1.2.2 claims 1–2)
     e2  recovery cost vs log length               (§1.2.2, §4.1)
     e3  housekeeping: compaction vs snapshot      (§5.3)
     e4  recovery cost with vs without checkpoint  (§5.0)
     e5  prepare latency with early prepare        (§4.4)
     e6  combined cost crossover vs crash rate     (§1.2.2 assumption)
     e7  2PC crash matrix                          (§2.2.3)
     e8  group commit: forces/commit vs concurrency
     e9  log footprint & recovery vs history under segment reclamation
     e10 load: throughput & tail latency vs concurrency/conflict/loss
     e11 directory: committed/sec vs shard count x cross-shard ratio
     e12 replication: ship overhead + failover vs cold restart
     e13 bounded restart: incremental checkpoints + parallel recovery
     e14 nemesis: committed work & availability under fault schedules

   Usage: dune exec bench/main.exe [-- e1|e2|...|e14|bechamel|all]
   The default runs every experiment plus the Bechamel microbenchmarks. *)

module Scheme = Rs_workload.Scheme
module Synth = Rs_workload.Synth
module Heap = Rs_objstore.Heap
module Value = Rs_objstore.Value
module Gid = Rs_util.Gid

let now () = Unix.gettimeofday ()

let time_it f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let header title = Printf.printf "\n=== %s ===\n" title
let row fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* e1 — writing cost per committed action vs stable-state size.
   Claim (§1.2.2): log organizations write fast regardless of state
   size; shadowing rewrites the map on every commit, so its cost grows
   with the number of objects. *)

let e1 () =
  header "e1: commit-path cost vs stable-state size (§1.2.2 claims 1-2)";
  row "%-8s %8s %14s %14s %12s\n" "scheme" "objects" "pages/commit" "log entries" "us/commit";
  List.iter
    (fun n ->
      List.iter
        (fun scheme ->
          let t = Synth.create ~seed:42 ~scheme ~n_objects:n ~payload_bytes:64 () in
          (* Warm up one action so allocation effects settle. *)
          Synth.run_random_actions t ~n:1 ~objects_per_action:2 ();
          let w0 = Scheme.physical_writes scheme in
          let acts = 100 in
          let _, dt =
            time_it (fun () -> Synth.run_random_actions t ~n:acts ~objects_per_action:2 ())
          in
          let dw = Scheme.physical_writes scheme - w0 in
          row "%-8s %8d %14.1f %14d %12.1f\n" (Scheme.name scheme) n
            (float_of_int dw /. float_of_int acts)
            (Scheme.log_entries scheme)
            (dt /. float_of_int acts *. 1e6);
          (* Recovery probe: feeds <scheme>_rs.recovery_entries so the
             exported metrics carry the §1.2.2 recovery-cost comparison. *)
          ignore (Scheme.crash_recover scheme))
        (Scheme.all ()))
    [ 16; 64; 256; 1024 ];
  print_endline "shape: simple/hybrid flat in #objects; shadow grows linearly (map rewrite)."

(* ------------------------------------------------------------------ *)
(* e2 — recovery cost vs log length.
   Claim: simple-log recovery reads every entry; hybrid reads only the
   outcome chain plus needed data entries; shadowing recovery is
   proportional to the state, not the history. *)

let recovery_cost scheme_t =
  let (recovered, info), dt = time_it (fun () -> Scheme.crash_recover scheme_t) in
  ignore recovered;
  (Core.Tables.Recovery_report.entries_processed info, dt *. 1e6)

let e2 () =
  header "e2: recovery cost vs log length (§1.2.2, §4.1)";
  row "%-8s %8s %18s %12s\n" "scheme" "actions" "entries processed" "us/recover";
  List.iter
    (fun history ->
      List.iter
        (fun scheme ->
          let t = Synth.create ~seed:7 ~scheme ~n_objects:64 ~payload_bytes:64 () in
          Synth.run_random_actions t ~n:history ~objects_per_action:2 ~abort_rate:0.1 ();
          let entries, us = recovery_cost (Synth.scheme t) in
          row "%-8s %8d %18d %12.1f\n" (Scheme.name scheme) history entries us)
        (Scheme.all ()))
    [ 50; 200; 800 ];
  print_endline
    "shape: simple grows fastest (reads all), hybrid grows slower (outcome chain only),\n\
     shadow flat (reads the map, not the history).";
  (* Ablation: give simple and hybrid the SAME snapshot-checkpoint
     discipline (every 100 actions); the residual difference is the
     chain-following benefit alone. *)
  row "\nablation: with a snapshot checkpoint every 100 actions\n";
  row "%-8s %8s %18s %12s\n" "scheme" "actions" "entries processed" "us/recover";
  List.iter
    (fun history ->
      List.iter
        (fun scheme ->
          let t = Synth.create ~seed:7 ~scheme ~n_objects:64 ~payload_bytes:64 () in
          let remaining = ref history in
          while !remaining > 0 do
            let batch = min 100 !remaining in
            Synth.run_random_actions t ~n:batch ~objects_per_action:2 ~abort_rate:0.1 ();
            remaining := !remaining - batch;
            if !remaining > 0 then Scheme.housekeep scheme Scheme.Snapshot
          done;
          let entries, us = recovery_cost (Synth.scheme t) in
          row "%-8s %8d %18d %12.1f\n" (Scheme.name scheme) history entries us)
        [ Scheme.simple (); Scheme.hybrid () ])
    [ 200; 800 ];
  print_endline
    "shape: checkpoints bound both; between checkpoints the hybrid still\n\
     processes fewer entries (skips data entries of committed actions)."

(* ------------------------------------------------------------------ *)
(* e3 — housekeeping: compaction vs snapshot.
   Claim (§5.3): snapshot time is roughly proportional to the number of
   accessible objects; compaction must additionally process every
   outcome entry in the log, so it grows with history. *)

(* One checkpoint of a seeded history: its wall time, plus deterministic
   gauges for what §5.3 compares — the new log's entries and stream bytes,
   and the old-log entries the checkpoint read. The reads are counted on
   a second run of the same history stopped after stage one, while its
   old log is still open; nothing runs between the slices here, so stage
   one does all of the checkpoint's reading. *)
let hk_run ~sweep ~objects ~history technique =
  let build () =
    let t =
      Synth.create ~seed:11 ~scheme:(Scheme.hybrid ()) ~n_objects:objects ~payload_bytes:64 ()
    in
    Synth.run_random_actions t ~n:history ~objects_per_action:2 ~abort_rate:0.1 ();
    Synth.scheme t
  in
  let scheme = build () in
  let _, dt = time_it (fun () -> Scheme.housekeep scheme technique) in
  let log = Option.get (Scheme.current_log scheme) in
  let staged = build () in
  let old = Option.get (Scheme.current_log staged) in
  let reads0 = Rs_slog.Stable_log.entry_reads old in
  Scheme.housekeep_first_slice staged technique;
  let gauge metric v =
    Rs_obs.Metrics.set
      (Rs_obs.Metrics.gauge
         (Printf.sprintf "e3.%s.%s.%s" sweep
            (match technique with Scheme.Compaction -> "compaction" | Scheme.Snapshot -> "snapshot")
            metric))
      v
  in
  gauge "new_entries" (Rs_slog.Stable_log.entry_count log);
  gauge "new_bytes" (Rs_slog.Stable_log.stream_bytes log);
  gauge "old_reads" (Rs_slog.Stable_log.entry_reads old - reads0);
  dt *. 1e6

let e3 () =
  header "e3: housekeeping duration, compaction vs snapshot (§5.3)";
  row "sweep A: history grows, 64 objects fixed\n";
  row "%10s %16s %16s\n" "actions" "compaction us" "snapshot us";
  List.iter
    (fun history ->
      let run = hk_run ~sweep:(Printf.sprintf "a.h%d" history) ~objects:64 ~history in
      row "%10d %16.1f %16.1f\n" history (run Scheme.Compaction) (run Scheme.Snapshot))
    [ 100; 400; 1600 ];
  row "sweep B: objects grow, 200 actions fixed\n";
  row "%10s %16s %16s\n" "objects" "compaction us" "snapshot us";
  List.iter
    (fun objects ->
      let run = hk_run ~sweep:(Printf.sprintf "b.n%d" objects) ~objects ~history:200 in
      row "%10d %16.1f %16.1f\n" objects (run Scheme.Compaction) (run Scheme.Snapshot))
    [ 16; 64; 256; 1024 ];
  print_endline
    "shape: compaction grows with history (sweep A) and state (sweep B);\n\
     snapshot tracks only the state size — the thesis's argument for snapshots.\n\
     gauges e3.<sweep>.<technique>.{new_entries,new_bytes,old_reads} carry the counts."

(* ------------------------------------------------------------------ *)
(* e4 — recovery cost with vs without a checkpoint. *)

let e4 () =
  header "e4: recovery cost with vs without housekeeping checkpoint (§5.0)";
  let t =
    Synth.create ~seed:13 ~scheme:(Scheme.hybrid ()) ~n_objects:64 ~payload_bytes:64 ()
  in
  Synth.run_random_actions t ~n:1000 ~objects_per_action:2 ();
  let entries_before, us_before = recovery_cost (Synth.scheme t) in
  Scheme.housekeep (Synth.scheme t) Scheme.Snapshot;
  Synth.run_random_actions t ~n:20 ~objects_per_action:2 ();
  let entries_after, us_after = recovery_cost (Synth.scheme t) in
  row "%-28s %10s %12s\n" "" "entries" "us/recover";
  row "%-28s %10d %12.1f\n" "1000 actions, no checkpoint" entries_before us_before;
  row "%-28s %10d %12.1f\n" "snapshot + 20 actions" entries_after us_after;
  Printf.printf "speedup: %.1fx fewer entries\n"
    (float_of_int entries_before /. float_of_int (max entries_after 1))

(* ------------------------------------------------------------------ *)
(* e5 — early prepare (§4.4): the prepare call itself gets cheaper when
   data entries were written ahead of the prepare message. *)

let e5 () =
  header "e5: prepare latency with vs without early prepare (§4.4)";
  row "%12s %18s %18s\n" "objects/act" "plain prepare us" "early-prepared us";
  List.iter
    (fun k ->
      let run ~early =
        let heap = Heap.create () in
        let dir = Rs_slog.Log_dir.create () in
        let rs = Core.Hybrid_rs.create heap dir in
        let aid n = Rs_util.Aid.make ~coordinator:(Gid.of_int 0) ~seq:n in
        let addrs =
          List.init k (fun i ->
              let a =
                Heap.alloc_atomic heap ~creator:(aid 0)
                  (Value.Tup [| Value.Int 0; Value.Str (String.make 128 'x') |])
              in
              Heap.set_stable_var heap (aid 0) (Printf.sprintf "o%d" i) (Value.Ref a);
              a)
        in
        Core.Hybrid_rs.prepare rs (aid 0) (Heap.mos heap (aid 0));
        Core.Hybrid_rs.commit rs (aid 0);
        Heap.commit_action heap (aid 0);
        let total = ref 0.0 in
        let reps = 50 in
        for r = 1 to reps do
          let t = aid r in
          List.iter
            (fun a ->
              Heap.set_current heap t a
                (Value.Tup [| Value.Int r; Value.Str (String.make 128 'x') |]))
            addrs;
          (* With early prepare, write_entry has already logged the MOS;
             the prepare call receives only the leftovers — here none
             (§4.4: "the MOS contains objects that had not already been
             early prepared"). *)
          let leftovers =
            if early then Core.Hybrid_rs.write_entry rs t (Heap.mos heap t)
            else Heap.mos heap t
          in
          (* Measure only the prepare call — what the participant's reply
             latency depends on. *)
          let _, dt = time_it (fun () -> Core.Hybrid_rs.prepare rs t leftovers) in
          total := !total +. dt;
          Core.Hybrid_rs.commit rs t;
          Heap.commit_action heap t
        done;
        !total /. float_of_int reps *. 1e6
      in
      row "%12d %18.2f %18.2f\n" k (run ~early:false) (run ~early:true))
    [ 1; 4; 16; 64 ];
  print_endline "shape: early prepare moves the flatten+write cost off the prepare path."

(* ------------------------------------------------------------------ *)
(* e6 — combined cost: writing + crash_rate x recovery. The thesis's
   design assumption (§1.2.2): crashes are rare, so prefer fast writing;
   this table shows where each organization wins as crashes get more
   frequent. Costs are measured, per action, at 256 objects with 200
   actions in the log when the crash hits. *)

let e6 () =
  header "e6: combined cost per action vs crash rate (§1.2.2 assumption)";
  let measure scheme =
    let t = Synth.create ~seed:17 ~scheme ~n_objects:256 ~payload_bytes:64 () in
    Synth.run_random_actions t ~n:10 ~objects_per_action:2 ();
    let acts = 200 in
    let _, wt =
      time_it (fun () -> Synth.run_random_actions t ~n:acts ~objects_per_action:2 ())
    in
    let write_us = wt /. float_of_int acts *. 1e6 in
    let _, rus = recovery_cost (Synth.scheme t) in
    (write_us, rus)
  in
  let costs = List.map (fun s -> (Scheme.name s, measure s)) (Scheme.all ()) in
  row "%-10s %14s %14s\n" "scheme" "write us/act" "recover us";
  List.iter (fun (n, (w, r)) -> row "%-10s %14.1f %14.1f\n" n w r) costs;
  row "\ncombined cost per action (write + p_crash x recovery):\n";
  row "%-12s" "p(crash)/act";
  List.iter (fun (n, _) -> row " %12s" n) costs;
  row " %12s\n" "winner";
  List.iter
    (fun p ->
      row "%-12s" (Printf.sprintf "%g" p);
      let vals = List.map (fun (n, (w, r)) -> (n, w +. (p *. r))) costs in
      List.iter (fun (_, v) -> row " %12.1f" v) vals;
      let winner =
        List.fold_left
          (fun (bn, bv) (n, v) -> if v < bv then (n, v) else (bn, bv))
          ("-", infinity) vals
      in
      row " %12s\n" (fst winner))
    [ 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1 ];
  print_endline
    "shape: at realistic (low) crash rates the log organizations win on writing;\n\
     as crashes dominate, fast recovery pays — the §1.2.2 trade-off."

(* ------------------------------------------------------------------ *)
(* e7 — the §2.2.3 crash matrix over the full distributed stack. *)

let e7 () =
  header "e7: 2PC crash matrix (§2.2.3)";
  let module System = Rs_guardian.System in
  let module Sim = Rs_sim.Sim in
  let g = Gid.of_int in
  let set_var name v : System.work =
   fun heap aid ->
    match Heap.get_stable_var heap name with
    | Some (Value.Ref a) -> Heap.set_current heap aid a (Value.Int v)
    | Some _ -> failwith "bad var"
    | None ->
        let a = Heap.alloc_atomic heap ~creator:aid (Value.Int v) in
        Heap.set_stable_var heap aid name (Value.Ref a)
  in
  let stable_int gd name =
    let heap = Rs_guardian.Guardian.heap gd in
    Heap.with_snapshot heap (fun s ->
        match Heap.snapshot_var heap s name with
        | Some (Value.Ref a) -> (
            match Heap.snapshot_read heap s a with Value.Int v -> Some v | _ -> None)
        | Some _ | None -> None)
  in
  row "%-14s %10s %10s %8s\n" "crash victim" "committed" "aborted" "split";
  List.iter
    (fun (victim, label) ->
      let committed = ref 0 and aborted = ref 0 and split = ref 0 in
      for crash_after = 1 to 40 do
        let sys = System.create ~n:2 () in
        ignore
          (System.await sys
             (System.submit sys ~coordinator:(g 0) ~steps:[ (g 0, set_var "x" 1) ]));
        ignore
          (System.await sys
             (System.submit sys ~coordinator:(g 0) ~steps:[ (g 1, set_var "y" 1) ]));
        System.quiesce sys;
        ignore
          (System.submit sys ~coordinator:(g 0)
             ~steps:[ (g 0, set_var "x" 2); (g 1, set_var "y" 2) ]);
        let rec steps n = if n > 0 && Sim.step (System.sim sys) then steps (n - 1) in
        steps crash_after;
        System.crash sys victim;
        ignore (System.restart sys victim);
        System.quiesce sys;
        match
          ( stable_int (System.guardian sys (g 0)) "x",
            stable_int (System.guardian sys (g 1)) "y" )
        with
        | Some 2, Some 2 -> incr committed
        | Some 1, Some 1 -> incr aborted
        | _ -> incr split
      done;
      row "%-14s %10d %10d %8d%s\n" label !committed !aborted !split
        (if !split = 0 then "  (atomic at every crash point)" else "  ATOMICITY VIOLATED"))
    [ (g 1, "participant"); (g 0, "coordinator") ]

(* ------------------------------------------------------------------ *)
(* e8 — group commit: physical writes and forces per committed action
   vs concurrency, batched (window > 0) against unbatched (window 0),
   for both logged schemes. Concurrent clients on a virtual-time
   simulator run chained actions through the asynchronous commit path;
   with a batching window the outcome entries of co-resident actions
   ride one force, so forces/commit and pages/commit drop as
   concurrency grows. Results are exported as e8.* gauges so check.sh
   can assert the claimed reduction from BENCH_3.json. *)

let e8_window = ref 2.0

let e8 () =
  header "e8: group commit — forces and pages per commit vs concurrency";
  let module Sim = Rs_sim.Sim in
  let module Fsched = Rs_slog.Force_scheduler in
  let actions_per_client = 32 in
  let run scheme_name ~conc ~window =
    let scheme =
      match scheme_name with "simple" -> Scheme.simple () | _ -> Scheme.hybrid ()
    in
    let t = Synth.create ~seed:42 ~scheme ~n_objects:conc ~payload_bytes:64 () in
    let sim = Sim.create ~seed:7 () in
    let sched = Option.get (Scheme.scheduler scheme) in
    if window > 0.0 then
      Fsched.configure sched ~window
        ~timer:(Some (fun ~delay k -> Sim.schedule sim ~delay k));
    let log () = Option.get (Scheme.current_log scheme) in
    let w0 = Scheme.physical_writes scheme and f0 = Rs_slog.Stable_log.forces (log ()) in
    let commits = ref 0 in
    for c = 0 to conc - 1 do
      let rec act k =
        if k < actions_per_client then
          Synth.run_action_async t ~indices:[ c ] ~outcome:`Commit
            ~on_done:(fun () ->
              incr commits;
              Sim.schedule sim ~delay:0.5 (fun () -> act (k + 1)))
      in
      Sim.schedule sim ~delay:(0.1 *. float_of_int (c + 1)) (fun () -> act 0)
    done;
    ignore (Sim.run sim);
    let dw = Scheme.physical_writes scheme - w0
    and df = Rs_slog.Stable_log.forces (log ()) - f0 in
    (!commits, dw, df)
  in
  row "%-8s %6s %8s %10s %12s %12s %14s\n" "scheme" "conc" "window" "commits"
    "forces/act" "pages/act" "write speedup";
  List.iter
    (fun scheme_name ->
      List.iter
        (fun conc ->
          let variants =
            List.map
              (fun (label, window) ->
                let commits, dw, df = run scheme_name ~conc ~window in
                List.iter
                  (fun (metric, v) ->
                    Rs_obs.Metrics.set
                      (Rs_obs.Metrics.gauge
                         (Printf.sprintf "e8.%s.c%d.%s.%s" scheme_name conc label metric))
                      v)
                  [ ("commits", commits); ("physical_writes", dw); ("forces", df) ];
                (label, window, commits, dw, df))
              [ ("nobatch", 0.0); ("batch", !e8_window) ]
          in
          let base_w =
            match variants with (_, _, c, dw, _) :: _ -> float_of_int dw /. float_of_int c | [] -> nan
          in
          List.iter
            (fun (label, window, commits, dw, df) ->
              let per x = float_of_int x /. float_of_int (max commits 1) in
              row "%-8s %6d %8g %10d %12.2f %12.2f %14s\n" scheme_name conc window commits
                (per df) (per dw)
                (if label = "batch" then Printf.sprintf "%.1fx" (base_w /. per dw) else "-"))
            variants)
        [ 1; 4; 8; 16 ])
    [ "simple"; "hybrid" ];
  print_endline
    "shape: at window 0 every commit pays its own forces; with a batching window\n\
     co-resident outcome entries share forces, so pages and forces per commit fall\n\
     as concurrency grows — the group-commit claim."

(* ------------------------------------------------------------------ *)
(* e9 — log footprint and recovery cost vs history length under online
   segment reclamation. Each housekeeping checkpoint raises the old
   log's low-water mark past its whole stream, so the switch retires
   every old segment; provisioned pages should then track the live
   checkpoint, not the accumulated history. Control: the same scheme
   never housekeeping (footprint and recovery grow with history).
   Results are exported as e9.* gauges so check.sh can assert the
   reclamation bound from BENCH_4.json. *)

let e9 () =
  header "e9: log footprint & recovery vs history under segment reclamation";
  let acts_per_cycle = 40 in
  let run ~variant ~cycles =
    let scheme = Scheme.hybrid ~page_size:512 ~segment_pages:4 () in
    let t = Synth.create ~seed:91 ~scheme ~n_objects:16 ~payload_bytes:24 () in
    for _ = 1 to cycles do
      Synth.run_random_actions t ~n:acts_per_cycle ~objects_per_action:2 ~abort_rate:0.1 ();
      if variant <> `Nohk then Scheme.housekeep scheme Scheme.Snapshot
    done;
    let dir = Option.get (Scheme.log_dir scheme) in
    let live_pages = Rs_slog.Log_dir.live_pages dir in
    let live_segments = Rs_slog.Log_dir.live_segments dir in
    let retired = Rs_slog.Log_dir.segments_retired dir in
    let entries, us = recovery_cost (Synth.scheme t) in
    (live_pages, live_segments, retired, entries, us)
  in
  row "%-8s %7s %12s %10s %10s %12s %12s\n" "variant" "cycles" "live pages" "live segs"
    "retired" "rec entries" "us/recover";
  List.iter
    (fun (label, variant) ->
      List.iter
        (fun cycles ->
          let live_pages, live_segments, retired, entries, us = run ~variant ~cycles in
          List.iter
            (fun (metric, v) ->
              Rs_obs.Metrics.set
                (Rs_obs.Metrics.gauge (Printf.sprintf "e9.%s.c%d.%s" label cycles metric))
                v)
            [
              ("live_pages", live_pages);
              ("live_segments", live_segments);
              ("retired_segments", retired);
              ("recovery_entries", entries);
            ];
          row "%-8s %7d %12d %10d %10d %12d %12.1f\n" label cycles live_pages live_segments
            retired entries us)
        [ 2; 5; 10 ])
    [ ("seg", `Seg); ("nohk", `Nohk) ];
  print_endline
    "shape: with housekeeping + segments, live pages and recovery entries are flat in\n\
     history (retired grows instead); without housekeeping both grow with history —\n\
     reclamation makes log cost a function of live state, not of time."

(* ------------------------------------------------------------------ *)
(* e10 — load generator: throughput and tail latency under the wait-
   queue runtime. Closed-loop sweeps over concurrency (fixed 10%
   conflict: committed/sec must scale, p99 must stay bounded — waiting
   FIFO beats abort-and-retry), over conflict probability at fixed
   concurrency (the saturation knee), and over message loss (retry
   cost); then an open-loop arrival sweep against a per-guardian
   admission cap, where shedding, not collapse, absorbs overload.
   Results are exported as e10.* gauges so check.sh can assert scaling
   and the p99 bound from BENCH_5.json. *)

let e10 () =
  header "e10: load — throughput & tail latency vs concurrency, conflict, loss";
  let module Load = Rs_load.Load in
  let base =
    {
      Load.default with
      guardians = 2;
      duration = 300.0;
      objects_per_guardian = 8;
      conflict = 0.1;
    }
  in
  row "%-16s %9s %8s %8s %7s %7s %11s %7s %7s\n" "variant" "committed" "aborted"
    "retries" "sheds" "w-t/o" "thr/unit" "p50" "p99";
  let run label cfg =
    let s = Load.run cfg in
    List.iter
      (fun (metric, v) ->
        Rs_obs.Metrics.set
          (Rs_obs.Metrics.gauge (Printf.sprintf "e10.%s.%s" label metric))
          v)
      [
        ("committed", s.Load.committed);
        ("sheds", s.Load.sheds);
        ("throughput_x1000", int_of_float (s.Load.throughput *. 1000.0));
        ("p99_x10", int_of_float (s.Load.p99 *. 10.0));
      ];
    row "%-16s %9d %8d %8d %7d %7d %11.3f %7.1f %7.1f\n" label s.Load.committed
      s.Load.aborted s.Load.retries s.Load.sheds s.Load.wait_timeouts s.Load.throughput
      s.Load.p50 s.Load.p99
  in
  List.iter
    (fun conc ->
      run
        (Printf.sprintf "conc%d" conc)
        { base with mode = Load.Closed { clients = conc; think = 1.0 } })
    [ 1; 4; 8; 16; 32 ];
  List.iter
    (fun pct ->
      run
        (Printf.sprintf "conflict%d" pct)
        {
          base with
          conflict = float_of_int pct /. 100.0;
          mode = Load.Closed { clients = 16; think = 1.0 };
        })
    [ 0; 50; 90 ];
  List.iter
    (fun pct ->
      run
        (Printf.sprintf "drop%d" pct)
        {
          base with
          drop = float_of_int pct /. 100.0;
          mode = Load.Closed { clients = 16; think = 1.0 };
        })
    [ 2; 5 ];
  List.iter
    (fun rate10 ->
      run
        (Printf.sprintf "open%d" rate10)
        {
          base with
          mode = Load.Open { rate = float_of_int rate10 /. 10.0 };
          max_in_flight = Some 8;
        })
    [ 5; 20; 80 ];
  print_endline
    "shape: closed-loop throughput scales with clients while 10%-conflict p99 stays\n\
     bounded (FIFO lock waits, not abort storms); high conflict bends the curve at\n\
     the hot object's service rate; drops cost retries, not correctness; open-loop\n\
     overload is absorbed by admission-control sheds instead of queue collapse."

(* e11 — sharded placement directory: committed actions vs shard count
   at fixed per-shard load (closed loop, clients = 3 x shards), with and
   without cross-shard traffic. Objects are global keys placed by hash;
   uids come from the master's batched reservations; cross-shard
   operations run 2PC across two shards picked by placement. The claim:
   adding shards adds throughput — per-shard load is constant, so total
   committed work should rise with the shard count, and a 10% cross-shard
   mix pays a 2PC tax but must not flatten the curve. Results are
   exported as e11.* gauges so check.sh can assert scaling from
   BENCH_6.json. *)

let e11 () =
  header "e11: directory — committed/sec vs shard count x cross-shard ratio";
  let module Load = Rs_load.Load in
  row "%-16s %9s %8s %8s %9s %11s %7s\n" "variant" "committed" "aborted" "retries"
    "reroutes" "thr/unit" "p99";
  let run label cfg =
    let s = Load.run cfg in
    List.iter
      (fun (metric, v) ->
        Rs_obs.Metrics.set
          (Rs_obs.Metrics.gauge (Printf.sprintf "e11.%s.%s" label metric))
          v)
      [
        ("committed", s.Load.committed);
        ("throughput_x1000", int_of_float (s.Load.throughput *. 1000.0));
        ("p99_x10", int_of_float (s.Load.p99 *. 10.0));
      ];
    row "%-16s %9d %8d %8d %9d %11.3f %7.1f\n" label s.Load.committed s.Load.aborted
      s.Load.retries s.Load.reroutes s.Load.throughput s.Load.p99
  in
  List.iter
    (fun cross_pct ->
      List.iter
        (fun shards ->
          run
            (Printf.sprintf "s%d.x%d" shards cross_pct)
            {
              Load.default with
              guardians = shards;
              directory = true;
              cross_shard = float_of_int cross_pct /. 100.0;
              uid_batch = 64;
              duration = 300.0;
              objects_per_guardian = 8;
              conflict = 0.1;
              mode = Load.Closed { clients = 3 * shards; think = 1.0 };
            })
        [ 1; 2; 4; 8 ])
    [ 0; 10 ];
  print_endline
    "shape: per-shard load is fixed (3 clients/shard), so committed work scales\n\
     with the shard count; the 10% cross-shard mix adds 2PC rounds between two\n\
     shards per crossing action — a latency tax, not a scaling ceiling."

(* e12 — replication: ship overhead on the commit path, and failover vs
   cold restart at the same log length. The pair ships every forced
   entry to a warm standby, so the commit path pays serialization plus
   one message per force; the payoff is failover — promoting the warm
   image skips the log replay a cold restart must do, so time from
   primary death to the first new commit drops. Results are exported as
   e12.* gauges so check.sh can assert the failover win from
   BENCH_7.json. *)

let e12 () =
  header "e12: replication — ship overhead + failover vs cold restart";
  let module System = Rs_guardian.System in
  let module Pair = Rs_repl.Repl.Pair in
  let g = Gid.of_int in
  let counter name = Rs_obs.Metrics.counter_value (Rs_obs.Metrics.counter name) in
  let gauge name v = Rs_obs.Metrics.set (Rs_obs.Metrics.gauge ("e12." ^ name)) v in
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
  let run_actions sys target n =
    let committed = ref 0 in
    for _ = 1 to n do
      match
        System.await sys (System.submit sys ~coordinator:target ~steps:[ (target, bump) ])
      with
      | System.Committed -> incr committed
      | System.Aborted -> ()
    done;
    System.quiesce sys;
    !committed
  in
  (* Part 1 — commit-path overhead: the same committed workload with and
     without a standby attached. *)
  let acts = 300 in
  let solo_committed, solo_us =
    let sys = System.create ~seed:51 ~latency:1.0 ~n:2 () in
    let c, dt = time_it (fun () -> run_actions sys (g 0) acts) in
    (c, dt *. 1e6)
  in
  let repl_committed, repl_us, ship_bytes =
    let sys = System.create ~seed:51 ~latency:1.0 ~n:2 () in
    let b0 = counter "repl.ship_bytes" in
    let p = Pair.create ~system:sys ~primary:(g 0) ~standby:(g 1) () in
    let c, dt = time_it (fun () -> run_actions sys (g 0) acts) in
    assert (Pair.lag_entries p = 0);
    (c, dt *. 1e6, counter "repl.ship_bytes" - b0)
  in
  row "%-10s %9s %12s %10s\n" "variant" "committed" "us/commit" "ship KiB";
  row "%-10s %9d %12.1f %10s\n" "solo" solo_committed (solo_us /. float_of_int acts) "-";
  row "%-10s %9d %12.1f %10.1f\n" "replicated" repl_committed
    (repl_us /. float_of_int acts)
    (float_of_int ship_bytes /. 1024.0);
  gauge "solo.committed" solo_committed;
  gauge "repl.committed" repl_committed;
  gauge "solo.us" (int_of_float solo_us);
  gauge "repl.us" (int_of_float repl_us);
  gauge "ship_bytes" ship_bytes;
  (* Part 2 — failover vs cold restart over an identical history: time
     from primary death to the first new committed action. *)
  let history = 600 in
  let build seed =
    let sys = System.create ~seed ~latency:1.0 ~n:2 () in
    let p = Pair.create ~system:sys ~primary:(g 0) ~standby:(g 1) () in
    ignore (run_actions sys (g 0) history);
    Pair.crash p (g 0);
    System.quiesce sys (* in-flight ships land before the driver acts *);
    (sys, p)
  in
  let cold_entries, cold_us =
    let sys, p = build 52 in
    let report, dt =
      time_it (fun () ->
          let report = Pair.restart_primary p in
          ignore (run_actions sys (g 0) 1);
          report)
    in
    (Core.Tables.Recovery_report.entries_processed report, dt *. 1e6)
  in
  let failover_entries, failover_us =
    let sys, p = build 52 in
    assert (Pair.promotable p);
    let applied =
      match Pair.replica p with Some r -> Rs_repl.Repl.Replica.applied_entries r | None -> 0
    in
    let _, dt =
      time_it (fun () ->
          ignore (Pair.promote p);
          ignore (run_actions sys (g 1) 1))
    in
    (applied, dt *. 1e6)
  in
  row "%-10s %16s %14s\n" "driver" "entries scanned" "us to commit";
  row "%-10s %16d %14.0f\n" "cold" cold_entries cold_us;
  row "%-10s %16d %14.0f\n" "failover" 0 failover_us;
  gauge "cold.entries" cold_entries;
  gauge "cold.us" (int_of_float cold_us);
  gauge "failover.us" (int_of_float failover_us);
  gauge "failover.applied_entries" failover_entries;
  Printf.printf
    "shape: shipping pays one encoded copy per force (%d KiB over %d commits); failover\n\
     promotes the warm image without rescanning the %d-entry log a cold restart replays,\n\
     so time-to-first-commit drops (%0.0f us vs %0.0f us here).\n"
    (ship_bytes / 1024) repl_committed cold_entries failover_us cold_us

(* ------------------------------------------------------------------ *)
(* e13 — bounded restart: incremental background checkpointing keeps the
   live log (and hence restart cost) flat as history grows, and
   segment-parallel recovery replaces the chain walk's per-entry random
   reads with one bulk read per live segment. The wall clock of an
   in-memory store shows parity between the two recovery paths — the
   decisive column is read operations against stable storage, which is
   what a seek-bound 1985 disk charges for. *)

let e13 () =
  header "e13: bounded restart — incremental checkpoints + segment-parallel recovery";
  let module Rs = Core.Hybrid_rs in
  let module Log = Rs_slog.Stable_log in
  let module Log_dir = Rs_slog.Log_dir in
  let gauge name v = Rs_obs.Metrics.set (Rs_obs.Metrics.gauge ("e13." ^ name)) v in
  let aid n = Rs_util.Aid.make ~coordinator:(Gid.of_int 0) ~seq:n in
  let per_cycle = 200 in
  (* [hk = true] interleaves a full incremental checkpoint with the
     commits of each cycle — a few chain-walk slices per commit, exactly
     what the Guardian fiber does over virtual time. [hk = false] is the
     unbounded control: history just accumulates. *)
  let build ~hk cycles =
    let heap = Heap.create () in
    let dir = Log_dir.create ~page_size:256 ~segment_pages:4 () in
    let rs = Rs.create heap dir in
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
    let total = per_cycle * cycles in
    let job = ref None in
    for i = 0 to total - 1 do
      commit_value ~seq:i ~name:(Printf.sprintf "k%d" (i mod 8)) ~v:i;
      (* A few chain-walk slices per commit: the walk must outpace the
         ~3 entries each commit appends, or the checkpoint never lands. *)
      (match !job with
      | Some j -> if Rs.hk_step rs j ~budget:16 then job := None
      | None -> ());
      if hk && !job = None && (i + 1) mod per_cycle = 0 && i + 1 < total then
        job := Some (Rs.hk_start rs Rs.Compaction)
    done;
    (* The crash lands wherever the slices happen to be — no final drain. *)
    dir
  in
  (* Serial and parallel recoveries alternate, so a change in machine
     speed during the measurement (frequency scaling, a busy neighbour)
     falls on both sides alike, and each side keeps its best of [reps].
     A full major collection before each run, outside the timing, keeps
     one recovery's garbage from being collected on the next one's
     clock. *)
  let reps = 9 in
  let min_us_alternating f g =
    let best_f = ref infinity and best_g = ref infinity in
    let run h best =
      Gc.full_major ();
      let _, dt = time_it h in
      best := Float.min !best dt
    in
    for _ = 1 to reps do
      run f best_f;
      run g best_g
    done;
    (!best_f *. 1e6, !best_g *. 1e6)
  in
  row "%-6s %7s %9s %13s %13s %11s %11s %10s %10s\n" "label" "cycles" "commits" "log entries"
    "entries" "serial ops" "scan ops" "serial us" "par us";
  List.iter
    (fun (label, hk) ->
      List.iter
        (fun cycles ->
          let dir = build ~hk cycles in
          (* A crash discards everything volatile; both paths rebuild the
             same image from the directory alone. *)
          let rs_s = ref None and rs_p = ref None and stats = ref [] in
          let serial_us, parallel_us =
            min_us_alternating
              (fun () -> rs_s := Some (Rs.recover dir))
              (fun () -> rs_p := Some (Rs.recover_parallel ~stats dir))
          in
          let rs_s, info = Option.get !rs_s in
          let rs_p, _ = Option.get !rs_p in
          let entries = info.Core.Tables.Recovery_info.entries_processed in
          let log_entries = Log.forced_count (Log_dir.current dir) in
          (* Read operations each cold restart issued against stable
             storage: the chain walk reads one entry at a time; the
             partitioned scan slurps each live segment once. *)
          let serial_ops = Log.entry_reads (Rs.log rs_s) in
          let scan_ops =
            List.length (List.filter (fun s -> s.Log.scan_first <> None) !stats)
          in
          ignore (Rs.log rs_p);
          row "%-6s %7d %9d %13d %13d %11d %11d %10.0f %10.0f\n" label cycles
            (per_cycle * cycles) log_entries entries serial_ops scan_ops serial_us parallel_us;
          let p = Printf.sprintf "%s.c%d" label cycles in
          gauge (p ^ ".log_entries") log_entries;
          gauge (p ^ ".entries") entries;
          gauge (p ^ ".serial_read_ops") serial_ops;
          gauge (p ^ ".scan_read_ops") scan_ops;
          gauge (p ^ ".serial_us") (int_of_float serial_us);
          gauge (p ^ ".parallel_us") (int_of_float parallel_us))
        [ 2; 5; 10 ])
    [ ("nohk", false); ("inc", true) ];
  print_endline
    "shape: without checkpoints the log and restart cost grow with history; with\n\
     incremental checkpoints both stay flat at roughly one cycle of tail. The\n\
     partitioned scan issues ~40x fewer stable-storage read operations than the\n\
     chain walk at equal wall time on an in-memory store."

(* e14 — nemesis under load: committed work, availability-adjusted
   throughput, and the oracle/monitor verdict for each workload profile
   under a seeded fault schedule (decay + partition + crash), plus the
   replicated variant whose crash of the paired shard promotes the warm
   standby. The decisive column is violations: it must read 0 on every
   row, and check.sh asserts exactly that from the e14.* gauges in
   BENCH_9.json. *)

let e14 () =
  header "e14: nemesis — committed work & availability under fault schedules";
  let module Nemesis = Rs_explore.Nemesis in
  let module Load = Rs_load.Load in
  let gauge name v = Rs_obs.Metrics.set (Rs_obs.Metrics.gauge ("e14." ^ name)) v in
  let base = { Nemesis.default with duration = 80.0; events = 6; clients = 6 } in
  let rows =
    [
      ("synthetic", { base with seed = 2; profile = Load.Synthetic });
      ("bank", { base with seed = 3; profile = Load.Bank });
      ("reservation", { base with seed = 5; profile = Load.Reservation });
      ("queue", { base with seed = 7; profile = Load.Queue });
      ("saga", { base with seed = 11; profile = Load.Saga });
      (* Seed 4 crashes the paired shard while the replica is current:
         the standby is promoted instead of cold-restarted. *)
      ("repl", { base with seed = 4; profile = Load.Synthetic; replicated = true });
    ]
  in
  row "%-11s %5s %10s %8s %7s %9s %11s %11s\n" "profile" "seed" "committed" "aborted"
    "events" "downtime" "thpt/avail" "violations";
  List.iter
    (fun (label, cfg) ->
      let o = Nemesis.run cfg in
      let s = o.Nemesis.stats in
      let promoted =
        List.exists (fun (e : Nemesis.fired) -> e.kind = "promote") o.fired
      in
      row "%-11s %5d %10d %8d %7d %9.1f %11.2f %10d%s\n" label cfg.Nemesis.seed s.committed
        s.aborted (List.length o.fired) s.nemesis_downtime s.throughput
        (List.length o.violations)
        (if promoted then " (promoted)" else "");
      gauge (label ^ ".committed") s.committed;
      gauge (label ^ ".aborted") s.aborted;
      gauge (label ^ ".events") (List.length o.fired);
      gauge (label ^ ".downtime_x10") (int_of_float (s.nemesis_downtime *. 10.0));
      gauge (label ^ ".violations") (List.length o.violations);
      if label = "repl" then gauge "repl.promoted" (if promoted then 1 else 0))
    rows;
  print_endline
    "shape: every profile keeps committing through the fault schedule and every row's\n\
     verdict is violations=0 — the invariants hold under decay, partitions, crashes,\n\
     and (repl row) a real failover; throughput is charged only for available time."

(* e15 — MVCC snapshot reads: a read-mostly (90/10) closed-loop sweep
   over concurrency at fixed 10% write conflict, comparing the locked
   baseline (read-only work runs as ordinary Update actions whose reads
   take read locks and can wait or time out) against MVCC snapshot reads
   (the same traffic submitted ~mode:Read_only, served from a committed
   snapshot with zero lock-table traffic). The claims, asserted by
   check.sh from the e15.* gauges in BENCH_10.json: every mvcc row takes
   zero read locks and aborts zero reads, the conc-32 mvcc row sees zero
   wait timeouts, and mvcc read p99 stays strictly below both the paired
   locked row and the e10 all-update locked baseline. *)

let e15 () =
  header "e15: mvcc — snapshot reads vs locked reads, 90/10 read-mostly";
  let module Load = Rs_load.Load in
  let gauge name v = Rs_obs.Metrics.set (Rs_obs.Metrics.gauge ("e15." ^ name)) v in
  let read_locks () =
    Option.value ~default:0
      (Rs_obs.Metrics.find_counter Rs_obs.Metrics.default "heap.read_locks_taken")
  in
  let base =
    {
      Load.default with
      guardians = 2;
      duration = 300.0;
      objects_per_guardian = 8;
      conflict = 0.1;
      read_fraction = 0.9;
    }
  in
  row "%-12s %9s %8s %9s %8s %7s %8s %7s %7s %7s\n" "variant" "r-commit" "r-abort"
    "w-commit" "w-abort" "w-t/o" "r-locks" "r-p50" "r-p99" "p99";
  let run label cfg =
    let locks0 = read_locks () in
    let s = Load.run cfg in
    let locks = read_locks () - locks0 in
    List.iter
      (fun (metric, v) -> gauge (Printf.sprintf "%s.%s" label metric) v)
      [
        ("reads_committed", s.Load.reads_committed);
        ("reads_aborted", s.Load.reads_aborted);
        ("committed", s.Load.committed);
        ("wait_timeouts", s.Load.wait_timeouts);
        ("read_locks", locks);
        ("read_p50_x10", int_of_float (s.Load.read_p50 *. 10.0));
        ("read_p99_x10", int_of_float (s.Load.read_p99 *. 10.0));
        ("p99_x10", int_of_float (s.Load.p99 *. 10.0));
      ];
    row "%-12s %9d %8d %9d %8d %7d %8d %7.1f %7.1f %7.1f\n" label s.Load.reads_committed
      s.Load.reads_aborted s.Load.committed s.Load.aborted s.Load.wait_timeouts locks
      s.Load.read_p50 s.Load.read_p99 s.Load.p99
  in
  List.iter
    (fun conc ->
      let mode = Load.Closed { clients = conc; think = 1.0 } in
      run (Printf.sprintf "locked.c%d" conc) { base with mode; locked_reads = true };
      run (Printf.sprintf "mvcc.c%d" conc) { base with mode })
    [ 1; 4; 8; 16; 32 ];
  print_endline
    "shape: locked reads queue behind writers — read tail latency grows with\n\
     concurrency and readers burn wait timeouts at conc 32; the same traffic as\n\
     snapshot reads takes zero read locks, aborts nothing, and holds a flat read\n\
     p99 — readers never block writers and writers never block readers."

let bechamel_suite () =
  header "bechamel microbenchmarks (ns per operation, OLS estimate)";
  let open Bechamel in
  let commit_kernel scheme =
    let t = Synth.create ~seed:23 ~scheme ~n_objects:64 ~payload_bytes:64 () in
    Staged.stage (fun () -> Synth.run_random_actions t ~n:1 ~objects_per_action:2 ())
  in
  let recovery_kernel scheme =
    let t = Synth.create ~seed:29 ~scheme ~n_objects:64 ~payload_bytes:64 () in
    Synth.run_random_actions t ~n:100 ~objects_per_action:2 ();
    Staged.stage (fun () -> ignore (Scheme.crash_recover (Synth.scheme t)))
  in
  let housekeep_kernel technique =
    let t =
      Synth.create ~seed:31 ~scheme:(Scheme.hybrid ()) ~n_objects:64 ~payload_bytes:64 ()
    in
    Synth.run_random_actions t ~n:100 ~objects_per_action:2 ();
    Staged.stage (fun () ->
        Synth.run_random_actions t ~n:20 ~objects_per_action:2 ();
        Scheme.housekeep (Synth.scheme t) technique)
  in
  (* The page path: one checksum per careful put and per agreeing get. A
     16-byte input is the size of a key that [Placement.shard_of_key]
     hashes on every routed operation. *)
  let page = String.init 1024 (fun i -> Char.chr (i land 0xFF)) in
  let key = String.sub page 0 16 in
  let crc_kernel s = Staged.stage (fun () -> ignore (Rs_util.Crc32.string s : int32)) in
  let store_kernel =
    let store = Rs_storage.Stable_store.create ~pages:1 () in
    Staged.stage (fun () ->
        Rs_storage.Stable_store.put store 0 page;
        ignore (Rs_storage.Stable_store.get store 0 : string option))
  in
  (* The stable-variable root: one lookup per call on a 256-binding
     root, cycling through every name, through the base version and
     through a snapshot held open across the run. *)
  let vars_heap = Heap.create () in
  let var_names = Array.init 256 (Printf.sprintf "v%d") in
  let binder = Rs_util.Aid.make ~coordinator:(Gid.of_int 0) ~seq:1 in
  Array.iteri (fun i n -> Heap.set_stable_var vars_heap binder n (Value.Int i)) var_names;
  Heap.commit_action vars_heap binder;
  let next_var = ref 0 in
  let var () =
    next_var := (!next_var + 1) land 255;
    var_names.(!next_var)
  in
  let lookup_kernel =
    Staged.stage (fun () -> ignore (Heap.get_stable_var vars_heap (var ()) : Value.t option))
  in
  let vars_snapshot = Heap.snapshot vars_heap in
  let snapshot_var_kernel =
    Staged.stage (fun () ->
        ignore (Heap.snapshot_var vars_heap vars_snapshot (var ()) : Value.t option))
  in
  (* The version path: a §5.2 snapshot encodes every base straight from
     the heap, and a restart decodes and rebuilds each one. The root binds
     256 atomic objects, as the standing workloads' roots do; the object
     is a 1 KiB string, crash-restart's payload. *)
  let module Codec = Rs_util.Codec in
  let module Flatten = Rs_objstore.Flatten in
  let root_heap = Heap.create () in
  Array.iter
    (fun n ->
      let a = Heap.alloc_atomic root_heap ~creator:binder (Value.Int 0) in
      Heap.set_stable_var root_heap binder n (Value.Ref a))
    var_names;
  Heap.commit_action root_heap binder;
  let root = (Heap.atomic_view root_heap (Heap.root_addr root_heap)).base in
  let version_enc = Codec.Enc.create ~size:65536 () in
  let encode_kernel v =
    Staged.stage (fun () ->
        Codec.Enc.clear version_enc;
        Flatten.encode root_heap version_enc v)
  in
  let root_bytes =
    let e = Codec.Enc.create () in
    Flatten.encode root_heap e root;
    Codec.Enc.contents e
  in
  let rebuild_kernel =
    Staged.stage (fun () ->
        let fv = Rs_objstore.Fvalue.decode (Codec.Dec.of_string root_bytes) in
        ignore (Flatten.rebuild root_heap fv : Value.t))
  in
  let tests =
    Test.make_grouped ~name:"argus"
      [
        Test.make_grouped ~name:"e1-commit"
          (List.map (fun s -> Test.make ~name:(Scheme.name s) (commit_kernel s)) (Scheme.all ()));
        Test.make_grouped ~name:"e2-recovery"
          (List.map
             (fun s -> Test.make ~name:(Scheme.name s) (recovery_kernel s))
             (Scheme.all ()));
        Test.make_grouped ~name:"e3-housekeeping"
          [
            Test.make ~name:"compaction" (housekeep_kernel Scheme.Compaction);
            Test.make ~name:"snapshot" (housekeep_kernel Scheme.Snapshot);
          ];
        Test.make_grouped ~name:"page-path"
          [
            Test.make ~name:"crc32-16B" (crc_kernel key);
            Test.make ~name:"crc32-1KiB" (crc_kernel page);
            Test.make ~name:"store-put-get-1KiB" store_kernel;
          ];
        Test.make_grouped ~name:"stable-vars"
          [
            Test.make ~name:"get_stable_var-256" lookup_kernel;
            Test.make ~name:"snapshot_var-256" snapshot_var_kernel;
          ];
        Test.make_grouped ~name:"version-path"
          [
            Test.make ~name:"encode-root-256" (encode_kernel root);
            Test.make ~name:"encode-object-1KiB" (encode_kernel (Value.Str page));
            Test.make ~name:"decode-rebuild-root-256" rebuild_kernel;
          ];
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~stabilize:false () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | Some [] | None -> nan
        in
        (name, est) :: acc)
      results []
    |> List.sort compare
  in
  List.iter (fun (name, ns) -> row "%-40s %14.0f ns/run\n" name ns) rows

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", e1);
    ("e2", e2);
    ("e3", e3);
    ("e4", e4);
    ("e5", e5);
    ("e6", e6);
    ("e7", e7);
    ("e8", e8);
    ("e9", e9);
    ("e10", e10);
    ("e11", e11);
    ("e12", e12);
    ("e13", e13);
    ("e14", e14);
    ("e15", e15);
    ("bechamel", bechamel_suite);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* [--metrics-json PATH]: dump the Rs_obs registry after the run. *)
  let metrics_json, args =
    let rec strip acc = function
      | "--metrics-json" :: path :: rest -> (Some path, List.rev_append acc rest)
      | [ "--metrics-json" ] ->
          Printf.eprintf "--metrics-json requires a path argument\n";
          exit 2
      | x :: rest -> strip (x :: acc) rest
      | [] -> (None, List.rev acc)
    in
    strip [] args
  in
  (* [--force-window W]: batching window (virtual time) for e8's batched
     variant; 0 degenerates to the unbatched baseline. *)
  let args =
    let rec strip acc = function
      | "--force-window" :: w :: rest -> (
          match float_of_string_opt w with
          | Some w when w >= 0.0 ->
              e8_window := w;
              List.rev_append acc rest
          | Some _ | None ->
              Printf.eprintf "--force-window requires a non-negative number\n";
              exit 2)
      | [ "--force-window" ] ->
          Printf.eprintf "--force-window requires a value argument\n";
          exit 2
      | x :: rest -> strip (x :: acc) rest
      | [] -> List.rev acc
    in
    strip [] args
  in
  let to_run =
    match args with
    | [] | [ "all" ] -> experiments
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> (n, f)
            | None ->
                Printf.eprintf "unknown experiment %s (e1..e15, bechamel, all)\n" n;
                exit 2)
          names
  in
  print_endline "Reliable Object Storage to Support Atomic Actions — benchmark harness";
  print_endline "(thesis has no measured tables; experiments per EXPERIMENTS.md)";
  (* The always-on spec monitors judge each experiment's own trace: a
     bench that committed without a covering force, or shipped backwards,
     is a bug regardless of its numbers. Clearing first resets the
     monitors' folds, so each experiment is judged on exactly its own
     events, all of them. *)
  List.iter
    (fun (name, f) ->
      Rs_obs.Trace.clear ();
      f ();
      Rs_obs.Monitor.assert_ok ~where:name ())
    to_run;
  match metrics_json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Rs_obs.Metrics.to_json Rs_obs.Metrics.default);
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nmetrics written to %s\n" path
