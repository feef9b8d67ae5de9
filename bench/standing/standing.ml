(* The standing benchmark. One workload per invocation:

     standing.exe --workload mixed|update-open|crash-restart
                  [--seed N] [--seconds S] [--trace 0|1]

   --trace 0 repeats the timed phase in-process (a fresh system each time,
   same seed) for at least three repetitions and at least S seconds, and
   reports the end-to-end metrics. --trace 1 adds a traced repetition
   (wall spans at the benchmark's call sites, a trace ring that never
   wraps), a repetition with tracing disabled and, on update-open, the
   capacity ladder, and reports the per-layer metrics. Every metric is
   printed by name and unit; the last line is one JSON object. Any failed
   correctness gate makes the exit code 1. *)

module D = Harness

let min_reps = 3
let latency_limit = 20.0 (* the system's lock-wait timeout *)
let ladder_ops = 1000

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }
let ratio a b = if b = 0.0 then 0.0 else a /. b
let delta (r : D.result) n = float_of_int (List.assoc n r.deltas)
let ops (r : D.result) = float_of_int (r.updates + r.reads)
let p (a : float array) permille = if a = [||] then 0.0 else Stats.nearest_rank a ~permille

(* Repetitions replay identical work, so the median over repetitions of
   each window's CPU (of each restart's wall time) drops a burst of
   machine noise that hit only one repetition. *)
let per_index_median samples =
  let n = List.fold_left (fun n a -> min n (Array.length a)) max_int samples in
  Array.init n (fun i -> Stats.median (List.map (fun a -> a.(i)) samples))

let cpu_us_per_op reps =
  let windows = per_index_median (List.map (fun (r : D.result) -> r.window_cpu) reps) in
  1e6 *. ratio (Array.fold_left ( +. ) 0.0 windows) (ops (List.hd reps))

let restart_ms reps =
  per_index_median
    (List.map
       (fun (r : D.result) -> Array.of_list (List.map (fun (x : D.restart) -> x.ms) r.restarts))
       reps)
  |> Array.to_list |> Stats.sorted

(* Everything a repetition measures in virtual time or counts: identical
   for every repetition of one seed, traced or not. *)
let fingerprint (r : D.result) =
  [
    ("launched", float_of_int r.launched);
    ("updates", float_of_int r.updates);
    ("reads", float_of_int r.reads);
    ("abandoned", float_of_int r.abandoned);
    ("update_attempts", float_of_int r.update_attempts);
    ("update_p50_vt", p r.update_lat 500);
    ("update_p99_vt", p r.update_lat 990);
    ("elapsed_vt", r.elapsed_vt);
    ("space_amp", r.space_amp);
    ("windows", float_of_int (Array.length r.window_cpu));
    ("restarts", float_of_int (List.length r.restarts));
    ("restart_entries", float_of_int (List.fold_left (fun a (x : D.restart) -> a + x.entries) 0 r.restarts));
    ("restart_page_reads", float_of_int (List.fold_left (fun a (x : D.restart) -> a + x.page_reads) 0 r.restarts));
  ]
  @ List.filter_map
      (fun (n, v) -> if n = "trace.total" then None else Some (n, float_of_int v))
      r.deltas

let gates (w : D.workload) (reps : D.result list) =
  let first = List.hd reps in
  let fp = fingerprint first in
  List.concat
    (List.mapi
       (fun i (r : D.result) ->
         let tag e = Printf.sprintf "rep %d: %s" (i + 1) e in
         let n = Array.length r.update_lat in
         List.map tag r.errors
         @ (if Stats.supported ~n ~permille:990 then []
            else [ tag (Printf.sprintf "%d update samples cannot support p99" n) ])
         @ (if w.D.read_frac > 0.0 && r.reads = 0 then [ tag "no read committed" ] else [])
         @ List.filter_map
             (fun ((name, a), (_, b)) ->
               if a = b then None
               else Some (tag (Printf.sprintf "%s is %.17g, rep 1 had %.17g" name b a)))
             (List.combine fp (fingerprint r)))
       reps)
  @
  let n = Array.length (restart_ms reps) in
  if Stats.supported ~n ~permille:900 then []
  else [ Printf.sprintf "%d restarts cannot support p90" n ]

(* Largest gap between an update's trace-derived parts and the latency its
   handle measured. *)
let sum_error (t : D.result) =
  List.fold_left
    (fun acc (lat, b) ->
      match b with Ok b -> Float.max acc (Float.abs (Breakdown.total b -. lat)) | Error _ -> acc)
    0.0 t.breakdown

(* The parts telescope, so they sum exactly up to float rounding. *)
let breakdown_gates (t : D.result) =
  let negative (b : Breakdown.parts) =
    List.exists (fun x -> x < -1e-9) [ b.retry; b.lock_wait; b.exec; b.prepare; b.decide ]
  in
  List.filter_map (fun (_, b) -> match b with Error e -> Some e | Ok _ -> None) t.breakdown
  @ (if List.exists (fun (_, b) -> match b with Ok b -> negative b | Error _ -> false) t.breakdown
     then [ "a breakdown part is negative" ]
     else [])
  @
  if sum_error t > 1e-9 then [ Printf.sprintf "breakdown parts miss the latency by %g vt" (sum_error t) ]
  else []

let end_to_end (reps : D.result list) =
  let r = List.hd reps in
  let med f = Stats.median (List.map f reps) in
  [
    m "setup_s" "s" (med (fun r -> r.D.setup_s));
    m "cpu_us_per_op" "us" (cpu_us_per_op reps);
    m "live_mb" "MiB" (med (fun r -> r.D.live_mb));
    m "update_p50_vt" "vt" (p r.update_lat 500);
    m "update_p99_vt" "vt" (p r.update_lat 990);
    m "throughput_ops_per_vt" "ops/vt" (ratio (ops r) r.elapsed_vt);
    m "restart_p50_ms" "ms" (p (restart_ms reps) 500);
    m "restart_p90_ms" "ms" (p (restart_ms reps) 900);
    m "space_amp" "x" r.space_amp;
  ]

(* Per-layer metrics from the traced repetition [t]; [timed_cpu] and
   [untraced_cpu] are CPU per op with the default trace ring and with
   tracing disabled. *)
let per_layer (w : D.workload) (t : D.result) ~timed_cpu ~untraced_cpu ~capacity =
  let sp = t.spans in
  let upd = float_of_int t.updates and reads = float_of_int t.reads in
  let us ns n = ratio (float_of_int ns /. 1000.0) (float_of_int n) in
  let restarts = float_of_int (List.length t.restarts) in
  let entries = List.fold_left (fun a (x : D.restart) -> a + x.entries) 0 t.restarts in
  let restart_total_ms = List.fold_left (fun a (x : D.restart) -> a +. x.ms) 0.0 t.restarts in
  let page_reads = List.fold_left (fun a (x : D.restart) -> a + x.page_reads) 0 t.restarts in
  let parts = List.filter_map (fun (_, b) -> Result.to_option b) t.breakdown in
  let p99 = p t.update_lat 990 in
  let tail =
    List.filter_map
      (fun (lat, b) -> match b with Ok b when lat >= p99 -> Some b | Ok _ | Error _ -> None)
      t.breakdown
  in
  let mean = Breakdown.mean parts and tmean = Breakdown.mean tail in
  let vt prefix (b : Breakdown.parts) =
    [
      m (prefix ^ "lock_wait") "vt" b.lock_wait;
      m (prefix ^ "exec") "vt" b.exec;
      m (prefix ^ "prepare") "vt" b.prepare;
      m (prefix ^ "decide") "vt" b.decide;
      m (prefix ^ "retry") "vt" b.retry;
    ]
  in
  [
    m "heap.lookup_us" "us" (us sp.lookup_ns sp.lookups);
    m "heap.lock_rw_us" "us" (us sp.lock_ns sp.lock_calls);
    m "heap.lock_waits_per_update" "waits/update" (ratio (float_of_int sp.parked) upd);
    m "heap.read_locks_per_read" "locks/read" (ratio (float_of_int sp.read_locks) reads);
    m "mvcc.chain_len_max" "versions" (float_of_int sp.chain_max);
    m "guardian.submit_us" "us" (us sp.submit_self_ns sp.submits);
    m "guardian.ro_op_us" "us" (us sp.ro_ns sp.ro_ops);
    m "guardian.commit_ratio" "ratio" (ratio upd (float_of_int t.update_attempts));
    m "guardian.wait_aborts" "aborts" (delta t "guardian.wait_aborts");
    m "dir.cross_frac" "ratio" (ratio (delta t "dir.cross_routes") (delta t "dir.routes"));
    m "loop.self_us_per_update" "us" (ratio (float_of_int sp.loop_self_ns /. 1000.0) upd);
    m "sim.events_per_op" "events/op" (ratio (delta t "sim.events") (ops t));
    m "net.msgs_per_update" "msgs/update" (ratio (delta t "net.sent") upd);
    m "twopc.retries" "retries" (delta t "twopc.retries");
    m "twopc.prepare_timeouts" "timeouts" (delta t "twopc.prepare_timeouts");
    m "core.entries_per_update" "entries/update" (ratio (delta t "hybrid_rs.entries_written") upd);
    m "core.checkpoints_per_kupdate" "count/kupdate"
      (1000.0 *. ratio (delta t "guardian.housekeeping_runs") upd);
    m "core.restart_entries" "entries" (ratio (float_of_int entries) restarts);
    m "core.restart_us_per_entry" "us/entry" (ratio (1000.0 *. restart_total_ms) (float_of_int entries));
    m "slog.forces_per_update" "forces/update" (ratio (delta t "slog.forces") upd);
    m "slog.entries_per_force" "entries/force"
      (ratio (delta t "hybrid_rs.entries_written") (delta t "slog.forces"));
    m "slog.empty_flushes_per_update" "flushes/update"
      (ratio (delta t "slog.group_commits" -. delta t "slog.forces") upd);
    m "slog.bytes_per_update" "bytes/update" (ratio (delta t "slog.force_bytes.sum") upd);
    m "slog.cache_hit_ratio" "ratio"
      (ratio (delta t "slog.cache_hits") (delta t "slog.cache_hits" +. delta t "slog.cache_misses"));
    m "storage.page_writes_per_update" "pages/update" (ratio (delta t "disk.writes") upd);
    m "storage.page_reads_per_update" "pages/update" (ratio (delta t "disk.reads") upd);
    m "storage.write_rounds_per_update" "rounds/update"
      (ratio (delta t "stable_store.write_rounds") upd);
    m "storage.write_amp" "x"
      (ratio
         (delta t "disk.writes" *. float_of_int t.page_size)
         (upd *. float_of_int (D.keys_per_op * w.D.payload)));
    m "storage.restart_page_reads" "pages/restart" (ratio (float_of_int page_reads) restarts);
    m "obs.trace_events_per_op" "events/op" (ratio (delta t "trace.total") (ops t));
    m "obs.trace_share" "ratio" (1.0 -. ratio untraced_cpu timed_cpu);
    m "bench.span_overhead" "x" (ratio (cpu_us_per_op [ t ]) timed_cpu);
  ]
  @ vt "vt." mean @ vt "vt.tail." tmean
  @ [ m "vt.sum_error" "vt" (sum_error t); m "ladder.capacity_ops_per_vt" "ops/vt" capacity ]

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else invalid_arg "non-finite metric"

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun x -> Printf.printf "  %-32s %22.6f %s\n" x.name x.value x.unit_) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed body

let describe label (r : D.result) =
  Printf.printf
    "%s: setup %.3f s, cpu %.1f us/op over %d ops (%d updates, %d reads, %d abandoned), \
     update p50 %.3f p99 %.3f vt, %d restarts p50 %.3f ms\n%!"
    label r.setup_s (cpu_us_per_op [ r ]) (r.updates + r.reads) r.updates r.reads r.abandoned
    (p r.update_lat 500) (p r.update_lat 990) (List.length r.restarts) (p (restart_ms [ r ]) 500)

(* A discarded quarter-length repetition first: the process's first
   repetition otherwise runs measurably slower while the heap grows. *)
let timed w ~seed ~seconds =
  ignore (D.rep ~probe:false { w with D.duration = w.D.duration /. 4.0 } ~seed : D.result);
  let t0 = Unix.gettimeofday () in
  let rec go acc =
    let n = List.length acc in
    if n >= min_reps && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else begin
      let r = D.rep w ~seed in
      describe (Printf.sprintf "rep %d" (n + 1)) r;
      go (r :: acc)
    end
  in
  go []

let rung w ~seed rate =
  let w = { w with D.loop = D.Open { rate }; duration = float_of_int ladder_ops /. rate } in
  let r = D.rep ~probe:false w ~seed in
  Printf.printf "ladder %.2f ops/vt: update p99 %.3f vt, %d abandoned\n%!" rate (p r.update_lat 990)
    r.abandoned;
  (r, Stats.rung_passes ~limit:latency_limit ~p99:(p r.update_lat 990) ~failed:r.abandoned)

let run w ~seed ~seconds ~trace =
  let reps = timed w ~seed ~seconds in
  let sum f rs = List.fold_left (fun a r -> a + f r) 0 rs in
  if not trace then
    (gates w reps, sum (fun r -> r.D.launched) reps, sum (fun r -> r.D.abandoned) reps, end_to_end reps)
  else begin
    (* Same seed, same events: the last repetition's count sizes a ring
       that the traced repetition must not wrap. *)
    let ring = Rs_obs.Trace.total () + 1024 in
    Rs_obs.Trace.set_capacity ring;
    let t = D.rep ~traced:true w ~seed in
    describe "traced" t;
    let wrapped = Rs_obs.Trace.total () > ring in
    Rs_obs.Trace.set_capacity 8192;
    Rs_obs.Trace.set_enabled false;
    let u = D.rep w ~seed in
    Rs_obs.Trace.set_enabled true;
    describe "untraced" u;
    let ladder_errors = ref [] in
    (* The ladder needs an open loop without injected crashes, whose
       p99 would fail every rung; it climbs from the workload's own rate. *)
    let capacity =
      match w.D.loop with
      | D.Open { rate } when w.D.crash_every = 0.0 ->
          Stats.ladder ~start:rate ~step:0.25 ~max_rungs:24 ~passes:(fun rate ->
              let r, ok = rung w ~seed rate in
              ladder_errors :=
                !ladder_errors @ List.map (Printf.sprintf "ladder %.2f: %s" rate) r.errors;
              ok)
      | D.Open _ | D.Closed _ -> 0.0
    in
    let errors =
      gates w (reps @ [ t; u ])
      @ (if wrapped then [ "the trace ring wrapped in the traced repetition" ] else [])
      @ breakdown_gates t @ !ladder_errors
    in
    let metrics =
      per_layer w t
        ~timed_cpu:(cpu_us_per_op reps) ~untraced_cpu:(cpu_us_per_op [ u ]) ~capacity
    in
    (errors, t.launched, t.abandoned, metrics)
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0.0 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " mixed | update-open | crash-restart");
      ("--seed", Arg.Set_int seed, " input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, " least wall time spent repeating the timed phase");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
    ]
  in
  let usage = "standing.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.find_opt (fun w -> w.D.name = !workload) D.workloads with
  | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
      prerr_endline "--trace takes 0 or 1";
      exit 2
  | Some w ->
      let errors, attempted, failed, metrics =
        run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      in
      List.iteri (fun i e -> if i < 20 then Printf.printf "GATE FAILED: %s\n" e) errors;
      if List.length errors > 20 then Printf.printf "GATE FAILED: %d more\n" (List.length errors - 20);
      print_result ~correct:(errors = []) ~attempted ~failed metrics;
      if errors <> [] then exit 1
