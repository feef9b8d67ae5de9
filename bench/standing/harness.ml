(* The standing benchmark's harness: seeded virtual clients issuing
   logical operations through the public Directory/System API, one
   simulated system per repetition. *)

module System = Rs_guardian.System
module Action = Rs_guardian.Action
module Guardian = Rs_guardian.Guardian
module Directory = Rs_dir.Directory
module Placement = Rs_dir.Placement
module Heap = Rs_objstore.Heap
module Value = Rs_objstore.Value
module Gid = Rs_util.Gid
module Aid = Rs_util.Aid
module Rng = Rs_util.Rng
module Sim = Rs_sim.Sim
module Metrics = Rs_obs.Metrics
module Trace = Rs_obs.Trace
module Log_dir = Rs_slog.Log_dir

type loop = Closed of { clients : int; think : float } | Open of { rate : float }

type workload = {
  name : string;
  loop : loop;
  duration : float; (* virtual time during which operations are launched *)
  read_frac : float;
  cross_frac : float; (* share of operations whose second key is on the other shard *)
  hot_frac : float; (* share of key picks that take the shard's hot key *)
  keys_per_shard : int;
  payload : int; (* bytes per object *)
  window : float; (* group-commit window; 0 forces each outcome record *)
  crash_every : float; (* 0: no crashes *)
}

(* Sizes and durations define the benchmark; changing any of them is a
   re-baselining change of its own. *)
let workloads =
  [
    {
      name = "mixed";
      loop = Closed { clients = 32; think = 1.0 };
      duration = 3000.0;
      read_frac = 0.9;
      cross_frac = 0.1;
      hot_frac = 0.02;
      keys_per_shard = 256;
      payload = 64;
      window = 2.0;
      crash_every = 0.0;
    };
    {
      name = "update-open";
      loop = Open { rate = 2.0 };
      duration = 6000.0;
      read_frac = 0.0;
      cross_frac = 0.3;
      hot_frac = 0.05;
      keys_per_shard = 256;
      payload = 64;
      window = 0.0;
      crash_every = 0.0;
    };
    {
      name = "crash-restart";
      loop = Open { rate = 1.2 };
      duration = 1000.0;
      read_frac = 0.0;
      cross_frac = 0.0;
      hot_frac = 0.0;
      keys_per_shard = 128;
      payload = 1024;
      window = 0.0;
      crash_every = 10.0;
    };
  ]

let shards = 2
let keys_per_op = 2
let latency = 1.0

(* Network jitter makes virtual latencies continuous, so a percentile
   does not sit on an integer step that one seed crosses and the next
   does not. *)
let jitter = 0.25
let backoff_base = 2.0
let backoff_cap = 64.0
let max_retries = 8
let restart_delay = 2.0
let hk_slice = (16, 0.5)

(* Restarts at the end of each repetition of a workload without crashes;
   the run pools them over its repetitions. *)
let probe_restarts = 100

(* The timed phase is sampled every [window] of virtual time: live log
   bytes, and process CPU so far. Repetitions replay the same seeded
   work, so window i of every repetition does the same work. *)
let window = 10.0

(* --- wall-clock spans at the benchmark's own call sites ---------------- *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let m_events = Metrics.counter "sim.events"
let m_read_locks = Metrics.counter "heap.read_locks_taken"

(* Self-time accounting: a span's [child] accumulates the wall time of
   spans nested in it, so self = wall - child. Heap calls that park on a
   lock queue return in a later simulator event; their wall time spans
   other events and is discarded, and the call is counted as a lock wait. *)
type spans = {
  mutable on : bool;
  mutable child : int;
  mutable lookup_ns : int;
  mutable lookups : int;
  mutable lock_ns : int;
  mutable lock_calls : int;
  mutable parked : int;
  mutable submit_self_ns : int;
  mutable submits : int;
  mutable ro_ns : int;
  mutable ro_ops : int;
  mutable loop_self_ns : int;
  mutable read_locks : int;
  mutable chain_max : int;
}

let spans_create () =
  {
    on = false;
    child = 0;
    lookup_ns = 0;
    lookups = 0;
    lock_ns = 0;
    lock_calls = 0;
    parked = 0;
    submit_self_ns = 0;
    submits = 0;
    ro_ns = 0;
    ro_ops = 0;
    loop_self_ns = 0;
    read_locks = 0;
    chain_max = 0;
  }

(* Run [f] as a span nested in the current one: returns its result, wall
   and self time, and charges the wall to the enclosing span. *)
let span sp f =
  let saved = sp.child in
  sp.child <- 0;
  let t0 = now_ns () in
  let close () =
    let wall = now_ns () - t0 in
    let self = wall - sp.child in
    sp.child <- saved + wall;
    (wall, self)
  in
  match f () with
  | r ->
      let wall, self = close () in
      (r, wall, self)
  | exception e ->
      ignore (close ());
      raise e

type call = Lookup | Lock_rw

let heap_call sp kind f =
  if not sp.on then f ()
  else begin
    let ev = Metrics.counter_value m_events in
    let t0 = now_ns () in
    let r = f () in
    if Metrics.counter_value m_events <> ev then sp.parked <- sp.parked + 1
    else begin
      let wall = now_ns () - t0 in
      sp.child <- sp.child + wall;
      match kind with
      | Lookup ->
          sp.lookup_ns <- sp.lookup_ns + wall;
          sp.lookups <- sp.lookups + 1
      | Lock_rw ->
          sp.lock_ns <- sp.lock_ns + wall;
          sp.lock_calls <- sp.lock_calls + 1
    end;
    r
  end

(* --- one repetition ----------------------------------------------------- *)

type kind = Update | Read

type op = {
  kind : kind;
  keys : int array; (* in lock order: (shard, key) *)
  due : float;
  mutable tries : int;
  mutable seen : (int * int) list; (* read ops: (key, count) observed *)
}

type restart = { ms : float; entries : int; page_reads : int }

type st = {
  w : workload;
  system : System.t;
  dir : Directory.t;
  sim : Sim.t;
  rng : Rng.t;
  names : string array;
  shard_keys : int array array; (* per shard, key indices; the first is the hot key *)
  acked : int array; (* acknowledged increments per key *)
  floor : int array; (* highest count a committed read has seen per key *)
  sp : spans;
  mutable stop_at : float;
  mutable launched : int;
  mutable inflight : int;
  mutable updates : int;
  mutable reads : int;
  mutable abandoned : int;
  mutable update_attempts : int;
  mutable read_aborts : int;
  mutable violation : string option;
  mutable update_lat : float list;
  mutable last_done : float;
  mutable committed : Breakdown.op list; (* traced: committing attempt of each update *)
  mutable latencies : float list; (* traced: matching update latencies *)
  mutable space : float list; (* sampled live log bytes *)
  mutable cpu_marks : float list; (* process CPU at each window boundary, newest first *)
  mutable restarts : restart list;
  mutable gc_cpu : float; (* collections before restarts, kept out of the timed CPU *)
}

let key_name k = Printf.sprintf "k%04d" k
let payload_of w k = String.init w.payload (fun i -> Char.chr (97 + ((i + k) mod 26)))
let m_disk_reads = Metrics.counter "disk.reads"

let pick_key st shard ~except =
  let ks = st.shard_keys.(shard) in
  let rec go () =
    let k =
      if Rng.bool st.rng st.w.hot_frac then ks.(0) else ks.(Rng.int st.rng (Array.length ks))
    in
    if k = except then go () else k
  in
  go ()

let gen_op st ~due =
  let kind = if Rng.bool st.rng st.w.read_frac then Read else Update in
  let a = Rng.int st.rng shards in
  let b = if Rng.bool st.rng st.w.cross_frac then 1 - a else a in
  let k1 = pick_key st a ~except:(-1) in
  let k2 = pick_key st b ~except:k1 in
  let keys = if compare (a, k1) (b, k2) <= 0 then [| k1; k2 |] else [| k2; k1 |] in
  { kind; keys; due; tries = 0; seen = [] }

let lookup st heap k =
  match heap_call st.sp Lookup (fun () -> Heap.get_stable_var heap st.names.(k)) with
  | Some (Value.Ref a) -> a
  | Some _ | None -> failwith ("standing: key " ^ st.names.(k) ^ " is not bound")

let update_step st k : System.work =
 fun heap aid ->
  let a = lookup st heap k in
  heap_call st.sp Lock_rw (fun () -> Heap.write_lock heap aid a);
  match heap_call st.sp Lock_rw (fun () -> Heap.read_atomic heap aid a) with
  | Value.Tup [| Value.Int n; (Value.Str _ as p) |] ->
      heap_call st.sp Lock_rw (fun () ->
          Heap.set_current heap aid a (Value.Tup [| Value.Int (n + 1); p |]))
  | _ -> failwith "standing: object is not (count, payload)"

let read_step st op k : System.work =
 fun heap aid ->
  let a = lookup st heap k in
  match heap_call st.sp Lock_rw (fun () -> Heap.read_atomic heap aid a) with
  | Value.Tup [| Value.Int n; _ |] ->
      op.seen <- (k, n) :: op.seen;
      if st.sp.on then st.sp.chain_max <- max st.sp.chain_max (Heap.chain_length heap a)
  | _ -> failwith "standing: object is not (count, payload)"

let submit st op =
  let mode, step =
    match op.kind with
    | Update -> (System.Update, fun k -> update_step st k)
    | Read -> (System.Read_only, fun k -> read_step st op k)
  in
  let steps = Array.to_list (Array.map (fun k -> (st.names.(k), step k)) op.keys) in
  if not st.sp.on then Directory.submit ~mode st.dir ~steps
  else begin
    let sp = st.sp in
    let locks0 = Metrics.counter_value m_read_locks in
    let h, wall, self = span sp (fun () -> Directory.submit ~mode st.dir ~steps) in
    (match op.kind with
    | Update ->
        sp.submit_self_ns <- sp.submit_self_ns + self;
        sp.submits <- sp.submits + 1
    | Read ->
        sp.ro_ns <- sp.ro_ns + wall;
        sp.ro_ops <- sp.ro_ops + 1;
        sp.read_locks <- sp.read_locks + (Metrics.counter_value m_read_locks - locks0));
    h
  end

let rec attempt st op =
  op.tries <- op.tries + 1;
  op.seen <- [];
  if op.kind = Update then st.update_attempts <- st.update_attempts + 1;
  match submit st op with
  | h ->
      st.inflight <- st.inflight + 1;
      Action.on_resolve h (fun h o -> resolved st op h o)
  | exception System.Guardian_down _ -> retry st op

and resolved st op h o =
  st.inflight <- st.inflight - 1;
  match (o, op.kind) with
  | Action.Committed, Update ->
      let lat = Option.get (Action.resolved_at h) -. op.due in
      Array.iter (fun k -> st.acked.(k) <- st.acked.(k) + 1) op.keys;
      st.updates <- st.updates + 1;
      st.update_lat <- lat :: st.update_lat;
      if st.sp.on then begin
        st.committed <-
          { Breakdown.aid = Format.asprintf "%a" Aid.pp (Action.aid h); due = op.due }
          :: st.committed;
        st.latencies <- lat :: st.latencies
      end;
      finish st
  | Action.Committed, Read ->
      List.iter
        (fun (k, n) ->
          if n < st.floor.(k) && st.violation = None then
            st.violation <-
              Some
                (Printf.sprintf "non-monotone read: %s saw %d after %d" st.names.(k) n st.floor.(k));
          st.floor.(k) <- max st.floor.(k) n)
        op.seen;
      st.reads <- st.reads + 1;
      finish st
  | Action.Aborted, kind ->
      if kind = Read then st.read_aborts <- st.read_aborts + 1;
      retry st op

and retry st op =
  if op.tries <= max_retries then
    let d = min backoff_cap (backoff_base *. (2.0 ** float_of_int (op.tries - 1))) in
    Sim.schedule st.sim ~delay:d (fun () -> attempt st op)
  else begin
    st.abandoned <- st.abandoned + 1;
    finish st
  end

and finish st =
  st.last_done <- Sim.now st.sim;
  match st.w.loop with
  | Closed { think; _ } when Sim.now st.sim < st.stop_at ->
      Sim.schedule st.sim ~delay:think (fun () -> launch st)
  | Closed _ | Open _ -> ()

and launch st =
  st.launched <- st.launched + 1;
  attempt st (gen_op st ~due:(Sim.now st.sim))

(* Exactly [rate * duration] arrivals at uniformly random instants: a
   Poisson process conditioned on its count, so every seed launches the
   same number of operations. Each arrival schedules the next, keeping the
   simulator's queue (and the stale events it keeps reachable) small. *)
let arrivals st rate =
  let n = int_of_float (Float.round (rate *. st.w.duration)) in
  let at = Array.init n (fun _ -> Rng.float st.rng st.w.duration) in
  Array.sort Float.compare at;
  let rec next i prev =
    if i < n then
      Sim.schedule st.sim ~delay:(at.(i) -. prev) (fun () ->
          launch st;
          next (i + 1) at.(i))
  in
  next 0 0.0

let live_log_bytes st =
  List.fold_left
    (fun acc g ->
      let d = Guardian.log_dir g in
      acc + (Log_dir.live_pages d * Log_dir.page_size d))
    0 (System.guardians st.system)

let mark_cpu st = st.cpu_marks <- (cpu_s () -. st.gc_cpu) :: st.cpu_marks

let rec sample st =
  st.space <- float_of_int (live_log_bytes st) :: st.space;
  mark_cpu st;
  Sim.schedule st.sim ~delay:window (fun () -> if Sim.now st.sim < st.stop_at then sample st)

let restart st g =
  (* Finish the major cycle first, or the restart pays for a varying share
     of earlier work's garbage. The collection is outside every timing. *)
  let c = cpu_s () in
  ignore (span st.sp Gc.major);
  st.gc_cpu <- st.gc_cpu +. (cpu_s () -. c);
  let reads0 = Metrics.counter_value m_disk_reads in
  let report, wall, _ = span st.sp (fun () -> Directory.restart st.dir g) in
  st.restarts <-
    {
      ms = float_of_int wall /. 1e6;
      entries = Core.Tables.Recovery_report.entries_processed report;
      page_reads = Metrics.counter_value m_disk_reads - reads0;
    }
    :: st.restarts

(* Crash the shards in turn every [crash_every], each restarted
   [restart_delay] later. *)
let schedule_crashes st =
  let n = int_of_float (st.w.duration /. st.w.crash_every) in
  for i = 1 to n do
    let g = Gid.of_int (i mod shards) in
    Sim.schedule st.sim ~delay:(float_of_int i *. st.w.crash_every) (fun () ->
        Directory.crash st.dir g;
        Sim.schedule st.sim ~delay:restart_delay (fun () -> restart st g))
  done

(* Run the simulator dry; returns the longest its queue got. *)
let drive st =
  let sp = st.sp in
  let peak = ref (Sim.pending st.sim) in
  let step () =
    let more = Sim.step st.sim in
    peak := max !peak (Sim.pending st.sim);
    more
  in
  if not sp.on then while step () do () done
  else begin
    let more = ref true in
    while !more do
      let stepped, _, self = span sp step in
      sp.loop_self_ns <- sp.loop_self_ns + self;
      more := stepped
    done
  end;
  !peak

(* Registry readings whose deltas over the timed phase feed the layer
   metrics. *)
let counter_names =
  [
    "sim.events";
    "guardian.wait_aborts";
    "dir.routes";
    "dir.cross_routes";
    "twopc.retries";
    "twopc.prepare_timeouts";
    "hybrid_rs.entries_written";
    "guardian.housekeeping_runs";
    "slog.forces";
    "slog.group_commits";
    "slog.cache_hits";
    "slog.cache_misses";
    "disk.reads";
    "disk.writes";
    "stable_store.write_rounds";
  ]

let readings st =
  let counter n = (n, Option.value ~default:0 (Metrics.find_counter Metrics.default n)) in
  let hist n =
    let h = Metrics.histogram n in
    [ (n ^ ".sum", Metrics.histogram_sum h); (n ^ ".count", Metrics.histogram_count h) ]
  in
  List.map counter counter_names
  @ hist "slog.force_bytes"
  @ [
      ("net.sent", Rs_sim.Net.messages_sent (System.net st.system));
      ("trace.total", Trace.total ());
    ]

type result = {
  setup_s : float;
  window_cpu : float array; (* process CPU of each window of the timed phase *)
  launched : int;
  updates : int; (* committed update operations *)
  reads : int; (* committed read operations *)
  abandoned : int;
  update_attempts : int;
  read_aborts : int;
  update_lat : float array; (* sorted *)
  elapsed_vt : float;
  space_amp : float;
  page_size : int;
  live_mb : float;
  restarts : restart list;
  deltas : (string * int) list;
  spans : spans;
  breakdown : (float * (Breakdown.parts, string) Stdlib.result) list;
      (* traced: latency and components of each committed update *)
  errors : string list; (* failed correctness gates *)
}

let setup w ~seed =
  let system =
    System.create ~seed ~latency ~jitter ~force_window:w.window ~n:shards ()
  in
  List.iter
    (fun g ->
      Guardian.set_auto_housekeeping g ~slice:hk_slice (Some Core.Hybrid_rs.Snapshot))
    (System.guardians system);
  let placement = Placement.create ~shards:(List.init shards Gid.of_int) () in
  let dir = Directory.create ~system ~placement () in
  let n = shards * w.keys_per_shard in
  let names = Array.init n key_name in
  let shard_of = Array.map (fun k -> Gid.to_int (Placement.shard_of_key placement k)) names in
  let shard_keys =
    Array.init shards (fun s ->
        List.filter (fun k -> shard_of.(k) = s) (List.init n Fun.id) |> Array.of_list)
  in
  Array.iteri
    (fun k name ->
      ignore
        (Directory.create_object dir ~key:name
           ~init:(Value.Tup [| Value.Int 0; Value.Str (payload_of w k) |])))
    names;
  System.quiesce system;
  {
    w;
    system;
    dir;
    sim = System.sim system;
    rng = Rng.create (seed lxor 0x5ad1);
    names;
    shard_keys;
    acked = Array.make n 0;
    floor = Array.make n 0;
    sp = spans_create ();
    stop_at = 0.0;
    launched = 0;
    inflight = 0;
    updates = 0;
    reads = 0;
    abandoned = 0;
    update_attempts = 0;
    read_aborts = 0;
    violation = None;
    update_lat = [];
    last_done = 0.0;
    committed = [];
    latencies = [];
    space = [];
    cpu_marks = [];
    restarts = [];
    gc_cpu = 0.0;
  }

let check st =
  let errors = ref [] in
  let fail e = errors := e :: !errors in
  if st.inflight <> 0 then fail (Printf.sprintf "%d operations unresolved" st.inflight);
  if Sim.pending st.sim <> 0 then fail (Printf.sprintf "%d simulator events pending" (Sim.pending st.sim));
  Array.iteri
    (fun k name ->
      match Directory.snapshot_read st.dir name with
      | Some (Value.Tup [| Value.Int n; Value.Str p |]) ->
          if n <> st.acked.(k) then
            fail (Printf.sprintf "%s = %d, but %d increments were acknowledged" name n st.acked.(k));
          if p <> payload_of st.w k then fail (name ^ ": payload changed")
      | Some _ -> fail (name ^ " is not (count, payload)")
      | None -> fail (name ^ " is not bound"))
    st.names;
  if st.read_aborts > 0 then fail (Printf.sprintf "%d read attempts aborted" st.read_aborts);
  Option.iter fail st.violation;
  (match Directory.verify_unique_uids st.dir with Ok () -> () | Error e -> fail e);
  List.iter
    (fun v -> fail (Format.asprintf "%a" Rs_obs.Monitor.pp_violation v))
    (Rs_obs.Monitor.check ());
  List.rev !errors

let rep ?(traced = false) ?(probe = true) w ~seed =
  Gc.compact ();
  Trace.clear ();
  let t0 = now_ns () in
  let st = setup w ~seed in
  let setup_s = float_of_int (now_ns () - t0) /. 1e9 in
  let before = readings st in
  let start = Sim.now st.sim in
  st.stop_at <- start +. w.duration;
  st.last_done <- start;
  st.sp.on <- traced;
  (match w.loop with
  | Closed { clients; _ } ->
      for _ = 1 to clients do
        Sim.schedule st.sim ~delay:0.0 (fun () -> launch st)
      done
  | Open { rate } -> arrivals st rate);
  if w.crash_every > 0.0 then schedule_crashes st;
  sample st;
  let peak = drive st in
  mark_cpu st;
  let marks = Array.of_list (List.rev st.cpu_marks) in
  st.sp.on <- false;
  let deltas = List.map2 (fun (n, a) (_, b) -> (n, b - a)) before (readings st) in
  (* Where a seed stops in the checkpoint cycle sets how much log the
     shards hold. Checkpointing every shard first gives the memory reading
     and the restart probe the same kind of state on every seed: the
     workload's data plus whatever volatile state the run accumulated. *)
  List.iter (fun g -> Guardian.housekeep g Core.Hybrid_rs.Snapshot) (System.guardians st.system);
  (* The simulator's queue array keeps popped events until their slots
     are reused, and their closures can hold a crashed guardian's old heap:
     garbage whose amount depends on the seed. Its capacity is below twice
     the peak length, so that many no-op events overwrite every slot. *)
  for _ = 1 to (2 * peak) + 16 do
    Sim.schedule st.sim ~delay:0.0 ignore
  done;
  while Sim.step st.sim do () done;
  Gc.full_major ();
  let live_mb = float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0 in
  if probe && w.crash_every = 0.0 then
    for i = 1 to probe_restarts do
      let g = Gid.of_int (i mod shards) in
      Directory.crash st.dir g;
      restart st g;
      System.quiesce st.system
    done;
  let errors = check st in
  let breakdown =
    if traced then
      List.combine st.latencies (Breakdown.reconstruct (Trace.events ()) st.committed)
    else []
  in
  let user_bytes = float_of_int (Array.length st.names * w.payload) in
  {
    setup_s;
    window_cpu = Array.init (Array.length marks - 1) (fun i -> marks.(i + 1) -. marks.(i));
    launched = st.launched;
    updates = st.updates;
    reads = st.reads;
    abandoned = st.abandoned;
    update_attempts = st.update_attempts;
    read_aborts = st.read_aborts;
    update_lat = Stats.sorted st.update_lat;
    elapsed_vt = st.last_done -. start;
    space_amp = Stats.mean st.space /. user_bytes;
    page_size = Log_dir.page_size (Guardian.log_dir (System.guardian st.system (Gid.of_int 0)));
    live_mb;
    restarts = List.rev st.restarts;
    deltas;
    spans = st.sp;
    breakdown;
    errors;
  }
