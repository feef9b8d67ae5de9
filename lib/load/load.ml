module System = Rs_guardian.System
module Action = Rs_guardian.Action
module Guardian = Rs_guardian.Guardian
module Heap = Rs_objstore.Heap
module Value = Rs_objstore.Value
module Gid = Rs_util.Gid
module Rng = Rs_util.Rng
module Sim = Rs_sim.Sim
module Metrics = Rs_obs.Metrics
module Directory = Rs_dir.Directory
module Placement = Rs_dir.Placement
module Fifo = Rs_workload.Fifo
module Saga = Rs_workload.Saga

type profile = Synthetic | Bank | Reservation | Queue | Saga
type mode = Closed of { clients : int; think : float } | Open of { rate : float }

type config = {
  seed : int;
  guardians : int;
  drop : float;
  wait_timeout : float;
  max_in_flight : int option;
  profile : profile;
  mode : mode;
  duration : float;
  objects_per_guardian : int;
  conflict : float;
  abort_rate : float;
  initial : int;
  directory : bool;
  cross_shard : float;
  uid_batch : int;
  spares : int;
  read_fraction : float;
  locked_reads : bool;
}

let default =
  {
    seed = 1;
    guardians = 2;
    drop = 0.0;
    wait_timeout = 20.0;
    max_in_flight = None;
    profile = Synthetic;
    mode = Closed { clients = 8; think = 1.0 };
    duration = 200.0;
    objects_per_guardian = 8;
    conflict = 0.1;
    abort_rate = 0.0;
    initial = 1000;
    directory = false;
    cross_shard = 0.0;
    uid_batch = 64;
    spares = 0;
    read_fraction = 0.0;
    locked_reads = false;
  }

(* Every action touches [steps_per_action] objects. An operation aborted
   by a conflict, a timeout or a crash is retried up to [max_retries]
   times; the delay starts at [backoff_base] and doubles per attempt up
   to [backoff_cap]. *)
let steps_per_action = 2
let max_retries = 8
let backoff_base = 2.0
let backoff_cap = 64.0

type stats = {
  submitted : int;
  committed : int;
  aborted : int;
  deliberate_aborts : int;
  sheds : int;
  retries : int;
  reroutes : int;
  abandoned : int;
  wait_timeouts : int;
  reads_submitted : int;
  reads_committed : int;
  reads_aborted : int;
  read_p50 : float;
  read_p99 : float;
  elapsed : float;
  nemesis_downtime : float;
  throughput : float;
  p50 : float;
  p99 : float;
}

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>submitted   %d@,committed   %d@,aborted     %d (+%d deliberate)@,\
     sheds       %d@,retries     %d@,reroutes    %d@,abandoned   %d@,wait t/o    %d@,\
     reads       %d submitted  %d committed  %d aborted@,\
     read p50    %.1f  p99 %.1f@,\
     elapsed     %.1f (downtime %.1f)@,throughput  %.3f /unit@,\
     latency     p50 %.1f  p99 %.1f@]"
    s.submitted s.committed s.aborted s.deliberate_aborts s.sheds s.retries s.reroutes
    s.abandoned s.wait_timeouts s.reads_submitted s.reads_committed s.reads_aborted
    s.read_p50 s.read_p99 s.elapsed s.nemesis_downtime s.throughput s.p50 s.p99

(* Which action of an operation is running: the whole of an ordinary
   operation, or one action of a saga's chain — leg one on shard A, leg
   two on shard B, or the compensation undoing leg one. *)
type phase = Whole | Fwd1 | Fwd2 | Comp

(* One logical operation: the retry loop resubmits the same targets, so
   an operation that eventually commits commits exactly once. [deliberate]
   is set by the step itself just before raising [Abort_action], which is
   how the client distinguishes a business abort (terminal) from a
   conflict/crash abort (retryable). *)
type op = {
  mutable coord : Gid.t; (* rerouted to another shard when found dead *)
  targets : (int * int * int) list;
      (* (guardian, object, delta) in lock order. Directory mode: object
         is a *global* key index and guardian its placement-owned shard. *)
  inject_abort : bool;
  deliberate : bool ref;
  client : bool; (* closed-loop client: issue a next operation when done *)
  read : bool; (* read-only operation: no writes, no model delta *)
  readings : (int * int * int) list ref;
      (* (guardian, object, value) observed by this attempt's read steps;
         checked against the per-object monotone floor at commit. *)
  mutable phase : phase;
}

let mk_op ?(inject_abort = false) ?(read = false) ?(phase = Whole) ~client coord targets =
  { coord = Gid.of_int coord; targets; inject_abort; deliberate = ref false; client; read;
    readings = ref []; phase }

type t = {
  cfg : config;
  system : System.t;
  dir : Directory.t option; (* directory mode: placement routing *)
  rng : Rng.t;
  hist : Metrics.histogram; (* commit latency, tenths of a time unit *)
  rhist : Metrics.histogram; (* read-op latency, tenths of a time unit *)
  model : int array array; (* per (guardian, object) committed increments *)
  read_floor : int array array; (* monotone-read floor per (guardian, object) *)
  dmodel : int array; (* directory mode: per-key committed increments *)
  dread_floor : int array; (* directory mode: per-key monotone-read floor *)
  shard_keys : int list array; (* directory mode: key indices owned per shard *)
  occupied : int array; (* directory mode: shards owning at least one key *)
  q_enq : int array array; (* Queue: committed enqueues per (guardian, object) *)
  q_deq : int array array; (* Queue: committed dequeues per (guardian, object) *)
  saga : Saga.t; (* Saga: started/completed/compensated ledger *)
  mutable bookings : int; (* Reservation: committed bookings *)
  mutable nemesis_downtime : float; (* union of injected fault windows *)
  mutable inflight : int;
  mutable start_now : float;
  mutable stop_at : float;
  mutable end_now : float;
  mutable s_submitted : int;
  mutable s_committed : int;
  mutable s_aborted : int;
  mutable s_deliberate : int;
  mutable s_sheds : int;
  mutable s_retries : int;
  mutable s_reroutes : int;
  mutable s_abandoned : int;
  mutable s_r_submitted : int;
  mutable s_r_committed : int;
  mutable s_r_aborted : int;
  mutable read_violation : string option; (* first non-monotone read seen *)
  wait_timeouts0 : int;
}

let system t = t.system
let directory t = t.dir
let unresolved t = t.inflight
let obj_name o = Printf.sprintf "obj%d" o

let wait_timeouts_now () =
  Option.value ~default:0 (Metrics.find_counter Metrics.default "heap.wait_timeouts")

let latency_bounds = [| 0; 1; 2; 5; 10; 20; 50; 100; 200; 500; 1000; 2000; 5000; 10000 |]

let validate cfg =
  if cfg.guardians <= 0 then invalid_arg "Load: need at least one guardian";
  if cfg.objects_per_guardian <= 0 then invalid_arg "Load: need at least one object";
  if cfg.duration <= 0.0 then invalid_arg "Load: duration must be positive";
  (match cfg.max_in_flight with
  | Some c when c < 1 -> invalid_arg "Load: max_in_flight must be at least 1"
  | Some _ | None -> ());
  (match cfg.mode with
  | Closed { clients; think } ->
      if clients <= 0 then invalid_arg "Load: need at least one client";
      if think < 0.0 then invalid_arg "Load: think time must be non-negative"
  | Open { rate } -> if rate <= 0.0 then invalid_arg "Load: arrival rate must be positive");
  if cfg.profile = Bank && cfg.guardians * cfg.objects_per_guardian < 2 then
    invalid_arg "Load: Bank needs at least two accounts";
  if cfg.profile = Saga && cfg.guardians < 2 then
    invalid_arg "Load: Saga needs two guardians (legs live on distinct shards)";
  if cfg.cross_shard < 0.0 || cfg.cross_shard > 1.0 then
    invalid_arg "Load: cross_shard must be a probability";
  if cfg.cross_shard > 0.0 && not cfg.directory then
    invalid_arg "Load: cross_shard needs directory routing";
  if cfg.directory && cfg.profile <> Synthetic then
    invalid_arg "Load: directory mode drives the Synthetic profile";
  if cfg.uid_batch <= 0 then invalid_arg "Load: uid_batch must be positive";
  if cfg.spares < 0 then invalid_arg "Load: spares must be non-negative";
  if cfg.read_fraction < 0.0 || cfg.read_fraction > 1.0 then
    invalid_arg "Load: read_fraction must be a probability";
  if cfg.read_fraction > 0.0 && cfg.profile = Saga then
    invalid_arg "Load: read traffic drives the non-saga profiles"

let create cfg =
  validate cfg;
  let system =
    System.create ~seed:cfg.seed ~drop_prob:cfg.drop ~wait_timeout:cfg.wait_timeout
      ?max_in_flight:cfg.max_in_flight ~n:(cfg.guardians + cfg.spares) ()
  in
  let initial =
    match cfg.profile with
    | Synthetic | Queue | Saga -> 0
    | Bank | Reservation -> cfg.initial
  in
  let init_value = match cfg.profile with Queue -> Fifo.empty | _ -> Value.Int initial in
  let n_keys = cfg.guardians * cfg.objects_per_guardian in
  let dir, shard_keys, occupied =
    if cfg.directory then begin
      (* Keys are global; placement decides which shard binds each one, so
         the population setup routes every create through the directory
         (each create mints from a reserved batch). *)
      let placement =
        Placement.create ~seed:cfg.seed
          ~shards:(List.init cfg.guardians Gid.of_int)
          ()
      in
      let d =
        Directory.create ~batch:cfg.uid_batch ~system ~placement ()
      in
      let shard_keys = Array.make cfg.guardians [] in
      for k = n_keys - 1 downto 0 do
        let g = Gid.to_int (Placement.shard_of_key placement (obj_name k)) in
        shard_keys.(g) <- k :: shard_keys.(g)
      done;
      for k = 0 to n_keys - 1 do
        ignore (Directory.create_object d ~key:(obj_name k) ~init:(Value.Int initial))
      done;
      let occupied =
        List.init cfg.guardians Fun.id
        |> List.filter (fun g -> shard_keys.(g) <> [])
        |> Array.of_list
      in
      (Some d, shard_keys, occupied)
    end
    else begin
      for g = 0 to cfg.guardians - 1 do
        let setup heap aid =
          for o = 0 to cfg.objects_per_guardian - 1 do
            let a = Heap.alloc_atomic heap ~creator:aid init_value in
            Heap.set_stable_var heap aid (obj_name o) (Value.Ref a)
          done
        in
        let rec go () =
          let h =
            System.submit system ~coordinator:(Gid.of_int g) ~steps:[ (Gid.of_int g, setup) ]
          in
          if System.await system h <> System.Committed then go ()
        in
        go ()
      done;
      (None, [||], [||])
    end
  in
  (* [await] returns at the commit decision; the phase-two message that
     installs the committed bindings may still be in flight. Settle before
     any client can read the root. *)
  System.quiesce system;
  let registry = Metrics.create () in
  {
    cfg;
    system;
    dir;
    rng = Rng.create (cfg.seed lxor 0x10ad);
    hist = Metrics.histogram ~registry ~bounds:latency_bounds "load.latency_tenths";
    rhist = Metrics.histogram ~registry ~bounds:latency_bounds "load.read_latency_tenths";
    model = Array.make_matrix cfg.guardians cfg.objects_per_guardian 0;
    read_floor = Array.make_matrix cfg.guardians cfg.objects_per_guardian 0;
    dmodel = Array.make n_keys 0;
    dread_floor = Array.make n_keys 0;
    shard_keys;
    occupied;
    q_enq = Array.make_matrix cfg.guardians cfg.objects_per_guardian 0;
    q_deq = Array.make_matrix cfg.guardians cfg.objects_per_guardian 0;
    saga = Saga.create ();
    bookings = 0;
    nemesis_downtime = 0.0;
    inflight = 0;
    start_now = 0.0;
    stop_at = 0.0;
    end_now = 0.0;
    s_submitted = 0;
    s_committed = 0;
    s_aborted = 0;
    s_deliberate = 0;
    s_sheds = 0;
    s_retries = 0;
    s_reroutes = 0;
    s_abandoned = 0;
    s_r_submitted = 0;
    s_r_committed = 0;
    s_r_aborted = 0;
    read_violation = None;
    wait_timeouts0 = wait_timeouts_now ();
  }

(* --- operation generation --------------------------------------------- *)

let pick_obj t =
  if t.cfg.objects_per_guardian = 1 || Rng.bool t.rng t.cfg.conflict then 0
  else 1 + Rng.int t.rng (t.cfg.objects_per_guardian - 1)

let pick_target t =
  let g = Rng.int t.rng t.cfg.guardians in
  (g, pick_obj t)

(* Steps acquire locks in sorted (guardian, object) order, so pure
   write-write schedules cannot deadlock; read-then-upgrade still can
   (two readers of a hot object both upgrading), which is what the wait
   timeout is for. *)
let sort_targets = List.sort (fun (g1, o1, _) (g2, o2, _) -> compare (g1, o1) (g2, o2))

(* Directory mode: pick a key on a given shard, honouring the conflict
   knob (the shard's first key is its hot object). *)
let pick_shard t =
  t.occupied.(Rng.int t.rng (Array.length t.occupied))

let pick_key_on t g =
  let keys = t.shard_keys.(g) in
  match keys with
  | [] -> assert false
  | hot :: rest ->
      if rest = [] || Rng.bool t.rng t.cfg.conflict then hot
      else List.nth rest (Rng.int t.rng (List.length rest))

(* A directory-mode operation: all steps on one shard, or — with
   probability [cross_shard] — spanning two distinct shards, the shape
   that exercises placement-chosen 2PC. *)
let gen_op_directory t ~client ~inject_abort =
  let cross =
    Array.length t.occupied > 1
    && t.cfg.cross_shard > 0.0
    && Rng.bool t.rng t.cfg.cross_shard
  in
  let targets =
    if cross then begin
      let a = pick_shard t in
      let rec other () =
        let b = pick_shard t in
        if b = a then other () else b
      in
      let b = other () in
      let first = (a, pick_key_on t a, 1) in
      let second = (b, pick_key_on t b, 1) in
      [ first; second ]
    end
    else
      let g = pick_shard t in
      List.init steps_per_action (fun _ -> (g, pick_key_on t g, 1))
  in
  let targets = sort_targets targets in
  let coord = match targets with (g, _, _) :: _ -> g | [] -> assert false in
  mk_op ~inject_abort ~client coord targets

(* A read-only operation: same target shape as an update (so the conflict
   knob applies symmetrically), delta 0, no injected aborts. Submitted as
   an MVCC snapshot action, or — with [locked_reads] — as an ordinary
   Update action whose steps take read locks (the baseline e15 compares
   against). *)
let gen_read_op t ~client =
  let targets =
    List.init steps_per_action (fun _ ->
        if t.dir <> None then
          let g = pick_shard t in
          (g, pick_key_on t g, 0)
        else
          let g, o = pick_target t in
          (g, o, 0))
  in
  let targets = sort_targets targets in
  let coord = match targets with (g, _, _) :: _ -> g | [] -> assert false in
  mk_op ~read:true ~client coord targets

let gen_op t ~client =
  if t.cfg.read_fraction > 0.0 && Rng.bool t.rng t.cfg.read_fraction then
    gen_read_op t ~client
  else
  let inject_abort = t.cfg.abort_rate > 0.0 && Rng.bool t.rng t.cfg.abort_rate in
  if t.dir <> None then gen_op_directory t ~client ~inject_abort
  else
  match t.cfg.profile with
  | Synthetic ->
      let targets =
        List.init steps_per_action (fun _ ->
            let g, o = pick_target t in
            (g, o, 1))
      in
      let coord = match targets with (g, _, _) :: _ -> g | [] -> assert false in
      mk_op ~inject_abort ~client coord (sort_targets targets)
  | Bank ->
      let src = pick_target t in
      let rec pick_dst () =
        let d = pick_target t in
        if d = src then pick_dst () else d
      in
      let dst = pick_dst () in
      let targets =
        sort_targets [ (fst src, snd src, -1); (fst dst, snd dst, 1) ]
      in
      mk_op ~inject_abort ~client (fst src) targets
  | Reservation ->
      let g, o = pick_target t in
      mk_op ~inject_abort ~client g [ (g, o, -1) ]
  | Queue ->
      (* delta encodes the operation: +1 enqueue, -1 dequeue. *)
      let g, o = pick_target t in
      let delta = if Rng.bool t.rng 0.5 then 1 else -1 in
      mk_op ~inject_abort ~client g [ (g, o, delta) ]
  | Saga ->
      (* Targets in *semantic* order (not lock order): leg one, then leg
         two on a distinct guardian — each leg is its own top action. *)
      let gA, oA = pick_target t in
      let rec other () =
        let g = Rng.int t.rng t.cfg.guardians in
        if g = gA then other () else g
      in
      let gB = other () in
      let oB = pick_obj t in
      mk_op ~inject_abort ~phase:Fwd1 ~client gA [ (gA, oA, 1); (gB, oB, 1) ]

let target_addr heap o =
  match Heap.get_stable_var heap (obj_name o) with
  | Some (Value.Ref a) -> a
  | Some _ | None -> failwith (Printf.sprintf "Load: object %s missing" (obj_name o))

let step_work t op o delta : System.work =
 fun heap aid ->
  let a = target_addr heap o in
  (* Synthetic/Reservation/Queue/Saga write-lock up front: contention then
     resolves by FIFO lock transfer. Bank reads first and
     upgrades — the pattern that can deadlock two upgraders, so
     the wait timeout stays exercised. *)
  if t.cfg.profile <> Bank then Heap.write_lock heap aid a;
  match t.cfg.profile with
  | Queue -> (
      let v = Heap.read_atomic heap aid a in
      if delta > 0 then Heap.set_current heap aid a (fst (Fifo.enqueue v))
      else
        match Fifo.dequeue v with
        | None ->
            (* Empty queue: a business decision, not a conflict. *)
            op.deliberate := true;
            raise System.Abort_action
        | Some (v', _) -> Heap.set_current heap aid a v')
  | _ -> (
      match Heap.read_atomic heap aid a with
      | Value.Int v ->
          if t.cfg.profile = Reservation && v <= 0 then begin
            (* Sold out: a business decision, not a conflict. *)
            op.deliberate := true;
            raise System.Abort_action
          end;
          Heap.set_current heap aid a (Value.Int (v + delta))
      | _ -> failwith "Load: object is not an int")

let abort_step op : System.work =
 fun _heap _aid ->
  op.deliberate := true;
  raise System.Abort_action

(* A read step never writes and never locks explicitly: under
   [~mode:Read_only] the heap routes [read_atomic] through the action's
   snapshot (zero locks); under Update (the [locked_reads] baseline) the
   same call takes an ordinary read lock and can conflict or time out. *)
let read_step op g o : System.work =
 fun heap aid ->
  let a = target_addr heap o in
  match Heap.read_atomic heap aid a with
  | Value.Int v -> op.readings := (g, o, v) :: !(op.readings)
  | _ -> ()

(* The (guardian, object, delta) the running saga action writes. *)
let saga_leg op =
  match (op.phase, op.targets) with
  | Fwd1, (g, o, d) :: _ -> (g, o, d)
  | Fwd2, _ :: (g, o, d) :: _ -> (g, o, d)
  | Comp, (g, o, d) :: _ -> (g, o, -d)
  | _ -> assert false

let steps_of t op : (Gid.t * System.work) list =
  if op.read then
    List.map (fun (g, o, _) -> (Gid.of_int g, read_step op g o)) op.targets
  else
    match op.phase with
    | Whole ->
        let body =
          List.map (fun (g, o, delta) -> (Gid.of_int g, step_work t op o delta)) op.targets
        in
        if op.inject_abort then body @ [ (op.coord, abort_step op) ] else body
    | Fwd1 | Fwd2 | Comp ->
        (* Injected business aborts hit leg two only: the shape that forces
           a compensation. *)
        let g, o, delta = saga_leg op in
        (Gid.of_int g, step_work t op o delta)
        :: (if op.inject_abort && op.phase = Fwd2 then [ (Gid.of_int g, abort_step op) ] else [])

(* Directory mode: steps name objects by key; the directory resolves them
   back to shards (and counts/traces the route). *)
let key_steps_of t op : (string * System.work) list =
  if op.read then
    List.map (fun (g, o, _) -> (obj_name o, read_step op g o)) op.targets
  else
  let body = List.map (fun (_, o, delta) -> (obj_name o, step_work t op o delta)) op.targets in
  if op.inject_abort then
    match op.targets with
    | (_, o, _) :: _ -> body @ [ (obj_name o, abort_step op) ]
    | [] -> body
  else body

let apply_model t op =
  if t.dir <> None then
    List.iter (fun (_, k, d) -> t.dmodel.(k) <- t.dmodel.(k) + d) op.targets
  else
    match t.cfg.profile with
    | Synthetic -> List.iter (fun (g, o, d) -> t.model.(g).(o) <- t.model.(g).(o) + d) op.targets
    | Bank -> ()
    | Reservation -> t.bookings <- t.bookings + 1
    | Queue ->
        List.iter
          (fun (g, o, d) ->
            if d > 0 then t.q_enq.(g).(o) <- t.q_enq.(g).(o) + 1
            else t.q_deq.(g).(o) <- t.q_deq.(g).(o) + 1)
          op.targets
    | Saga ->
        let g, o, d = saga_leg op in
        t.model.(g).(o) <- t.model.(g).(o) + d

(* --- the client state machine ----------------------------------------- *)

(* Monotone-read model check: Synthetic deltas are all +1, so the value a
   committed read op observes can never sink below any value previously
   observed for the same object — a stale version surviving a prune, or a
   snapshot seeing a half-applied action, would show up here. *)
let check_readings t op =
  if t.cfg.profile = Synthetic then
    List.iter
      (fun (g, o, v) ->
        let floor = if t.dir <> None then t.dread_floor.(o) else t.read_floor.(g).(o) in
        if v < floor && t.read_violation = None then
          t.read_violation <-
            Some
              (Printf.sprintf "non-monotone read: g%d/%s saw %d after %d" g (obj_name o) v
                 floor);
        if t.dir <> None then t.dread_floor.(o) <- max floor v
        else t.read_floor.(g).(o) <- max floor v)
      !(op.readings)

let rec attempt t op ~tries =
  op.deliberate := false;
  op.readings := [];
  if op.read then t.s_r_submitted <- t.s_r_submitted + 1
  else t.s_submitted <- t.s_submitted + 1;
  let mode = if op.read && not t.cfg.locked_reads then System.Read_only else System.Update in
  let submit () =
    match t.dir with
    | Some d -> Directory.submit ~mode d ~coordinator:op.coord ~steps:(key_steps_of t op)
    | None -> System.submit ~mode t.system ~coordinator:op.coord ~steps:(steps_of t op)
  in
  match submit () with
  | h ->
      t.inflight <- t.inflight + 1;
      Action.on_resolve h (fun h o -> resolved t op ~tries h o)
  | exception System.Overloaded _ ->
      (* Shed: the coordinator is alive but at capacity — back off and
         retry the *same* shard. *)
      t.s_sheds <- t.s_sheds + 1;
      retry_or_finish t op ~tries
  | exception System.Guardian_down _ ->
      (* Dead, not shed: re-route the retry to another coordinator (it
         need not own any step's object). The steps themselves still
         abort while their shard is down, which the plain retry covers. *)
      t.s_reroutes <- t.s_reroutes + 1;
      if t.cfg.guardians > 1 then begin
        let c = Gid.to_int op.coord in
        op.coord <- Gid.of_int ((c + 1 + Rng.int t.rng (t.cfg.guardians - 1)) mod t.cfg.guardians)
      end;
      retry_or_finish t op ~tries

and resolved t op ~tries h o =
  t.inflight <- t.inflight - 1;
  match o with
  | Action.Committed when op.read ->
      t.s_r_committed <- t.s_r_committed + 1;
      (match Action.latency h with
      | Some l -> Metrics.observe t.rhist (int_of_float (l *. 10.0))
      | None -> Metrics.observe t.rhist 0);
      check_readings t op;
      next_op t op
  | Action.Committed ->
      t.s_committed <- t.s_committed + 1;
      (match Action.latency h with
      | Some l -> Metrics.observe t.hist (int_of_float (l *. 10.0))
      | None -> ());
      apply_model t op;
      settle t op ~tries `Committed
  | Action.Aborted when op.read ->
      (* Only possible with [locked_reads]: a lock wait timed out. MVCC
         read-only actions structurally cannot abort. *)
      t.s_r_aborted <- t.s_r_aborted + 1;
      retry_or_finish t op ~tries
  | Action.Aborted when !(op.deliberate) ->
      t.s_deliberate <- t.s_deliberate + 1;
      settle t op ~tries `Deliberate
  | Action.Aborted ->
      t.s_aborted <- t.s_aborted + 1;
      retry_or_finish t op ~tries

(* Compensations retry without bound: a half-applied saga may never be
   abandoned. The exponent is capped so an unbounded retry count keeps
   a finite delay. *)
and retry_or_finish t op ~tries =
  if op.phase = Comp || tries < max_retries then begin
    t.s_retries <- t.s_retries + 1;
    let d = min backoff_cap (backoff_base *. (2.0 ** float_of_int (min tries 30))) in
    let d = d *. (1.0 +. Rng.float t.rng 0.5) in
    Sim.schedule (System.sim t.system) ~delay:d (fun () -> attempt t op ~tries:(tries + 1))
  end
  else begin
    t.s_abandoned <- t.s_abandoned + 1;
    settle t op ~tries `Exhausted
  end

(* Where an operation goes once its action commits, aborts deliberately
   or exhausts its retries. An ordinary operation is over. A saga is a
   chain of top actions: leg one on shard A, leg two on shard B, and — if
   leg two fails terminally — a compensation undoing leg one. Each
   commits or aborts atomically on its own; the chain continues past
   [stop_at], so a started saga always reaches [completed] or
   [compensated] by quiescence. *)
and settle t op ~tries ending =
  let run phase =
    op.phase <- phase;
    attempt t op ~tries:0
  in
  match (op.phase, ending) with
  | Fwd1, `Committed ->
      Saga.start t.saga;
      run Fwd2
  | Fwd2, `Committed ->
      Saga.complete t.saga;
      next_op t op
  | Comp, `Committed ->
      Saga.compensate t.saga;
      next_op t op
  | Fwd2, (`Deliberate | `Exhausted) -> run Comp
  | Comp, (`Deliberate | `Exhausted) -> retry_or_finish t op ~tries
  | Whole, (`Committed | `Deliberate | `Exhausted) | Fwd1, (`Deliberate | `Exhausted) ->
      next_op t op

and next_op t op =
  if op.client then
    let sim = System.sim t.system in
    if Sim.now sim < t.stop_at then
      let think = match t.cfg.mode with Closed { think; _ } -> think | Open _ -> 0.0 in
      Sim.schedule sim ~delay:think (fun () -> attempt t (gen_op t ~client:true) ~tries:0)

let rec schedule_arrival t rate =
  let sim = System.sim t.system in
  let gap = -.log (1.0 -. Rng.float t.rng 1.0) /. rate in
  Sim.schedule sim ~delay:gap (fun () ->
      if Sim.now sim < t.stop_at then begin
        attempt t (gen_op t ~client:false) ~tries:0;
        schedule_arrival t rate
      end)

let start t =
  let sim = System.sim t.system in
  t.start_now <- Sim.now sim;
  t.stop_at <- Sim.now sim +. t.cfg.duration;
  match t.cfg.mode with
  | Closed { clients; _ } ->
      for _ = 1 to clients do
        Sim.schedule sim ~delay:0.0 (fun () -> attempt t (gen_op t ~client:true) ~tries:0)
      done
  | Open { rate } -> schedule_arrival t rate

let note_downtime t d =
  if d < 0.0 then invalid_arg "Load.note_downtime: negative window";
  t.nemesis_downtime <- t.nemesis_downtime +. d

let stats t =
  let now = Sim.now (System.sim t.system) in
  let elapsed = (if t.end_now > t.start_now then t.end_now else now) -. t.start_now in
  (* Committed/sec over the time the system was actually available: the
     union of injected fault windows is excluded, so a run with a long
     partition is compared on what it did while it could do anything. *)
  let up_time = max 0.0 (elapsed -. t.nemesis_downtime) in
  {
    submitted = t.s_submitted;
    committed = t.s_committed;
    aborted = t.s_aborted;
    deliberate_aborts = t.s_deliberate;
    sheds = t.s_sheds;
    retries = t.s_retries;
    reroutes = t.s_reroutes;
    abandoned = t.s_abandoned;
    wait_timeouts = wait_timeouts_now () - t.wait_timeouts0;
    reads_submitted = t.s_r_submitted;
    reads_committed = t.s_r_committed;
    reads_aborted = t.s_r_aborted;
    read_p50 = Metrics.histogram_quantile t.rhist 0.5 /. 10.0;
    read_p99 = Metrics.histogram_quantile t.rhist 0.99 /. 10.0;
    elapsed;
    nemesis_downtime = t.nemesis_downtime;
    throughput = (if up_time > 0.0 then float_of_int t.s_committed /. up_time else 0.0);
    p50 = Metrics.histogram_quantile t.hist 0.5 /. 10.0;
    p99 = Metrics.histogram_quantile t.hist 0.99 /. 10.0;
  }

let drain ?(limit = 100_000.0) t =
  System.quiesce ~limit t.system;
  t.end_now <- Sim.now (System.sim t.system);
  stats t

let run ?limit cfg =
  let t = create cfg in
  start t;
  drain ?limit t

(* --- invariants -------------------------------------------------------- *)

let committed_base t g o =
  let heap = Guardian.heap (System.guardian t.system (Gid.of_int g)) in
  Heap.with_snapshot heap (fun s ->
      match Heap.snapshot_var heap s (obj_name o) with
      | Some (Value.Ref a) -> Heap.snapshot_read heap s a
      | Some _ | None ->
          failwith (Printf.sprintf "Load: object %s missing" (obj_name o)))

let committed_value t g o =
  match committed_base t g o with
  | Value.Int v -> v
  | _ -> failwith "Load: object is not an int"

let check_directory t d =
  let n_keys = t.cfg.guardians * t.cfg.objects_per_guardian in
  let problem = ref None in
  for k = 0 to n_keys - 1 do
    match Directory.snapshot_read d (obj_name k) with
    | Some (Value.Int v) ->
        if v <> t.dmodel.(k) && !problem = None then
          problem :=
            Some
              (Printf.sprintf "%s = %d, model says %d (lost or phantom action)" (obj_name k) v
                 t.dmodel.(k))
    | Some _ -> if !problem = None then problem := Some (obj_name k ^ " is not an int")
    | None -> if !problem = None then problem := Some (obj_name k ^ " missing")
  done;
  (match Directory.verify_unique_uids d with
  | Ok () -> ()
  | Error e -> if !problem = None then problem := Some e);
  match !problem with Some p -> Error p | None -> Ok ()

let check_queue t =
  let problem = ref None in
  for g = 0 to t.cfg.guardians - 1 do
    for o = 0 to t.cfg.objects_per_guardian - 1 do
      match
        Fifo.check ~enqueued:t.q_enq.(g).(o) ~dequeued:t.q_deq.(g).(o) (committed_base t g o)
      with
      | Ok () -> ()
      | Error e ->
          if !problem = None then
            problem := Some (Printf.sprintf "g%d/%s: %s" g (obj_name o) e)
    done
  done;
  match !problem with Some p -> Error p | None -> Ok ()

let check t =
  let up =
    match t.dir with
    | Some d ->
        (* After a promotion the dead primary legitimately stays down; what
           matters is that every shard *resolves* to a live guardian. *)
        List.init t.cfg.guardians Gid.of_int
        |> List.for_all (fun g ->
               Guardian.is_up (System.guardian t.system (Directory.resolve d g)))
    | None -> List.for_all Guardian.is_up (System.guardians t.system)
  in
  if not up then Error "a guardian is down; restart before checking"
  else
    match t.read_violation with
    | Some p -> Error p
    | None -> (
    match t.dir with
    | Some d -> check_directory t d
    | None when t.cfg.profile = Queue -> check_queue t
    | None ->
    let initial =
      match t.cfg.profile with
      | Synthetic | Queue | Saga -> 0
      | Bank | Reservation -> t.cfg.initial
    in
    let problem = ref None in
    let total = ref 0 in
    for g = 0 to t.cfg.guardians - 1 do
      for o = 0 to t.cfg.objects_per_guardian - 1 do
        let v = committed_value t g o in
        total := !total + v;
        (match t.cfg.profile with
        | Synthetic | Saga ->
            if v <> t.model.(g).(o) && !problem = None then
              problem :=
                Some
                  (Printf.sprintf "g%d/%s = %d, model says %d (lost or phantom action)" g
                     (obj_name o) v t.model.(g).(o))
        | Reservation ->
            if (v < 0 || v > initial) && !problem = None then
              problem := Some (Printf.sprintf "g%d/%s = %d seats (outside [0,%d])" g (obj_name o) v initial)
        | Bank | Queue -> ())
      done
    done;
    match !problem with
    | Some p -> Error p
    | None -> (
        match t.cfg.profile with
        | Synthetic | Queue -> Ok ()
        | Saga -> Saga.check t.saga
        | Bank ->
            let expected = t.cfg.guardians * t.cfg.objects_per_guardian * t.cfg.initial in
            if !total = expected then Ok ()
            else Error (Printf.sprintf "total balance %d, expected %d" !total expected)
        | Reservation ->
            let sold = (t.cfg.guardians * t.cfg.objects_per_guardian * t.cfg.initial) - !total in
            if sold = t.bookings then Ok ()
            else Error (Printf.sprintf "%d seats sold, %d bookings committed" sold t.bookings)))
