module System = Rs_guardian.System
module Guardian = Rs_guardian.Guardian
module Load = Rs_load.Load
module Gid = Rs_util.Gid
module Rng = Rs_util.Rng
module Sim = Rs_sim.Sim
module Trace = Rs_obs.Trace
module Directory = Rs_dir.Directory
module Pair = Rs_repl.Repl.Pair
module Log_dir = Rs_slog.Log_dir
module Stable_store = Rs_storage.Stable_store

type config = {
  seed : int;
  profile : Load.profile;
  guardians : int;
  clients : int;
  duration : float;
  conflict : float;
  abort_rate : float;
  events : int;
  decay_weight : int;
  partition_weight : int;
  crash_weight : int;
  partition_span : float;
  restart_delay : float;
  replicated : bool;
}

let default =
  {
    seed = 1;
    profile = Load.Synthetic;
    guardians = 3;
    clients = 6;
    duration = 120.0;
    conflict = 0.2;
    abort_rate = 0.05;
    events = 6;
    decay_weight = 2;
    partition_weight = 2;
    crash_weight = 2;
    partition_span = 10.0;
    restart_delay = 8.0;
    replicated = false;
  }

type fired = { time : float; kind : string; target : string }

type outcome = {
  stats : Load.stats;
  fired : fired list;
  violations : string list;
  trace : string;
}

let validate cfg =
  if cfg.events < 0 then invalid_arg "Nemesis: events must be non-negative";
  if cfg.decay_weight < 0 || cfg.partition_weight < 0 || cfg.crash_weight < 0 then
    invalid_arg "Nemesis: weights must be non-negative";
  if cfg.events > 0 && cfg.decay_weight + cfg.partition_weight + cfg.crash_weight = 0 then
    invalid_arg "Nemesis: all weights are zero";
  if cfg.partition_span <= 0.0 then invalid_arg "Nemesis: partition_span must be positive";
  if cfg.restart_delay <= 0.0 then invalid_arg "Nemesis: restart_delay must be positive";
  if cfg.replicated && cfg.profile <> Load.Synthetic then
    invalid_arg "Nemesis: replicated mode drives the Synthetic profile (directory routing)"

let gname i = Gid.to_string (Gid.of_int i)

(* One seeded run: build the loaded world, sample a fault schedule over
   [0.05, 0.85] of the duration, chain every fault's restore action back
   into the simulator (no nested runs), drain to quiescence, then ask the
   explorer's judge for the verdict. Deterministic end to end:
   the nemesis draws from its own rng (seed lxor 0x4e4d), so the same
   config replays the same faults against the same traffic. Keeps a ring
   of the newest 8192 events for the outcome's trace unless the caller
   already keeps one. *)
let run cfg =
  validate cfg;
  let own_ring = Trace.capacity () = 0 in
  if own_ring then Trace.set_capacity 8192;
  Trace.clear ();
  Fun.protect ~finally:(fun () ->
      Trace.clear_clock ();
      if own_ring then Trace.set_capacity 0)
  @@ fun () ->
  let lcfg =
    {
      Load.default with
      seed = cfg.seed;
      guardians = cfg.guardians;
      profile = cfg.profile;
      mode = Load.Closed { clients = cfg.clients; think = 1.0 };
      duration = cfg.duration;
      conflict = cfg.conflict;
      abort_rate = cfg.abort_rate;
      directory = cfg.replicated;
      cross_shard = (if cfg.replicated then 0.25 else 0.0);
      spares = (if cfg.replicated then 1 else 0);
    }
  in
  let t = Load.create lcfg in
  let sys = Load.system t in
  let sim = System.sim sys in
  let dir = Load.directory t in
  let pair =
    if cfg.replicated then begin
      let p =
        Pair.create ?directory:dir ~system:sys ~primary:(Gid.of_int 0)
          ~standby:(Gid.of_int cfg.guardians) ()
      in
      (* Settle the seed ship before traffic starts. *)
      System.quiesce sys;
      Some p
    end
    else None
  in
  let world = Explore.world ?dir ?pair ~load:t sys in
  let n_total = cfg.guardians + (if cfg.replicated then 1 else 0) in
  let crashed = Array.make n_total false in
  let cut = Array.make n_total false in
  let promoted = ref false in
  let rng = Rng.create (cfg.seed lxor 0x4e4d) in
  (* Downtime is the *union* of open fault windows: a counter of active
     faults, charging [Load.note_downtime] only when the last one lifts. *)
  let active = ref 0 in
  let window_start = ref 0.0 in
  let fault_on () =
    if !active = 0 then window_start := Sim.now sim;
    incr active
  in
  let fault_off () =
    decr active;
    if !active = 0 then Load.note_downtime t (Sim.now sim -. !window_start)
  in
  let fired = ref [] in
  let note kind target =
    fired := { time = Sim.now sim; kind; target } :: !fired;
    Trace.emit (Trace.Nemesis { kind; target })
  in
  (* Shard i's *serving* guardian — the promoted heir after a failover. *)
  let shard_gid i =
    match dir with Some d -> Directory.resolve d (Gid.of_int i) | None -> Gid.of_int i
  in
  let pick xs = List.nth xs (Rng.int rng (List.length xs)) in
  let live_shards ~for_crash () =
    List.init cfg.guardians Fun.id
    |> List.filter (fun i ->
           (* After a promotion leave the pair's shard alone: the old
              primary is gone for good and the heir runs un-replicated. *)
           (not (for_crash && i = 0 && !promoted))
           &&
           let gid = shard_gid i in
           let gi = Gid.to_int gid in
           (not crashed.(gi)) && (not cut.(gi)) && Guardian.is_up (System.guardian sys gid))
  in
  let do_decay () =
    match live_shards ~for_crash:false () with
    | [] -> ()
    | shards ->
        let gid = shard_gid (pick shards) in
        let stores = Log_dir.stores (Guardian.log_dir (System.guardian sys gid)) in
        Stable_store.decay_random_page (pick stores) rng;
        note "decay" (gname (Gid.to_int gid))
  in
  let do_partition () =
    match live_shards ~for_crash:false () with
    | [] -> ()
    | shards ->
        let gid = shard_gid (pick shards) in
        let gi = Gid.to_int gid in
        cut.(gi) <- true;
        System.partition sys gid;
        fault_on ();
        note "partition" (gname gi);
        Sim.schedule sim ~delay:cfg.partition_span (fun () ->
            cut.(gi) <- false;
            System.heal sys gid;
            fault_off ();
            note "heal" (gname gi))
  in
  let do_crash () =
    match live_shards ~for_crash:true () with
    | [] -> ()
    | shards ->
        let gid = shard_gid (pick shards) in
        let gi = Gid.to_int gid in
        crashed.(gi) <- true;
        fault_on ();
        Explore.down world gid;
        note "crash" (gname gi);
        Sim.schedule sim ~delay:cfg.restart_delay (fun () ->
            let how = Explore.up world gid in
            crashed.(gi) <- false;
            fault_off ();
            match (how, pair) with
            | `Promoted, Some p ->
                promoted := true;
                note "promote" (gname (Gid.to_int (Pair.primary p)))
            | _ -> note "restart" (gname gi))
  in
  let schedule =
    List.init cfg.events (fun _ ->
        let time = (0.05 +. (0.8 *. Rng.float rng 1.0)) *. cfg.duration in
        let total = cfg.decay_weight + cfg.partition_weight + cfg.crash_weight in
        let w = Rng.int rng total in
        let kind =
          if w < cfg.decay_weight then `Decay
          else if w < cfg.decay_weight + cfg.partition_weight then `Partition
          else `Crash
        in
        (time, kind))
    |> List.sort compare
  in
  List.iter
    (fun (time, kind) ->
      Sim.schedule sim ~delay:time (fun () ->
          match kind with
          | `Decay -> do_decay ()
          | `Partition -> do_partition ()
          | `Crash -> do_crash ()))
    schedule;
  Load.start t;
  let stats = Load.drain t in
  let violations =
    List.map
      (fun (v : Oracle.violation) -> v.oracle ^ ": " ^ v.detail)
      (Explore.judge (Explore.World world))
  in
  { stats; fired = List.rev !fired; violations; trace = Trace.to_string () }

let pp_outcome fmt o =
  Format.fprintf fmt "@[<v>%a@,nemesis events %d@," Load.pp_stats o.stats (List.length o.fired);
  List.iter
    (fun e -> Format.fprintf fmt "  t=%-8.1f %-10s %s@," e.time e.kind e.target)
    o.fired;
  if o.violations = [] then Format.fprintf fmt "violations=0@]"
  else begin
    Format.fprintf fmt "violations=%d@," (List.length o.violations);
    List.iter (fun v -> Format.fprintf fmt "  %s@," v) o.violations;
    Format.fprintf fmt "@]"
  end
