module System = Rs_guardian.System
module Guardian = Rs_guardian.Guardian
module Heap = Rs_objstore.Heap
module Value = Rs_objstore.Value
module Gid = Rs_util.Gid
module Uid = Rs_util.Uid
module Sim = Rs_sim.Sim
module Metrics = Rs_obs.Metrics
module Trace = Rs_obs.Trace

let m_routes = Metrics.counter "dir.routes"
let m_cross_routes = Metrics.counter "dir.cross_routes"

let key_hwm = "uid.hwm"
let retry_delay = 2.0

exception Out_of_uids of { gid : Gid.t }

(* A shard's volatile uid pool: committed ranges, oldest first. At most
   one reservation is in flight per shard; capacity waiters queue on it. *)
type pool = {
  mutable ranges : (int * int) list; (* (next, hi): next is the uid minted next *)
  mutable reserving : bool;
  mutable waiters : (unit -> unit) list;
}

type t = {
  system : System.t;
  placement : Placement.t;
  mutable master : Gid.t; (* re-pointed when the master's shard fails over *)
  batch : int;
  pools : pool Gid.Tbl.t;
  (* Committed reservations, newest first: (lo, hi, owner). *)
  mutable ranges : (int * int * Gid.t) list;
  mutable max_hi : int;
  mutable leaked : int;
  (* Ledger of every pool-minted uid and the shard that minted it. *)
  minted : Gid.t Uid.Tbl.t;
  (* Failover redirects applied after placement: dead shard gid -> heir. *)
  redirects : Gid.t Gid.Tbl.t;
}

let system t = t.system
let placement t = t.placement
let master t = t.master
let batch t = t.batch
let leaked t = t.leaked

(* The first directory-managed uid: every guardian's local bootstrap uids
   (the stable-variables root among them) stay below it. *)
let first_uid = 1024

let base _ = first_uid

(* Follow failover redirects (bounded: redirect chains only grow one hop
   per promotion and promotions re-point existing entries, but stay safe
   against a cycle from pathological retarget calls). *)
let resolve t g =
  let rec go g n =
    if n = 0 then g
    else match Gid.Tbl.find_opt t.redirects g with Some g' -> go g' (n - 1) | None -> g
  in
  go g 8

let locate t key = resolve t (Placement.shard_of_key t.placement key)

let pool t g =
  match Gid.Tbl.find_opt t.pools g with
  | Some p -> p
  | None ->
      invalid_arg (Format.asprintf "Directory: %a is not a managed shard" Gid.pp g)

let pool_remaining t g =
  List.fold_left (fun acc (next, hi) -> acc + (hi - next)) 0 (pool t g).ranges

let reserved_ranges t = List.rev t.ranges

let locate_uid t u =
  let u = Uid.to_int u in
  if u < first_uid then None
  else
    List.find_map (fun (lo, hi, g) -> if lo <= u && u < hi then Some g else None) t.ranges

let heap_of t g = Guardian.heap (System.guardian t.system g)

let watermark t =
  let heap = heap_of t t.master in
  Heap.with_snapshot heap (fun s ->
      match Heap.snapshot_var heap s key_hwm with
      | Some (Value.Ref a) -> (
          match Heap.snapshot_read heap s a with
          | Value.Int w -> w
          | _ -> failwith "Directory: watermark is not an int")
      | Some _ | None -> failwith "Directory: watermark missing")

(* --- pool minting ------------------------------------------------------ *)

let pool_mint t g () =
  let p = pool t g in
  match p.ranges with
  | [] -> raise (Out_of_uids { gid = g })
  | (next, hi) :: rest ->
      p.ranges <- (if next + 1 = hi then rest else (next + 1, hi) :: rest);
      let u = Uid.of_int next in
      (match Uid.Tbl.find_opt t.minted u with
      | Some g' when not (Gid.equal g' g) ->
          failwith
            (Format.asprintf "Directory: %a minted by both %a and %a" Uid.pp u Gid.pp g' Gid.pp g)
      | Some _ | None -> ());
      Uid.Tbl.replace t.minted u g;
      u

let install_source t g =
  Heap.set_uid_source (heap_of t g)
    (Some { Uid.Source.label = "pool:" ^ Gid.to_string g; mint = pool_mint t g })

(* --- batch reservation ------------------------------------------------- *)

(* The reservation step, run on the master as an ordinary action: advance
   the watermark under its write lock. [result] carries the pre-advance
   value out of the fiber; it is only trusted once the action commits. *)
let reserve_step t result heap aid =
  match Heap.get_stable_var heap key_hwm with
  | Some (Value.Ref a) -> (
      Heap.write_lock heap aid a;
      match Heap.read_atomic heap aid a with
      | Value.Int next ->
          result := next;
          Heap.set_current heap aid a (Value.Int (next + t.batch))
      | _ -> raise System.Abort_action)
  | Some _ | None -> raise System.Abort_action

let add_range t g ~lo =
  let hi = lo + t.batch in
  (* Reservations serialize on the watermark lock, so committed ranges are
     strictly increasing: a replayed or reused batch would violate this. *)
  if lo < t.max_hi then
    failwith (Printf.sprintf "Directory: reservation [%d,%d) overlaps watermark %d" lo hi t.max_hi);
  t.max_hi <- hi;
  t.ranges <- (lo, hi, g) :: t.ranges;
  let p = pool t g in
  p.ranges <- p.ranges @ [ (lo, hi) ];
  if Trace.enabled () then
    Trace.emit (Trace.Uid_reserve { gid = Gid.to_string g; lo; count = t.batch })

let reserve_async ~on_ready t g =
  let p = pool t g in
  if p.reserving then p.waiters <- on_ready :: p.waiters
  else begin
    p.reserving <- true;
    p.waiters <- [ on_ready ];
    let sim = System.sim t.system in
    let result = ref (-1) in
    let rec attempt () =
      match
        System.submit t.system ~coordinator:t.master
          ~steps:[ (t.master, reserve_step t result) ]
      with
      | h ->
          Rs_guardian.Action.on_resolve h (fun _ outcome ->
              match outcome with
              | System.Committed ->
                  add_range t g ~lo:!result;
                  p.reserving <- false;
                  let ws = List.rev p.waiters in
                  p.waiters <- [];
                  List.iter (fun k -> k ()) ws
              | System.Aborted -> Sim.schedule sim ~delay:retry_delay attempt)
      | exception (System.Guardian_down _ | System.Overloaded _) ->
          (* Master dead or at capacity: back off and re-ask. Like every
             retry against a down guardian, this only drains once someone
             restarts the master. *)
          Sim.schedule sim ~delay:retry_delay attempt
    in
    attempt ()
  end

let ensure_uids t g n =
  let sim = System.sim t.system in
  while pool_remaining t g < n do
    let landed = ref false in
    reserve_async t g ~on_ready:(fun () -> landed := true);
    while (not !landed) && Sim.step sim do () done;
    if not !landed then failwith "Directory.ensure_uids: simulator drained mid-reservation"
  done

(* --- construction ------------------------------------------------------ *)

let create ?(batch = 64) ~system ~placement () =
  if batch <= 0 then invalid_arg "Directory.create: batch must be positive";
  let shards = Placement.shards placement in
  let master = List.hd shards in
  let t =
    {
      system;
      placement;
      master;
      batch;
      pools = Gid.Tbl.create 16;
      ranges = [];
      max_hi = first_uid;
      leaked = 0;
      minted = Uid.Tbl.create 256;
      redirects = Gid.Tbl.create 4;
    }
  in
  (* Bootstrap the watermark through the master's *local* uid source —
     pools do not exist yet, which is exactly why bootstrap uids live
     below [first_uid]. *)
  let boot heap aid =
    match Heap.get_stable_var heap key_hwm with
    | Some _ -> ()
    | None ->
        let a = Heap.alloc_atomic heap ~creator:aid (Value.Int first_uid) in
        Heap.set_stable_var heap aid key_hwm (Value.Ref a)
  in
  let rec go () =
    let h = System.submit system ~coordinator:master ~steps:[ (master, boot) ] in
    if System.await system h <> System.Committed then go ()
  in
  go ();
  System.quiesce system;
  List.iter
    (fun g ->
      Gid.Tbl.replace t.pools g { ranges = []; reserving = false; waiters = [] };
      install_source t g)
    shards;
  t

(* --- routing ----------------------------------------------------------- *)

let submit ?mode ?coordinator t ~steps =
  let routed = List.map (fun (key, w) -> (locate t key, w)) steps in
  let coord =
    match coordinator with
    | Some c -> c
    | None -> (
        match routed with
        | (g, _) :: _ -> g
        | [] -> invalid_arg "Directory.submit: no steps")
  in
  let distinct = List.sort_uniq Gid.compare (List.map fst routed) in
  let cross = List.compare_length_with distinct 1 > 0 in
  Metrics.incr m_routes;
  if cross then Metrics.incr m_cross_routes;
  if Trace.recording () then
    Trace.emit
      (Trace.Dir_route
         { coordinator = Gid.to_string coord; shards = List.length distinct; cross })
  else Trace.skip ();
  System.submit ?mode t.system ~coordinator:coord ~steps:routed

let create_step key init uid_out heap aid =
  let a = Heap.alloc_atomic heap ~creator:aid init in
  uid_out := Heap.uid_of heap a;
  Heap.set_stable_var heap aid key (Value.Ref a)

let create_object ?(retries = 64) t ~key ~init =
  let g = locate t key in
  let sim = System.sim t.system in
  let uid_out = ref None in
  let rec go n =
    if n > retries then failwith ("Directory.create_object: too many aborts for " ^ key);
    ensure_uids t g 1;
    match
      System.submit t.system ~coordinator:g
        ~steps:[ (g, create_step key init uid_out) ]
    with
    | h -> (
        match System.await t.system h with
        | System.Committed -> (
            match !uid_out with Some u -> u | None -> assert false)
        | System.Aborted -> go (n + 1))
    | exception (System.Guardian_down _ | System.Overloaded _) ->
        ignore (System.run ~until:(Sim.now sim +. retry_delay) t.system);
        go (n + 1)
  in
  go 0

let rec create_object_async ?(on_done = fun (_ : Uid.t) -> ()) t ~key ~init =
  let g = locate t key in
  let sim = System.sim t.system in
  let retry () =
    Sim.schedule sim ~delay:retry_delay (fun () -> create_object_async ~on_done t ~key ~init)
  in
  if pool_remaining t g = 0 then
    reserve_async t g ~on_ready:(fun () -> create_object_async ~on_done t ~key ~init)
  else
    let uid_out = ref None in
    match
      System.submit t.system ~coordinator:g ~steps:[ (g, create_step key init uid_out) ]
    with
    | h ->
        Rs_guardian.Action.on_resolve h (fun _ outcome ->
            match outcome with
            | System.Committed -> (
                match !uid_out with Some u -> on_done u | None -> assert false)
            | System.Aborted -> retry ())
    | exception (System.Guardian_down _ | System.Overloaded _) -> retry ()

(* The unified committed-read path: a true snapshot read on the owning
   shard — binding and value come from one committed cut. *)
let snapshot_read t key =
  System.read_only t.system (locate t key) (fun ro ->
      match System.ro_var ro key with
      | Some (Value.Ref a) -> Some (System.ro_read ro a)
      | Some v -> Some v
      | None -> None)

(* --- crashes ----------------------------------------------------------- *)

let note_crash t g =
  match Gid.Tbl.find_opt t.pools g with
  | None -> ()
  | Some p ->
      (* The pool dies with the shard's volatile state. Its unused uids
         are leaked forever — the watermark never hands them out again. *)
      t.leaked <- t.leaked + List.fold_left (fun acc (next, hi) -> acc + (hi - next)) 0 p.ranges;
      p.ranges <- []

let crash t g =
  System.crash t.system g;
  note_crash t g

let restart t g =
  let report = System.restart t.system g in
  (* Recovery rebuilt the heap with the default local source; shards mint
     from the directory. *)
  if Gid.Tbl.mem t.pools g then install_source t g;
  report

(* --- failover ----------------------------------------------------------- *)

let retarget t ~from_ ~to_ =
  if Gid.equal from_ to_ then Gid.Tbl.remove t.redirects from_
  else begin
    (* Re-point existing redirects that land on [from_] too, so chains
       stay one hop long across repeated failovers. *)
    Gid.Tbl.iter
      (fun g dst -> if Gid.equal dst from_ then Gid.Tbl.replace t.redirects g to_)
      (Gid.Tbl.copy t.redirects);
    Gid.Tbl.replace t.redirects from_ to_;
    (* The dead shard's unused uid pool leaked with its volatile state;
       the heir mints from a fresh pool under its own gid. *)
    note_crash t from_;
    if Gid.Tbl.mem t.pools from_ then begin
      if not (Gid.Tbl.mem t.pools to_) then
        Gid.Tbl.replace t.pools to_ { ranges = []; reserving = false; waiters = [] };
      install_source t to_
    end;
    if Gid.equal t.master from_ then t.master <- to_
  end

(* --- oracles ----------------------------------------------------------- *)

let verify_unique_uids t =
  let owner = Uid.Tbl.create 256 in
  let problem = ref None in
  List.iter
    (fun gd ->
      let g = Guardian.gid gd in
      let heap = Guardian.heap gd in
      Heap.iter_objects heap (fun a kind ->
          match (kind, Heap.uid_of heap a) with
          | Heap.Placeholder, _ | _, None -> ()
          | (Heap.Atomic | Heap.Mutex | Heap.Regular), Some u ->
              if Uid.to_int u >= first_uid then (
                match Uid.Tbl.find_opt owner u with
                | Some g' when not (Gid.equal g' g) ->
                    if !problem = None then
                      problem :=
                        Some
                          (Format.asprintf "uid %a bound on both %a and %a" Uid.pp u Gid.pp g'
                             Gid.pp g)
                | Some _ -> ()
                | None -> Uid.Tbl.replace owner u g)))
    (System.guardians t.system);
  (* Ranges must be pairwise disjoint and below the committed watermark. *)
  let rec disjoint = function
    | (_, hi, _) :: ((lo', hi', _) :: _ as rest) ->
        if lo' < hi then
          problem :=
            Some (Printf.sprintf "ranges [..,%d) and [%d,%d) overlap" hi lo' hi')
        else disjoint rest
    | [ _ ] | [] -> ()
  in
  disjoint (reserved_ranges t);
  (match reserved_ranges t with
  | [] -> ()
  | rs ->
      let _, hi, _ = List.nth rs (List.length rs - 1) in
      let w = watermark t in
      if hi > w && !problem = None then
        problem := Some (Printf.sprintf "range end %d above watermark %d" hi w));
  match !problem with Some p -> Error p | None -> Ok ()
