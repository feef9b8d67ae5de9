module System = Rs_guardian.System
module Guardian = Rs_guardian.Guardian
module Heap = Rs_objstore.Heap
module Value = Rs_objstore.Value
module Gid = Rs_util.Gid
module Rng = Rs_util.Rng

type t = {
  system : System.t;
  per_guardian : int;
  initial : int;
  rng : Rng.t;
  mutable committed : int;
  mutable aborted : int;
}

let acct_name i = Printf.sprintf "acct%d" i

let system t = t.system
let n_accounts t = System.n_guardians t.system * t.per_guardian
let committed t = t.committed
let aborted t = t.aborted

let create ?(seed = 7) ~system ~accounts_per_guardian ~initial_balance () =
  let t =
    {
      system;
      per_guardian = accounts_per_guardian;
      initial = initial_balance;
      rng = Rng.create seed;
      committed = 0;
      aborted = 0;
    }
  in
  (* One setup action per guardian creating its accounts; under message
     loss a setup can abort unilaterally, so retry until committed. *)
  for g = 0 to System.n_guardians system - 1 do
    let setup heap aid =
      for i = 0 to accounts_per_guardian - 1 do
        let a = Heap.alloc_atomic heap ~creator:aid (Value.Int initial_balance) in
        Heap.set_stable_var heap aid (acct_name i) (Value.Ref a)
      done
    in
    let rec attempt () =
      let h =
        System.submit system ~coordinator:(Gid.of_int g) ~steps:[ (Gid.of_int g, setup) ]
      in
      match System.await system h with
      | System.Committed -> ()
      | System.Aborted -> attempt ()
    in
    attempt ()
  done;
  (* [await] returns at the commit decision; quiesce so the phase-two
     message installs the account bindings before any transfer reads. *)
  System.quiesce system;
  t

(* An account is (guardian, local index). *)
let pick_account t =
  let g = Rng.int t.rng (System.n_guardians t.system) in
  let i = Rng.int t.rng t.per_guardian in
  (Gid.of_int g, i)

let adjust name delta : System.work =
 fun heap aid ->
  match Heap.get_stable_var heap name with
  | Some (Value.Ref a) -> (
      match Heap.read_atomic heap aid a with
      | Value.Int bal ->
          (* Debits below zero are allowed: overdrafts keep the workload
             simple; conservation is the invariant under test. *)
          Heap.set_current heap aid a (Value.Int (bal + delta))
      | _ -> failwith "Bank: account is not an int")
  | Some _ | None -> failwith (Printf.sprintf "Bank: unknown account %s" name)

(* One transfer of 1 between two distinct random accounts, coordinated by
   the source guardian. Resolution is asynchronous. *)
let submit_transfer t =
  let src_g, src_i = pick_account t in
  let rec pick_dst () =
    let d = pick_account t in
    if d = (src_g, src_i) then pick_dst () else d
  in
  let dst_g, dst_i = pick_dst () in
  let h =
    System.submit t.system ~coordinator:src_g
      ~steps:
        [
          (src_g, adjust (acct_name src_i) (-1));
          (dst_g, adjust (acct_name dst_i) 1);
        ]
  in
  Rs_guardian.Action.on_resolve h (fun _ outcome ->
      match outcome with
      | System.Committed -> t.committed <- t.committed + 1
      | System.Aborted -> t.aborted <- t.aborted + 1)

let run t ~n_transfers ?crash_every () =
  let submitted = ref 0 in
  while !submitted < n_transfers do
    let batch =
      match crash_every with
      | Some k -> min k (n_transfers - !submitted)
      | None -> min 10 (n_transfers - !submitted)
    in
    for _ = 1 to batch do
      submit_transfer t
    done;
    submitted := !submitted + batch;
    (* Crash in the middle of the in-flight protocol work, not at a quiet
       point — that is where recovery earns its keep. *)
    (match crash_every with
    | Some _ when !submitted < n_transfers ->
        ignore (System.run ~until:(Rs_sim.Sim.now (System.sim t.system) +. 2.0) t.system);
        let victim = Gid.of_int (Rng.int t.rng (System.n_guardians t.system)) in
        System.crash t.system victim;
        ignore (System.restart t.system victim)
    | Some _ | None -> ());
    System.quiesce t.system
  done;
  System.quiesce t.system

let balances t =
  (* One read-only action per guardian: every account on the shard is read
     from a single committed snapshot. *)
  List.concat_map
    (fun gd ->
      System.read_only t.system (Guardian.gid gd) (fun ro ->
          List.init t.per_guardian (fun i ->
              match System.ro_var ro (acct_name i) with
              | Some (Value.Ref a) -> (
                  match System.ro_read ro a with
                  | Value.Int b -> b
                  | _ -> failwith "Bank: account is not an int")
              | Some _ | None -> failwith "Bank: account missing")))
    (System.guardians t.system)

let check_conservation t =
  let total = List.fold_left ( + ) 0 (balances t) in
  let expected = n_accounts t * t.initial in
  if total = expected then Ok ()
  else Error (Printf.sprintf "total balance %d, expected %d" total expected)
