(* Shared scaffolding for recovery-system tests: a tiny stand-in for the
   Argus runtime driving heap + recovery system together. *)

module Heap = Rs_objstore.Heap
module Value = Rs_objstore.Value
module Fvalue = Rs_objstore.Fvalue
module Uid = Rs_util.Uid
module Aid = Rs_util.Aid
module Gid = Rs_util.Gid
module Log = Rs_slog.Stable_log
module Log_dir = Rs_slog.Log_dir
module Le = Core.Log_entry

let aid ?(g = 0) n = Aid.make ~coordinator:(Gid.of_int g) ~seq:n
let uid = Uid.of_int
let fint = Fvalue.of_int

let value_testable = Alcotest.testable Value.pp Value.equal_shape

(* Build a raw log from entries (auto-chaining prev pointers for outcome
   entries when [chain] is set) and return its directory for recovery. *)
let raw_log ?(chain = false) entries =
  let dir = Log_dir.create ~page_size:256 () in
  let log = Log_dir.current dir in
  let last = ref None in
  List.iter
    (fun e ->
      let e = if chain && Le.is_outcome e then Le.with_prev e !last else e in
      let a = Log.write log (Le.encode e) in
      if Le.is_outcome e then last := Some a)
    entries;
  Log.force log;
  dir

(* A log over an in-test segment pool: enough of [Log.provider] to run a
   log without a [Log_dir]. [registry] holds the live segment stores by
   id; [released] lists the ids returned to the pool, newest first. *)
type seg_log = {
  log : Log.t;
  provider : Log.provider;
  registry : (int, Rs_storage.Stable_store.t) Hashtbl.t;
  released : int list ref;
}

let seg_log ?(page_size = 64) ?(segment_pages = 4) () =
  let registry = Hashtbl.create 8 in
  let next = ref 0 in
  let released = ref [] in
  let provider =
    {
      Log.alloc =
        (fun () ->
          let id = !next in
          incr next;
          let s = Rs_storage.Stable_store.create ~pages:1 () in
          Hashtbl.replace registry id s;
          (id, s));
      lookup = Hashtbl.find_opt registry;
      release =
        (fun id ->
          if not (Hashtbl.mem registry id) then invalid_arg "released unknown segment";
          released := id :: !released;
          Hashtbl.remove registry id);
    }
  in
  let anchor = Rs_storage.Stable_store.create ~pages:1 () in
  { log = Log.create ~page_size ~segment_pages ~provider anchor; provider; registry; released }

(* Reopen [s]'s log from its anchor store, as after a crash. *)
let reopen ?cache_pages s = Log.open_ ?cache_pages ~provider:s.provider (Log.store s.log)

(* The store holding stream page [p] of [s]'s log. *)
let segment_of s p =
  Hashtbl.find s.registry (List.assoc (p / Log.segment_pages s.log) (Log.segment_table s.log))

let pt_of info = info.Core.Tables.Recovery_info.pt
let ct_of info = info.Core.Tables.Recovery_info.ct

let pt_state info a = List.assoc_opt a (pt_of info)

let check_pt info a expected label =
  Alcotest.(check bool) label true (pt_state info a = Some expected)

(* Look an object up in a recovered heap and return its atomic view. *)
let view_of heap u =
  match Heap.addr_of_uid heap u with
  | Some a -> Heap.atomic_view heap a
  | None -> Alcotest.failf "object %d not restored" (Uid.to_int u)

let mutex_of heap u =
  match Heap.addr_of_uid heap u with
  | Some a -> Heap.mutex_value heap a
  | None -> Alcotest.failf "mutex %d not restored" (Uid.to_int u)

let check_base heap u expected label =
  Alcotest.check value_testable label expected (view_of heap u).base

let check_cur heap u expected label =
  match (view_of heap u).cur with
  | Some v -> Alcotest.check value_testable label expected v
  | None -> Alcotest.failf "%s: no current version" label

let check_mutex heap u expected label = Alcotest.check value_testable label expected (mutex_of heap u)

let check_absent heap u label =
  Alcotest.(check bool) label true (Heap.addr_of_uid heap u = None)

(* --- stable variables, bound and read as the tests' actions do --- *)

(* A step that binds stable var [name] to [value]: a fresh atomic object
   the first time, a new current version after. *)
let set_value name value : Rs_guardian.System.work =
 fun heap aid ->
  match Heap.get_stable_var heap name with
  | Some (Value.Ref a) -> Heap.set_current heap aid a value
  | Some _ -> failwith "stable var is not a ref"
  | None ->
      let a = Heap.alloc_atomic heap ~creator:aid value in
      Heap.set_stable_var heap aid name (Value.Ref a)

let set_var name v = set_value name (Value.Int v)

(* Run [name := v] as action [seq] through a recovery system's prepare
   and commit, then commit it in the heap. *)
let commit_value ~prepare ~commit heap ~seq ~name ~v =
  let t = aid seq in
  set_var name v heap t;
  prepare t (Heap.mos heap t);
  commit t;
  Heap.commit_action heap t

(* The base version of stable var [name]: its committed int. *)
let stable_int heap name =
  match Heap.get_stable_var heap name with
  | Some (Value.Ref a) -> (
      match (Heap.atomic_view heap a).base with
      | Value.Int v -> v
      | v -> Alcotest.failf "not an int: %s" (Format.asprintf "%a" Value.pp v))
  | Some v -> Alcotest.failf "not a ref: %s" (Format.asprintf "%a" Value.pp v)
  | None -> Alcotest.failf "stable var %s unbound" name

(* A guardian's committed value for [name], read through a snapshot. *)
let committed_value gd name =
  let heap = Rs_guardian.Guardian.heap gd in
  Heap.with_snapshot heap (fun s ->
      match Heap.snapshot_var heap s name with
      | Some (Value.Ref a) -> Some (Heap.snapshot_read heap s a)
      | Some _ | None -> None)

let committed_int gd name =
  match committed_value gd name with Some (Value.Int v) -> Some v | Some _ | None -> None

(* --- hand-built traces for the spec monitors --- *)

module Trace = Rs_obs.Trace
module Monitor = Rs_obs.Monitor

let record i event = { Trace.seq = i; time = float_of_int i; event }
let details vs = List.map (fun v -> Format.asprintf "%a" Monitor.pp_violation v) vs
let fires monitor vs = List.exists (fun v -> v.Monitor.monitor = monitor) vs

let all_on records =
  List.concat_map
    (fun on -> on records)
    Monitor.
      [
        commit_implies_durable_on;
        repl_ship_order_on;
        log_monotonic_on;
        lock_legal_on;
        handle_liveness_on;
        snapshot_legal_on;
      ]

(* A hand-built trace, also streamed through [Trace.emit]: the live folds
   behind [Monitor.check] must reach exactly the verdict the [_on] folds
   reach over the list. *)
let recs evs =
  let records = List.mapi record evs in
  Trace.clear ();
  List.iter (fun (r : Trace.record) -> Trace.emit r.event) records;
  let streamed = details (Monitor.check ()) in
  Trace.clear ();
  Alcotest.(check (list string)) "streamed = folded" (details (all_on records)) streamed;
  records

(* --- forced minor collections --- *)

(* [Array.make n v] (and the stdlib functions built on it) runs a minor
   collection first when [n] is over 256 words and [v] is young. Fail if
   [f], run on an empty minor heap, sees any minor collection at all: it
   allocates far less than a minor heap, so none can come from filling it. *)
let check_no_minor name f =
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let r = f () in
  Alcotest.(check int) (name ^ ": minor collections") before (Gc.quick_stat ()).Gc.minor_collections;
  r

(* --- fault injection --- *)

(* Run [f] with the [n]-th fault site satisfying [p] crashed: a disk write
   there tears its page, a force or segment boundary crashes right after
   itself; either raises [Rs_storage.Disk.Crash]. *)
let crash_nth p n f = Rs_util.Fault_hook.(with_hook (on_nth p n Crash)) f
