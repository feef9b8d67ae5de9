module Heap = Rs_objstore.Heap
module Log_dir = Rs_slog.Log_dir
module Log = Rs_slog.Stable_log

type technique = Core.Hybrid_rs.technique = Compaction | Snapshot

type impl =
  | Simple of { heap : Heap.t; dir : Log_dir.t; rs : Core.Simple_rs.t }
  | Hybrid of { heap : Heap.t; dir : Log_dir.t; rs : Core.Hybrid_rs.t }
  | Shadow of { heap : Heap.t; rs : Core.Shadow_rs.t }

type t = impl

let name = function Simple _ -> "simple" | Hybrid _ -> "hybrid" | Shadow _ -> "shadow"

let heap = function Simple { heap; _ } | Hybrid { heap; _ } | Shadow { heap; _ } -> heap

(* Shadow writes are synchronously durable, so [on_durable] fires
   immediately; the logged schemes hand it to their group-commit
   scheduler. Volatile lock-state updates happen before the recovery
   system call: under a zero window the callback runs inside it, and must
   see the heap already committed/aborted. *)
let prepare ?on_durable t aid mos =
  match t with
  | Simple { rs; _ } -> Core.Simple_rs.prepare ?on_durable rs aid mos
  | Hybrid { rs; _ } -> Core.Hybrid_rs.prepare ?on_durable rs aid mos
  | Shadow { rs; _ } ->
      Core.Shadow_rs.prepare rs aid mos;
      Option.iter (fun k -> k ()) on_durable

let commit ?on_durable t aid =
  Heap.commit_action (heap t) aid;
  match t with
  | Simple { rs; _ } -> Core.Simple_rs.commit ?on_durable rs aid
  | Hybrid { rs; _ } -> Core.Hybrid_rs.commit ?on_durable rs aid
  | Shadow { rs; _ } ->
      Core.Shadow_rs.commit rs aid;
      Option.iter (fun k -> k ()) on_durable

let abort ?on_durable t aid =
  Heap.abort_action (heap t) aid;
  match t with
  | Simple { rs; _ } -> Core.Simple_rs.abort ?on_durable rs aid
  | Hybrid { rs; _ } -> Core.Hybrid_rs.abort ?on_durable rs aid
  | Shadow { rs; _ } ->
      Core.Shadow_rs.abort rs aid;
      Option.iter (fun k -> k ()) on_durable

let crash_recover t =
  Core.Tables.Recovery_report.measure (fun () ->
      match t with
      | Simple { dir; _ } ->
          let rs, info = Core.Simple_rs.recover dir in
          (* [recover] builds a fresh directory record over the surviving
             stores; keep that one — the pre-crash record's volatile state
             (current-log handle, segment table) is stale. *)
          (Simple { heap = Core.Simple_rs.heap rs; dir = Core.Simple_rs.dir rs; rs }, info)
      | Hybrid { dir; _ } ->
          let rs, info = Core.Hybrid_rs.recover dir in
          (Hybrid { heap = Core.Hybrid_rs.heap rs; dir = Core.Hybrid_rs.dir rs; rs }, info)
      | Shadow { rs; _ } ->
          let rs, info = Core.Shadow_rs.recover rs in
          (Shadow { heap = Core.Shadow_rs.heap rs; rs }, info))

let housekeep t technique =
  match (t, technique) with
  | Hybrid { rs; _ }, tech -> Core.Hybrid_rs.housekeep rs tech
  | Simple { rs; _ }, Snapshot -> Core.Simple_rs.housekeep rs
  | Simple _, Compaction (* compaction needs the chain; not available *) | Shadow _, _ -> ()

let housekeep_first_slice t technique =
  match (t, technique) with
  | Hybrid { rs; _ }, tech ->
      ignore (Core.Hybrid_rs.hk_step rs (Core.Hybrid_rs.hk_start rs tech) ~budget:max_int)
  | Simple { rs; _ }, Snapshot ->
      ignore (Core.Simple_rs.hk_step rs (Core.Simple_rs.hk_start rs) ~budget:max_int)
  | Simple _, Compaction | Shadow _, _ -> ()

let supports_housekeeping = function Hybrid _ | Simple _ -> true | Shadow _ -> false

let scheduler = function
  | Simple { rs; _ } -> Some (Core.Simple_rs.scheduler rs)
  | Hybrid { rs; _ } -> Some (Core.Hybrid_rs.scheduler rs)
  | Shadow _ -> None (* shadow writes are synchronously durable *)

let current_log = function
  | Simple { rs; _ } -> Some (Core.Simple_rs.log rs)
  | Hybrid { rs; _ } -> Some (Core.Hybrid_rs.log rs)
  | Shadow _ -> None

let stable_stores = function
  | Simple { dir; _ } | Hybrid { dir; _ } -> Log_dir.stores dir
  | Shadow { rs; _ } -> Core.Shadow_rs.stable_stores rs

let physical_writes = function
  | Simple { dir; _ } | Hybrid { dir; _ } -> Log_dir.physical_writes dir
  | Shadow { rs; _ } -> Core.Shadow_rs.physical_writes rs

let log_entries = function
  | Simple { rs; _ } -> Log.entry_count (Core.Simple_rs.log rs)
  | Hybrid { rs; _ } -> Log.entry_count (Core.Hybrid_rs.log rs)
  | Shadow { rs; _ } -> Core.Shadow_rs.map_size rs

let log_bytes = function
  | Simple { rs; _ } -> Log.stream_bytes (Core.Simple_rs.log rs)
  | Hybrid { rs; _ } -> Log.stream_bytes (Core.Hybrid_rs.log rs)
  | Shadow _ -> 0

let log_dir = function
  | Simple { dir; _ } | Hybrid { dir; _ } -> Some dir
  | Shadow _ -> None

let simple ?page_size ?segment_pages () =
  let heap = Heap.create () in
  let dir = Log_dir.create ?page_size ?segment_pages () in
  Simple { heap; dir; rs = Core.Simple_rs.create heap dir }

let hybrid ?page_size ?segment_pages () =
  let heap = Heap.create () in
  let dir = Log_dir.create ?page_size ?segment_pages () in
  Hybrid { heap; dir; rs = Core.Hybrid_rs.create heap dir }

let shadow () =
  let heap = Heap.create () in
  Shadow { heap; rs = Core.Shadow_rs.create heap () }

let all () = [ simple (); hybrid (); shadow () ]
