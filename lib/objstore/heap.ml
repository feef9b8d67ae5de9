module Uid = Rs_util.Uid
module Aid = Rs_util.Aid
module Vec = Rs_util.Vec
module Metrics = Rs_obs.Metrics
module Trace = Rs_obs.Trace

let m_read_locks = Metrics.counter "heap.read_locks_taken"
let m_wait_timeouts = Metrics.counter "heap.wait_timeouts"

let holders_str = function
  | [] -> "-"
  | hs -> String.concat ";" (List.map Aid.to_string hs)

(* A conflicting lock/possession request, traced before the exception
   reaches the guardian runtime. *)
let conflict ~addr ~requester ~holders =
  if Trace.enabled () then
    Trace.emit
      (Trace.Lock_conflict { aid = Aid.to_string requester; holder = holders_str holders; addr })

(* Self-test mutation: re-enables the pre-wait-queue read path that
   grants past queued writers. *)
type Rs_util.Fault_hook.mutation += Read_barging

type addr = Value.addr

type lock = Free | Read of Aid.Set.t | Write of Aid.t

type atomic_view = { base : Value.t; cur : Value.t option; lock : lock }

type kind = Atomic | Mutex | Regular | Placeholder

(* FIFO wait queue entry: who waits and whether they want the write lock
   (write includes a reader's upgrade request, queued at the front). *)
type waiter = { w_aid : Aid.t; w_write : bool }

type atomic_body = {
  mutable a_base : Value.t;
  mutable a_cur : Value.t option;
  mutable a_lock : lock;
  mutable a_wait : waiter list;
  (* MVCC: [a_stamp] is the per-heap commit-sequence value under which
     [a_base] was installed (0 for creation/recovery images); [a_hist]
     holds older committed versions, newest first, each with its install
     stamp. Kept only while a live snapshot can still observe them. *)
  mutable a_stamp : int;
  mutable a_hist : (int * Value.t) list;
}

(* A snapshot pins the committed state as of its stamp. It is bound to one
   heap incarnation: crash/restart replaces the heap wholesale, so stamps
   are volatile and a stale snapshot cannot leak across a restart. *)
type snapshot = { s_stamp : int; s_heap : unit ref; mutable s_released : bool }

(* Min-heap of active snapshot stamps (lazy deletion: entries whose stamp
   no longer appears in the live table are dropped at the top). Gives the
   oldest live snapshot in O(log n) so pruning can short-circuit the
   common no-old-snapshot case. *)
module Snap_heap = struct
  type h = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 16 0; n = 0 }

  let push h x =
    if h.n = Array.length h.a then begin
      let a' = Array.make (2 * h.n) 0 in
      Array.blit h.a 0 a' 0 h.n;
      h.a <- a'
    end;
    let i = ref h.n in
    h.n <- h.n + 1;
    h.a.(!i) <- x;
    while !i > 0 && h.a.((!i - 1) / 2) > h.a.(!i) do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let peek h = if h.n = 0 then None else Some h.a.(0)

  let drop_min h =
    h.n <- h.n - 1;
    h.a.(0) <- h.a.(h.n);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.n && h.a.(l) < h.a.(!m) then m := l;
      if r < h.n && h.a.(r) < h.a.(!m) then m := r;
      if !m = !i then continue := false
      else begin
        let tmp = h.a.(!m) in
        h.a.(!m) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := !m
      end
    done
end

type mutex_body = {
  mutable m_cur : Value.t;
  mutable m_owner : Aid.t option;
  mutable m_wait : Aid.t list;
}

type regular_body = { mutable r_val : Value.t }

type body =
  | B_atomic of atomic_body
  | B_mutex of mutex_body
  | B_regular of regular_body
  | B_placeholder of Uid.t

type obj = { uid : Uid.t option; body : body }

(* Hooks installed by a scheduling runtime (Rs_guardian.System). [block]
   suspends the calling action until the lock has been transferred to it
   (true) or the wait was cancelled — timeout or crash — (false); [wake]
   tells the runtime a queued waiter now holds the lock. With no runtime
   installed, conflicting requests raise {!Lock_conflict} immediately. *)
type runtime = {
  block : addr:addr -> aid:Aid.t -> bool;
  wake : addr:addr -> aid:Aid.t -> unit;
}

(* Name -> slot index over one root version's pairs array, keyed on that
   array's physical identity. [slots] maps each bound name to its first
   slot (first-match, as [List.assoc_opt]); [names] is every bound name
   in tuple order. *)
type root_index = {
  pairs : Value.t array;
  slots : (string, int) Hashtbl.t;
  names : string list;
}

type t = {
  objs : obj Vec.t;
  gen : Uid.Gen.t;
  by_uid : addr Uid.Tbl.t;
  placeholders : addr Uid.Tbl.t;
  (* Per-action bookkeeping: every object the action modified (MOS), in
     order, and every lock it holds (for release at completion). *)
  modified : addr Vec.t Aid.Tbl.t;
  locked : addr Vec.t Aid.Tbl.t;
  root : addr;
  mutable runtime : runtime option;
  (* Owner's name ("G0", …; "" for bare heaps), stamped on lock trace
     events so the spec monitors can keep per-guardian lock state —
     object addresses collide across guardians. *)
  mutable label : string;
  (* Every fresh uid is minted through here; [None] means the guardian's
     own stable counter [gen]. A placement directory installs a batched
     range pool instead (globally-unique uids, see Rs_dir). *)
  mutable uid_source : Uid.Source.t option;
  (* MVCC state. [commit_seq] stamps committed version installs; the live
     snapshot stamps are tracked as count-per-stamp plus a min-heap
     ([snap_heap], lazy deletion) for the oldest-live query. [ro] maps a
     read-only action to its snapshot so [read_atomic] routes around the
     lock table entirely; [chained] indexes objects with non-empty
     history so a snapshot release prunes without a heap scan. *)
  mutable commit_seq : int;
  snap_live : (int, int ref) Hashtbl.t;
  snap_heap : Snap_heap.h;
  mutable snap_active : int;
  ro : snapshot Aid.Tbl.t;
  chained : (addr, unit) Hashtbl.t;
  (* This heap incarnation's identity, compared with [==]: a snapshot
     taken before a crash is rejected by the replacement heap instead of
     silently reading fresh stamps. *)
  heap_id : unit ref;
  (* Index over the root version this heap last looked a binding up in;
     rebuilt when a different version's array shows up. Per heap, so two
     guardians' roots never evict each other. *)
  mutable root_index : root_index;
}

exception Lock_conflict of { addr : addr; holders : Aid.t list }
exception Wait_timeout of { addr : addr; waiter : Aid.t }

let obj t a =
  if a < 0 || a >= Vec.length t.objs then
    invalid_arg (Printf.sprintf "Heap: address %d out of bounds" a);
  Vec.get t.objs a

(* [register] controls the uid -> addr table; placeholders carry a uid but
   must not claim the binding, which belongs to the real object. *)
let add_obj t ?uid ?(register = true) body =
  let a = Vec.length t.objs in
  Vec.push t.objs { uid; body };
  (match uid with
  | Some u when register -> Uid.Tbl.replace t.by_uid u a
  | Some _ | None -> ());
  a

let create () =
  let t =
    {
      objs = Vec.create ();
      gen = Uid.Gen.create ();
      by_uid = Uid.Tbl.create 64;
      placeholders = Uid.Tbl.create 16;
      modified = Aid.Tbl.create 16;
      locked = Aid.Tbl.create 16;
      root = 0;
      runtime = None;
      label = "";
      uid_source = None;
      commit_seq = 0;
      snap_live = Hashtbl.create 8;
      snap_heap = Snap_heap.create ();
      snap_active = 0;
      ro = Aid.Tbl.create 8;
      chained = Hashtbl.create 16;
      heap_id = ref ();
      root_index = { pairs = [||]; slots = Hashtbl.create 1; names = [] };
    }
  in
  let root =
    add_obj t ~uid:Uid.stable_vars
      (B_atomic
         {
           a_base = Value.Tup [||];
           a_cur = None;
           a_lock = Free;
           a_wait = [];
           a_stamp = 0;
           a_hist = [];
         })
  in
  assert (root = 0);
  t

let uid_gen t = t.gen
let root_addr t = t.root
let set_runtime t rt = t.runtime <- rt
let set_label t s =
  t.label <- s;
  if s <> "" then Trace.emit (Trace.Heap_label { heap = s })

let label t = t.label

let trace_lock t aid addr kind =
  if Trace.enabled () then
    Trace.emit (Trace.Lock_acquire { heap = t.label; aid = Aid.to_string aid; addr; kind })

let trace_release t aid addr =
  if Trace.enabled () then
    Trace.emit (Trace.Lock_release { heap = t.label; aid = Aid.to_string aid; addr })
let set_uid_source t s = t.uid_source <- s

(* The single minting point: every allocation of a recoverable object goes
   through the source interface, so a directory-managed heap cannot leak a
   locally-generated uid past the allocator. *)
let mint_uid t =
  let source, u =
    match t.uid_source with
    | Some s ->
        let u = s.Uid.Source.mint () in
        (* The local counter shadows the pool: recovery resets [gen] past
           every uid in the log, and a later fallback to the local source
           must not collide with pooled uids already handed out. *)
        Uid.Gen.reset_past t.gen u;
        (s.Uid.Source.label, u)
    | None -> ("local", Uid.Gen.fresh t.gen)
  in
  if Trace.recording () then Trace.emit (Trace.Uid_mint { source; uid = Uid.to_int u })
  else Trace.skip ();
  u

let kind_of t a =
  match (obj t a).body with
  | B_atomic _ -> Atomic
  | B_mutex _ -> Mutex
  | B_regular _ -> Regular
  | B_placeholder _ -> Placeholder

let uid_of t a = (obj t a).uid
let addr_of_uid t u = Uid.Tbl.find_opt t.by_uid u
let size t = Vec.length t.objs

let record tbl aid a =
  let v =
    match Aid.Tbl.find_opt tbl aid with
    | Some v -> v
    | None ->
        let v = Vec.create () in
        Aid.Tbl.replace tbl aid v;
        v
  in
  (* Keep first-modification order without duplicates; MOS sets are small. *)
  let dup = Vec.fold_left (fun acc x -> acc || x = a) false v in
  if not dup then Vec.push v a

let atomic t a name =
  match (obj t a).body with
  | B_atomic b -> b
  | B_mutex _ | B_regular _ | B_placeholder _ ->
      invalid_arg (Printf.sprintf "Heap.%s: %d is not atomic" name a)

let mutex t a name =
  match (obj t a).body with
  | B_mutex b -> b
  | B_atomic _ | B_regular _ | B_placeholder _ ->
      invalid_arg (Printf.sprintf "Heap.%s: %d is not mutex" name a)

let regular t a name =
  match (obj t a).body with
  | B_regular b -> b
  | B_atomic _ | B_mutex _ | B_placeholder _ ->
      invalid_arg (Printf.sprintf "Heap.%s: %d is not regular" name a)

(* Version copy: duplicate contained regular objects (fresh addresses,
   sharing preserved via memo), keep references to recoverable objects. *)
let copy_version t v =
  let memo = Hashtbl.create 8 in
  let rec go v =
    match v with
    | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ -> v
    | Value.Tup vs -> Value.tup_map go vs
    | Value.Ref a -> (
        match (obj t a).body with
        | B_atomic _ | B_mutex _ | B_placeholder _ -> v
        | B_regular r -> (
            match Hashtbl.find_opt memo a with
            | Some a' -> Value.Ref a'
            | None ->
                (* Reserve the copy first so cycles terminate. *)
                let a' = add_obj t (B_regular { r_val = Value.Unit }) in
                Hashtbl.add memo a a';
                (regular t a' "copy_version").r_val <- go r.r_val;
                Value.Ref a'))
  in
  go v

(* Snapshots (MVCC read path) *)

let active_snapshots t = t.snap_active

(* Oldest stamp any live snapshot holds; drains stale min-heap tops whose
   stamp has no live count left (lazy deletion). *)
let min_active t =
  let rec go () =
    match Snap_heap.peek t.snap_heap with
    | None -> None
    | Some st -> (
        match Hashtbl.find_opt t.snap_live st with
        | Some n when !n > 0 -> Some st
        | Some _ | None ->
            Snap_heap.drop_min t.snap_heap;
            go ())
  in
  go ()

(* Is any live snapshot stamped within [lo, hi)? The live table holds one
   entry per distinct active stamp — a handful at most. *)
let exists_active t ~lo ~hi =
  Hashtbl.fold (fun s n acc -> acc || (!n > 0 && s >= lo && s < hi)) t.snap_live false

(* Drop history versions no live snapshot can observe. A version stamped
   [st] whose next newer version (in the original chain) is stamped [succ]
   is visible exactly to snapshots [s] with [st <= s < succ]; the windows
   partition the stamp line, so each retained version needs a live
   snapshot of its own — which is the <= active-snapshots space bound
   asserted below. The base version is always kept. *)
let prune_chain t a b =
  (match b.a_hist with
  | [] -> ()
  | hist ->
      let hist' =
        match min_active t with
        | None -> []
        | Some m when m >= b.a_stamp -> []
        | Some _ ->
            let rec go succ = function
              | [] -> []
              | (st, v) :: rest ->
                  let rest' = go st rest in
                  if exists_active t ~lo:st ~hi:succ then (st, v) :: rest' else rest'
            in
            go b.a_stamp hist
      in
      b.a_hist <- hist';
      assert (List.length hist' <= t.snap_active));
  if b.a_hist = [] then Hashtbl.remove t.chained a else Hashtbl.replace t.chained a ()

let snapshot t =
  let stamp = t.commit_seq in
  (match Hashtbl.find_opt t.snap_live stamp with
  | Some n -> incr n
  | None ->
      Hashtbl.replace t.snap_live stamp (ref 1);
      Snap_heap.push t.snap_heap stamp);
  t.snap_active <- t.snap_active + 1;
  if Trace.enabled () then Trace.emit (Trace.Snap_open { heap = t.label; stamp });
  { s_stamp = stamp; s_heap = t.heap_id; s_released = false }

let check_snap t s name =
  if s.s_heap != t.heap_id then
    invalid_arg (Printf.sprintf "Heap.%s: snapshot from another heap incarnation" name);
  if s.s_released then invalid_arg (Printf.sprintf "Heap.%s: snapshot already released" name)

let release_snapshot t s =
  if s.s_heap != t.heap_id then
    invalid_arg "Heap.release_snapshot: snapshot from another heap incarnation";
  if not s.s_released then begin
    s.s_released <- true;
    (match Hashtbl.find_opt t.snap_live s.s_stamp with
    | Some n ->
        decr n;
        if !n = 0 then Hashtbl.remove t.snap_live s.s_stamp
    | None -> assert false);
    t.snap_active <- t.snap_active - 1;
    if Trace.enabled () then Trace.emit (Trace.Snap_close { heap = t.label; stamp = s.s_stamp });
    (* Eager prune: this release may have been the last observer of some
       history versions; only chained objects are visited. *)
    Hashtbl.fold (fun a () acc -> a :: acc) t.chained []
    |> List.iter (fun a -> prune_chain t a (atomic t a "release_snapshot"))
  end

(* The lock-free read: no lock-table consultation, no wait-queue entry.
   Returns the newest version whose install stamp is <= the snapshot's. *)
let snapshot_read t s a =
  check_snap t s "snapshot_read";
  let b = atomic t a "snapshot_read" in
  let vstamp, v =
    if b.a_stamp <= s.s_stamp then (b.a_stamp, b.a_base)
    else
      let rec find = function
        | [] ->
            invalid_arg
              (Printf.sprintf "Heap.snapshot_read: %d has no version at stamp %d" a s.s_stamp)
        | (st, v) :: rest -> if st <= s.s_stamp then (st, v) else find rest
      in
      find b.a_hist
  in
  if Trace.enabled () then
    Trace.emit (Trace.Snap_read { heap = t.label; addr = a; stamp = s.s_stamp; vstamp });
  v

let with_snapshot t f =
  let s = snapshot t in
  Fun.protect ~finally:(fun () -> release_snapshot t s) (fun () -> f s)

let committed_read t a = with_snapshot t (fun s -> snapshot_read t s a)

let chain_length t a = 1 + List.length (atomic t a "chain_length").a_hist

(* Read-only action registration: while registered, [read_atomic] serves
   the action from its snapshot and every mutation entry point refuses. *)

let begin_read_only t aid s =
  check_snap t s "begin_read_only";
  Aid.Tbl.replace t.ro aid s

let end_read_only t aid = Aid.Tbl.remove t.ro aid
let read_only_of t aid = Aid.Tbl.find_opt t.ro aid

let ro_guard t aid name =
  if Aid.Tbl.mem t.ro aid then
    invalid_arg (Printf.sprintf "Heap.%s: read-only action may not modify objects" name)

(* Allocation *)

let alloc_atomic t ~creator base =
  ro_guard t creator "alloc_atomic";
  let uid = mint_uid t in
  let a =
    add_obj t ~uid
      (B_atomic
         {
           a_base = base;
           a_cur = None;
           a_lock = Read (Aid.Set.singleton creator);
           a_wait = [];
           (* Committed-visible only once a committed write publishes a
              reference to it; until then snapshots cannot reach it. *)
           a_stamp = t.commit_seq;
           a_hist = [];
         })
  in
  record t.locked creator a;
  trace_lock t creator a Trace.Read;
  a

let alloc_mutex t v =
  let uid = mint_uid t in
  add_obj t ~uid (B_mutex { m_cur = v; m_owner = None; m_wait = [] })

let alloc_regular t v = add_obj t (B_regular { r_val = v })

(* Atomic objects *)

let atomic_view t a =
  let b = atomic t a "atomic_view" in
  { base = b.a_base; cur = b.a_cur; lock = b.a_lock }

let atomic_holders b =
  match b.a_lock with
  | Free -> []
  | Write h -> [ h ]
  | Read readers -> Aid.Set.elements readers

let grant_read t aid a b =
  (match b.a_lock with
  | Free -> b.a_lock <- Read (Aid.Set.singleton aid)
  | Read readers -> b.a_lock <- Read (Aid.Set.add aid readers)
  | Write _ -> assert false);
  record t.locked aid a;
  Metrics.incr m_read_locks;
  trace_lock t aid a Trace.Read

let grant_write t aid a b =
  b.a_lock <- Write aid;
  b.a_cur <- Some (copy_version t b.a_base);
  record t.locked aid a;
  trace_lock t aid a Trace.Write

(* Join the FIFO queue (front = an upgrade request, which must beat queued
   writers: they cannot progress past the held read lock anyway) and
   suspend through the runtime. Returns normally when the lock has been
   transferred to [aid] — the caller re-examines the lock state — and
   raises if the wait was cancelled. With no runtime, this degenerates to
   the immediate {!Lock_conflict} of the abort-on-conflict model. *)
let wait_atomic t aid a b ~write ~front =
  let holders = List.filter (fun h -> not (Aid.equal h aid)) (atomic_holders b) in
  match t.runtime with
  | None ->
      conflict ~addr:a ~requester:aid ~holders;
      raise (Lock_conflict { addr = a; holders })
  | Some rt ->
      let w = { w_aid = aid; w_write = write } in
      b.a_wait <- (if front then w :: b.a_wait else b.a_wait @ [ w ]);
      if Trace.enabled () then
        Trace.emit
          (Trace.Lock_wait
             {
               heap = t.label;
               aid = Aid.to_string aid;
               holder = holders_str holders;
               addr = a;
               write;
             });
      if not (rt.block ~addr:a ~aid) then begin
        Metrics.incr m_wait_timeouts;
        if Trace.enabled () then
          Trace.emit
            (Trace.Lock_timeout { heap = t.label; aid = Aid.to_string aid; addr = a });
        raise (Wait_timeout { addr = a; waiter = aid })
      end

(* Serve the queue head(s) after a lock release or a cancelled wait: grant
   as long as the head is compatible (consecutive readers batch; a write
   waiter needs the object free, or to be the sole remaining reader for an
   upgrade), then notify the runtime in FIFO order. *)
let service_atomic t a b =
  let rec go () =
    match b.a_wait with
    | [] -> ()
    | w :: rest ->
        let can =
          if w.w_write then
            match b.a_lock with
            | Free -> true
            | Read readers -> Aid.Set.is_empty (Aid.Set.remove w.w_aid readers)
            | Write _ -> false
          else match b.a_lock with Free | Read _ -> true | Write _ -> false
        in
        if can then begin
          b.a_wait <- rest;
          if w.w_write then grant_write t w.w_aid a b else grant_read t w.w_aid a b;
          (match t.runtime with Some rt -> rt.wake ~addr:a ~aid:w.w_aid | None -> ());
          go ()
        end
  in
  go ()

let rec read_atomic t aid a =
  match Aid.Tbl.find_opt t.ro aid with
  | Some s -> snapshot_read t s a
  | None -> read_atomic_locked t aid a

and read_atomic_locked t aid a =
  let b = atomic t a "read_atomic" in
  match b.a_lock with
  | Write holder when Aid.equal holder aid -> (
      match b.a_cur with Some v -> v | None -> b.a_base)
  | Read readers when Aid.Set.mem aid readers -> b.a_base
  | (Free | Read _)
    when b.a_wait = [] || t.runtime = None || Rs_util.Fault_hook.mutated Read_barging ->
      grant_read t aid a b;
      b.a_base
  | Free | Read _ | Write _ ->
      (* Held by a writer, or joining behind queued waiters (no barging
         past a waiting writer — that would starve it). *)
      wait_atomic t aid a b ~write:false ~front:false;
      read_atomic t aid a

let rec write_lock t aid a =
  ro_guard t aid "write_lock";
  let b = atomic t a "write_lock" in
  match b.a_lock with
  | Write holder when Aid.equal holder aid -> ()
  | Free when b.a_wait = [] || t.runtime = None -> grant_write t aid a b
  | Read readers
    when Aid.Set.mem aid readers && Aid.Set.is_empty (Aid.Set.remove aid readers) ->
      (* Sole reader: upgrade in place, ahead of any queued waiters. *)
      grant_write t aid a b
  | Read readers when Aid.Set.mem aid readers ->
      (* Reader among others wanting an upgrade: wait at the queue front.
         Two concurrent upgraders deadlock here; the wait timeout breaks
         the tie by aborting one of them. *)
      wait_atomic t aid a b ~write:true ~front:true;
      write_lock t aid a
  | Free | Read _ | Write _ ->
      wait_atomic t aid a b ~write:true ~front:false;
      write_lock t aid a

let set_current t aid a v =
  write_lock t aid a;
  let b = atomic t a "set_current" in
  b.a_cur <- Some v;
  record t.modified aid a

let current_of t aid a =
  let b = atomic t a "current_of" in
  match (b.a_lock, b.a_cur) with
  | Write holder, Some v when Aid.equal holder aid -> v
  | (Write _ | Read _ | Free), _ ->
      invalid_arg (Printf.sprintf "Heap.current_of: %d not write-locked by caller" a)

(* Mutex objects *)

(* Transfer possession to the queue head once free. *)
let service_mutex t a b =
  match (b.m_owner, b.m_wait) with
  | None, aid :: rest ->
      b.m_wait <- rest;
      b.m_owner <- Some aid;
      (match t.runtime with Some rt -> rt.wake ~addr:a ~aid | None -> ())
  | (Some _ | None), _ -> ()

let rec seize t aid a =
  ro_guard t aid "seize";
  let b = mutex t a "seize" in
  match b.m_owner with
  | Some holder when Aid.equal holder aid -> b.m_cur
  | None when b.m_wait = [] || t.runtime = None ->
      b.m_owner <- Some aid;
      b.m_cur
  | owner -> (
      let holders = match owner with Some h -> [ h ] | None -> [] in
      match t.runtime with
      | None ->
          conflict ~addr:a ~requester:aid ~holders;
          raise (Lock_conflict { addr = a; holders })
      | Some rt ->
          b.m_wait <- b.m_wait @ [ aid ];
          if Trace.enabled () then
            Trace.emit
              (Trace.Lock_wait
                 {
                   heap = t.label;
                   aid = Aid.to_string aid;
                   holder = holders_str holders;
                   addr = a;
                   write = true;
                 });
          if rt.block ~addr:a ~aid then seize t aid a
          else begin
            Metrics.incr m_wait_timeouts;
            if Trace.enabled () then
              Trace.emit
                (Trace.Lock_timeout { heap = t.label; aid = Aid.to_string aid; addr = a });
            raise (Wait_timeout { addr = a; waiter = aid })
          end)

let set_mutex t aid a v =
  let b = mutex t a "set_mutex" in
  (match b.m_owner with
  | Some holder when Aid.equal holder aid -> ()
  | Some holder ->
      conflict ~addr:a ~requester:aid ~holders:[ holder ];
      raise (Lock_conflict { addr = a; holders = [ holder ] })
  | None -> invalid_arg "Heap.set_mutex: possession not held");
  b.m_cur <- v;
  record t.modified aid a

let release t aid a =
  let b = mutex t a "release" in
  match b.m_owner with
  | Some holder when Aid.equal holder aid ->
      b.m_owner <- None;
      service_mutex t a b
  | Some _ | None -> invalid_arg "Heap.release: possession not held"

let mutex_value t a = (mutex t a "mutex_value").m_cur

(* Regular objects *)

let regular_value t a = (regular t a "regular_value").r_val
let set_regular t a v = (regular t a "set_regular").r_val <- v

(* Action completion *)

let mos t aid =
  match Aid.Tbl.find_opt t.modified aid with
  | Some v -> Vec.to_list v
  | None -> []

let drop_lock t aid a =
  match (obj t a).body with
  | B_atomic b ->
      (match b.a_lock with
      | Write holder when Aid.equal holder aid ->
          b.a_lock <- Free;
          b.a_cur <- None;
          trace_release t aid a
      | Read readers when Aid.Set.mem aid readers ->
          let readers = Aid.Set.remove aid readers in
          b.a_lock <- (if Aid.Set.is_empty readers then Free else Read readers);
          trace_release t aid a
      | Write _ | Read _ | Free -> ());
      service_atomic t a b
  | B_mutex b ->
      (match b.m_owner with
      | Some holder when Aid.equal holder aid -> b.m_owner <- None
      | Some _ | None -> ());
      service_mutex t a b
  | B_regular _ | B_placeholder _ -> ()

let finish ~commit t aid =
  (* One fresh commit stamp per committing action that installed at least
     one write — every object it wrote carries the same stamp, so a
     snapshot sees all of the action's writes or none. *)
  let stamp = ref 0 in
  let stamp_of () =
    if !stamp = 0 then begin
      t.commit_seq <- t.commit_seq + 1;
      stamp := t.commit_seq
    end;
    !stamp
  in
  (match Aid.Tbl.find_opt t.locked aid with
  | None -> ()
  | Some addrs ->
      Vec.iter
        (fun a ->
          match (obj t a).body with
          | B_atomic b -> (
              match b.a_lock with
              | Write holder when Aid.equal holder aid ->
                  (if commit then
                     match b.a_cur with
                     | Some v ->
                         let st = stamp_of () in
                         b.a_hist <- (b.a_stamp, b.a_base) :: b.a_hist;
                         b.a_base <- v;
                         b.a_stamp <- st;
                         if Trace.enabled () then
                           Trace.emit
                             (Trace.Version_install
                                { heap = t.label; aid = Aid.to_string aid; addr = a; stamp = st });
                         prune_chain t a b
                     | None -> ());
                  b.a_cur <- None;
                  b.a_lock <- Free;
                  trace_release t aid a;
                  service_atomic t a b
              | Write _ | Read _ | Free -> drop_lock t aid a)
          | B_mutex _ | B_regular _ | B_placeholder _ -> drop_lock t aid a)
        addrs);
  Aid.Tbl.remove t.locked aid;
  Aid.Tbl.remove t.modified aid;
  Aid.Tbl.remove t.ro aid

(* A parked waiter whose wait was cancelled (timeout, or its guardian's
   runtime abandoning it) leaves the queue; removing a blocking head may
   unblock compatible waiters behind it. *)
let trace_cancel t aid a =
  if Trace.enabled () then
    Trace.emit (Trace.Lock_cancel { heap = t.label; aid = Aid.to_string aid; addr = a })

let cancel_wait t aid a =
  match (obj t a).body with
  | B_atomic b ->
      if List.exists (fun w -> Aid.equal w.w_aid aid) b.a_wait then begin
        b.a_wait <- List.filter (fun w -> not (Aid.equal w.w_aid aid)) b.a_wait;
        (* Emitted before successors are served, so the monitor's queue
           model never sees a grant jump a waiter that had already left. *)
        trace_cancel t aid a
      end;
      service_atomic t a b
  | B_mutex b ->
      if List.exists (Aid.equal aid) b.m_wait then begin
        b.m_wait <- List.filter (fun x -> not (Aid.equal x aid)) b.m_wait;
        trace_cancel t aid a
      end;
      service_mutex t a b
  | B_regular _ | B_placeholder _ -> ()

let waiting t a =
  match (obj t a).body with
  | B_atomic b -> List.map (fun w -> w.w_aid) b.a_wait
  | B_mutex b -> b.m_wait
  | B_regular _ | B_placeholder _ -> []

let commit_action t aid = finish ~commit:true t aid
let abort_action t aid = finish ~commit:false t aid

let writer_of t a =
  match (obj t a).body with
  | B_atomic { a_lock = Write holder; _ } -> Some holder
  | B_atomic _ | B_mutex _ | B_regular _ | B_placeholder _ -> None

(* Stable variables: the root's version is a tuple of (name, value) pairs. *)

let bindings_of = function
  | Value.Tup pairs ->
      Array.to_list pairs
      |> List.filter_map (function
           | Value.Tup [| Value.Str name; v |] -> Some (name, v)
           | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Tup _
           | Value.Ref _ ->
               None)
  | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Ref _ -> []

(* Filled in place, not [Array.of_list]: see {!Value.tup_map}. *)
let of_bindings bs =
  let pairs = Array.make (List.length bs) Value.Unit in
  List.iteri (fun i (name, v) -> pairs.(i) <- Value.Tup [| Value.Str name; v |]) bs;
  Value.Tup pairs

let set_stable_var t aid name v =
  write_lock t aid t.root;
  let b = atomic t t.root "set_stable_var" in
  let cur = match b.a_cur with Some c -> c | None -> b.a_base in
  let bs = bindings_of cur in
  let bs = (name, v) :: List.remove_assoc name bs in
  set_current t aid t.root (of_bindings bs)

(* The root's bindings change only by replacement — a committed
   [set_stable_var], a recovery [install_atomic]/[set_base], or a read of
   a historical version all present a different array — except for
   [patch_placeholders], which rewrites pair contents in place but never
   moves a name. So the index is rebuilt on a physical mismatch, and a hit
   re-checks the name in its slot and reads the value live from the pair,
   falling back to a scan if the name moved. *)
let root_index t v =
  let pairs =
    match v with
    | Value.Tup pairs -> pairs
    | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Ref _ -> [||]
  in
  let ix = t.root_index in
  if ix.pairs == pairs then ix
  else begin
    let slots = Hashtbl.create (Array.length pairs) in
    let names = ref [] in
    for i = Array.length pairs - 1 downto 0 do
      match pairs.(i) with
      | Value.Tup [| Value.Str name; _ |] ->
          Hashtbl.replace slots name i;
          names := name :: !names
      | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Tup _ | Value.Ref _ -> ()
    done;
    let ix = { pairs; slots; names = !names } in
    t.root_index <- ix;
    ix
  end

let lookup_var t v name =
  let ix = root_index t v in
  match Hashtbl.find_opt ix.slots name with
  | None -> None
  | Some i -> (
      match ix.pairs.(i) with
      | Value.Tup [| Value.Str n; x |] when String.equal n name -> Some x
      | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Tup _ | Value.Ref _ ->
          List.assoc_opt name (bindings_of v))

let get_stable_var t name = lookup_var t (atomic t t.root "get_stable_var").a_base name

(* Snapshot view of the stable-variable bindings: reads the root through
   the snapshot, so the binding and any value read under the same snapshot
   form one consistent committed cut. *)
let snapshot_var t s name = lookup_var t (snapshot_read t s t.root) name
let committed_var t name = with_snapshot t (fun s -> snapshot_var t s name)
let stable_var_names t = (root_index t (atomic t t.root "stable_var_names").a_base).names

(* Recovery-time interface *)

let install_atomic t ~uid ~base ~cur =
  match Uid.Tbl.find_opt t.by_uid uid with
  | Some a ->
      let b = atomic t a "install_atomic" in
      (match base with Some v -> b.a_base <- v | None -> ());
      (match cur with
      | Some (aid, v) ->
          b.a_cur <- Some v;
          b.a_lock <- Write aid;
          record t.locked aid a;
          record t.modified aid a
      | None -> ());
      a
  | None ->
      let body =
        B_atomic
          {
            a_base = (match base with Some v -> v | None -> Value.Unit);
            a_cur = (match cur with Some (_, v) -> Some v | None -> None);
            a_lock = (match cur with Some (aid, _) -> Write aid | None -> Free);
            a_wait = [];
            (* Recovery images restart the MVCC clock: stamps are volatile
               and no snapshot survives the crash. *)
            a_stamp = 0;
            a_hist = [];
          }
      in
      let a = add_obj t ~uid body in
      (match cur with
      | Some (aid, _) ->
          record t.locked aid a;
          record t.modified aid a
      | None -> ());
      a

let install_mutex t ~uid v =
  match Uid.Tbl.find_opt t.by_uid uid with
  | Some a ->
      (mutex t a "install_mutex").m_cur <- v;
      a
  | None -> add_obj t ~uid (B_mutex { m_cur = v; m_owner = None; m_wait = [] })

let install_placeholder t uid =
  match Uid.Tbl.find_opt t.placeholders uid with
  | Some a -> a
  | None ->
      let a = add_obj t ~uid ~register:false (B_placeholder uid) in
      Uid.Tbl.replace t.placeholders uid a;
      a

let set_base t a v = (atomic t a "set_base").a_base <- v

let iter_objects t f = Vec.iteri (fun a o -> f a (match o.body with
  | B_atomic _ -> Atomic
  | B_mutex _ -> Mutex
  | B_regular _ -> Regular
  | B_placeholder _ -> Placeholder)) t.objs

let patch_placeholders t =
  let resolve u =
    match Uid.Tbl.find_opt t.by_uid u with
    | Some a -> a
    | None -> failwith (Format.asprintf "Heap.patch_placeholders: dangling uid %a" Uid.pp u)
  in
  let rec patch v =
    match v with
    | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ -> v
    | Value.Tup vs ->
        Array.iteri (fun i x -> vs.(i) <- patch x) vs;
        v
    | Value.Ref a -> (
        match (obj t a).body with
        | B_placeholder u -> Value.Ref (resolve u)
        | B_atomic _ | B_mutex _ | B_regular _ -> v)
  in
  Vec.iter
    (fun o ->
      match o.body with
      | B_atomic b ->
          b.a_base <- patch b.a_base;
          b.a_cur <- Option.map patch b.a_cur
      | B_mutex b -> b.m_cur <- patch b.m_cur
      | B_regular b -> b.r_val <- patch b.r_val
      | B_placeholder _ -> ())
    t.objs

(* Preorder over the stable state: an object is visited before what its
   versions reference, an atomic object's base before its current
   version, each object once. Addresses are dense indices into [objs],
   and [f] leaves the heap alone, so one byte per object marks it seen. *)
let iter_reachable t f =
  let seen = Bytes.make (size t) '\000' in
  let rec go_value = function
    | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ -> ()
    | Value.Tup vs -> Array.iter go_value vs
    | Value.Ref a -> go_addr a
  and go_addr a =
    if Bytes.get seen a = '\000' then begin
      Bytes.set seen a '\001';
      f a;
      match (obj t a).body with
      | B_atomic b ->
          go_value b.a_base;
          Option.iter go_value b.a_cur
      | B_mutex b -> go_value b.m_cur
      | B_regular b -> go_value b.r_val
      | B_placeholder _ -> ()
    end
  in
  go_addr t.root

let reachable_uids t =
  let uids = ref [] in
  iter_reachable t (fun a -> Option.iter (fun u -> uids := u :: !uids) (obj t a).uid);
  Uid.Set.of_list !uids
