(* The committed BENCH files and the claims each experiment is gated on.

   [Rs_obs.Metrics.to_json] writes each section header on its own line and
   then one key per line, in sorted order, every histogram on a single
   line. A line reader therefore recovers every (section, key) pair with
   its value text, and no JSON library is needed. The same reader reads
   the committed file and the fresh run: drift compares value text, and
   the gates parse integers. *)

module Key_map = Map.Make (struct
  type t = string * string

  let compare = compare
end)

type t = string Key_map.t

let parse text =
  let section = ref "" in
  let entry m line =
    let line = String.trim line in
    let n = String.length line in
    match if n > 0 && line.[0] = '"' then String.index_from_opt line 1 '"' else None with
    | Some j when j + 3 <= n && String.sub line j 3 = "\": " ->
        let key = String.sub line 1 (j - 1) in
        let v = String.sub line (j + 3) (n - j - 3) in
        let v =
          if String.ends_with ~suffix:"," v then String.sub v 0 (String.length v - 1) else v
        in
        if v = "{" || v = "{}" then (
          section := key;
          m)
        else Key_map.add (!section, key) v m
    | _ -> m
  in
  List.fold_left entry Key_map.empty (String.split_on_char '\n' text)

(* The wall-clock gauges drift run to run; the runs are seeded, so any
   other difference is drift. *)
let wall_clock (section, key) =
  let prefixed p s = String.starts_with ~prefix:p key && String.ends_with ~suffix:s key in
  section = "gauges"
  && String.length key >= 7
  && (prefixed "e12." ".us" || prefixed "e13." "_us")

(* One line per differing key, in key order. *)
let drift ~committed ~fresh =
  let show = Option.value ~default:"(absent)" in
  Key_map.merge
    (fun k old fresh -> if wall_clock k || old = fresh then None else Some (old, fresh))
    committed fresh
  |> Key_map.bindings
  |> List.map (fun ((section, key), (old, fresh)) ->
         Printf.sprintf "  %s %s: committed %s, fresh %s" section key (show old) (show fresh))

let compared m = Key_map.cardinal (Key_map.filter (fun k _ -> not (wall_clock k)) m)

(* ------------------------------------------------------------------ *)
(* Gates. Each takes a lookup of counter and gauge values by name (the
   registry keeps names unique across kinds) and raises [Failed] with the
   first claim that does not hold. *)

exception Failed of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Failed msg)) fmt

let lookup m name =
  match List.find_map (fun s -> Key_map.find_opt (s, name) m) [ "counters"; "gauges" ] with
  | Some v -> int_of_string v
  | None -> fail "missing key %s" name

let require ok fmt = Printf.ksprintf (fun msg -> if not ok then raise (Failed msg)) fmt
let div a b = if b = 0.0 then fail "division by zero" else a /. b
let ints l = "[" ^ String.concat ", " (List.map string_of_int l) ^ "]"

(* A value stored in tenths, printed as the float it stands for. *)
let tenths n = Printf.sprintf "%d.%d" (n / 10) (n mod 10)

let rec increasing = function a :: (b :: _ as rest) -> a < b && increasing rest | _ -> true

(* e1: careful writes run as overlapped mirrored rounds, one round per
   logical put and two physical writes per round (a repair retries
   singles); the hybrid log recovers from fewer entries than the simple
   log; and the §1.2.2 writing-cost shape: the logs write the same pages
   per commit whatever the state size, while shadowing rewrites the map at
   every commit, so it costs more than either log at every size and grows
   with the state. *)
let e1 get =
  let pw = get "stable_store.physical_writes" and wr = get "stable_store.write_rounds" in
  let simple = get "simple_rs.recovery_entries" and hybrid = get "hybrid_rs.recovery_entries" in
  require (pw > 0) "no physical writes recorded (%d)" pw;
  require
    (wr > 0 && pw >= int_of_float (1.9 *. float_of_int wr))
    "expected ~2 physical writes per round, got %d writes / %d rounds" pw wr;
  require (0 < hybrid && hybrid < simple)
    "expected 0 < hybrid (%d) < simple (%d) recovery entries" hybrid simple;
  let sizes = [ 16; 64; 256; 1024 ] in
  let ppc s = List.map (fun n -> get (Printf.sprintf "e1.%s.o%d.pages_per_commit_x10" s n)) sizes in
  let simple, hybrid, shadow = (ppc "simple", ppc "hybrid", ppc "shadow") in
  List.iter
    (fun (s, l) ->
      require
        (List.fold_left max min_int l - List.fold_left min max_int l <= 10)
        "%s pages/commit x10 not flat across %s objects: %s" s (ints sizes) (ints l))
    [ ("simple", simple); ("hybrid", hybrid) ];
  List.iteri
    (fun i n ->
      let s, h, sh = (List.nth simple i, List.nth hybrid i, List.nth shadow i) in
      require (sh > max s h)
        "shadow not above the logs at %d objects: simple=%d, hybrid=%d, shadow=%d" n s h sh)
    sizes;
  require
    (List.nth shadow 3 > List.hd shadow)
    "shadow pages/commit x10 does not grow 16 -> 1024 objects: %s" (ints shadow)

(* e3: §5.3's comparison stated as counts. As history grows at fixed
   state (sweep A), compaction reads more of the old log and the snapshot
   reads no more of it. *)
let e3 get =
  let reads t =
    List.map (fun h -> get (Printf.sprintf "e3.a.h%d.%s.old_reads" h t)) [ 100; 400; 1600 ]
  in
  let comp, snap = (reads "compaction", reads "snapshot") in
  require (increasing comp) "compaction old-log reads did not grow with history: %s" (ints comp);
  require
    (List.nth snap 2 <= List.hd snap)
    "snapshot old-log reads grew with history: %s" (ints snap)

(* e7 exercises the 2PC guardian counters. *)
let e7 get =
  require (get "guardian.prepares" > 0) "e7 left guardian.prepares at zero";
  require (get "guardian.commits" > 0) "e7 left guardian.commits at zero"

(* e8: a batching window at least halves the hybrid log's physical writes
   per commit at concurrency 8 and 16. *)
let e8 get =
  require (get "slog.group_commits" > 0) "e8 recorded no group commits";
  List.iter
    (fun conc ->
      let per variant =
        let at m = float_of_int (get (Printf.sprintf "e8.hybrid.c%d.%s.%s" conc variant m)) in
        div (at "physical_writes") (at "commits")
      in
      let ratio = div (per "nobatch") (per "batch") in
      require (ratio >= 2.0) "hybrid at conc %d: writes/commit only improved %.2fx (< 2x)" conc
        ratio)
    [ 8; 16 ]

(* e9: the reclamation bound — a bounded number of live segments however
   many housekeeping cycles ran — and history-independent recovery,
   against a no-housekeeping control that grows in both. *)
let e9 get =
  let seg c k = get (Printf.sprintf "e9.seg.c%d.%s" c k) in
  let nohk c k = get (Printf.sprintf "e9.nohk.c%d.%s" c k) in
  require (seg 10 "live_segments" <= 2) "live segments not bounded: %d after 10 cycles"
    (seg 10 "live_segments");
  require
    (seg 10 "live_pages" <= seg 2 "live_pages")
    "live pages grew with history: %d -> %d" (seg 2 "live_pages") (seg 10 "live_pages");
  require
    (seg 10 "retired_segments" > seg 2 "retired_segments" && seg 2 "retired_segments" > 0)
    "segment retirement did not track history";
  require
    (seg 10 "recovery_entries" = seg 2 "recovery_entries")
    "recovery entries drifted: %d -> %d" (seg 2 "recovery_entries") (seg 10 "recovery_entries");
  require
    (nohk 10 "live_pages" > 2 * seg 10 "live_pages")
    "no-housekeeping control did not outgrow the reclaimed log";
  require
    (nohk 10 "recovery_entries" > nohk 2 "recovery_entries")
    "no-housekeeping control recovery did not grow with history"

(* e10: the wait-queue claims. Throughput scales with concurrency at 10%
   conflict, tail latency stays bounded, and open-loop overload sheds. *)
let e10 get =
  require (get "e10.conc32.throughput_x1000" > 0)
    "no throughput at concurrency 32 (hang or abort storm)";
  let c1 = get "e10.conc1.committed" and c32 = get "e10.conc32.committed" in
  require (c32 > 2 * c1) "throughput did not scale: %d committed at conc 1 vs %d at conc 32" c1 c32;
  let p99 = get "e10.conc32.p99_x10" in
  require (float_of_int p99 /. 10. < 100.) "p99 unbounded at 10%% conflict: %s time units"
    (tenths p99);
  require (get "e10.open80.sheds" > 0) "open-loop overload shed nothing"

(* e11: committed work rises monotonically with the shard count, with and
   without a 10% cross-shard 2PC mix. *)
let e11 get =
  List.iter
    (fun cross ->
      let series =
        List.map (fun s -> get (Printf.sprintf "e11.s%d.x%d.committed" s cross)) [ 1; 2; 4; 8 ]
      in
      require (increasing series) "committed not increasing with shards at %d%% cross: %s" cross
        (ints series))
    [ 0; 10 ]

(* e12: replication leaves the committed count alone, and promoting the
   warm standby strictly beats replaying the log. The us gauges are wall
   clock, but the margin is wide at this history length. *)
let e12 get =
  let repl = get "e12.repl.committed" and solo = get "e12.solo.committed" in
  require (repl = solo && solo > 0) "replication changed the committed count";
  require (get "e12.ship_bytes" > 0 && get "repl.applies" > 0) "nothing was shipped";
  let cold = get "e12.cold.us" and fo = get "e12.failover.us" in
  require (get "e12.cold.entries" > 0) "cold restart replayed no entries";
  require (fo < cold) "failover-to-first-commit (%dus) not below cold restart (%dus)" fo cold

(* e13: incremental checkpointing bounds the live log, so entries visited,
   log size and scan reads are identical across 2/5/10 cycles of history
   (one cycle of tail) and restart wall time stays flat within a generous
   noise margin, while the unbounded control grows. On the control's
   >= 2000-entry log, the segment-parallel scan issues ~40x fewer stable-
   storage reads than serial replay at wall-time parity. *)
let e13 get =
  let inc c m = get (Printf.sprintf "e13.inc.c%d.%s" c m) in
  List.iter
    (fun m ->
      let vals = List.map (fun c -> inc c m) [ 2; 5; 10 ] in
      require
        (List.for_all (( = ) (List.hd vals)) vals)
        "inc %s not flat across cycles: %s" m (ints vals))
    [ "entries"; "log_entries"; "scan_read_ops" ];
  List.iter
    (fun m ->
      let c2 = inc 2 m and c10 = inc 10 m in
      require (c10 <= 3 * c2) "inc %s grew with history: c2=%d c10=%d" m c2 c10)
    [ "serial_us"; "parallel_us" ];
  require
    (get "e13.nohk.c10.entries" >= 4 * get "e13.nohk.c2.entries")
    "nohk recovery entries did not grow with history";
  require (get "e13.nohk.c10.log_entries" >= 2000) "control log too short to gate";
  let scan = get "e13.nohk.c10.scan_read_ops" and ser = get "e13.nohk.c10.serial_read_ops" in
  require (10 * scan <= ser) "scan read ops not well below serial: %d vs %d" scan ser;
  let pus = get "e13.nohk.c10.parallel_us" and sus = get "e13.nohk.c10.serial_us" in
  require (2 * pus <= 3 * sus) "parallel wall time regressed vs serial: %d vs %d" pus sus

(* e14: under every profile's fault schedule the run commits real work,
   fires real faults and reports zero oracle/monitor violations, and the
   repl row promoted its standby. *)
let e14 get =
  List.iter
    (fun p ->
      let at k = get (Printf.sprintf "e14.%s.%s" p k) in
      let v = at "violations" in
      require (v = 0) "%s: %d violation(s) under nemesis" p v;
      require (at "committed" > 0) "%s: nothing committed under nemesis" p;
      require (at "events" > 0) "%s: no nemesis events fired (vacuous run)" p;
      require (at "downtime_x10" > 0) "%s: no downtime recorded (vacuous faults)" p)
    [ "synthetic"; "bank"; "reservation"; "queue"; "saga"; "repl" ];
  require (get "e14.repl.promoted" = 1) "repl row did not promote the standby"

(* e15: the MVCC contract. Snapshot reads take zero read locks and abort
   zero reads at every concurrency (a reader wait-timeout would surface as
   a read abort), and at conc 32 the snapshot-read p99 beats both the
   paired locked row and the e10 all-update locked baseline (p99 48.7). *)
let e15 get =
  List.iter
    (fun c ->
      let at v m = get (Printf.sprintf "e15.%s.c%d.%s" v c m) in
      let locks = at "mvcc" "read_locks" and rab = at "mvcc" "reads_aborted" in
      let rc = at "mvcc" "reads_committed" in
      require (locks = 0) "mvcc conc %d: snapshot reads took %d read locks" c locks;
      require (rab = 0) "mvcc conc %d: %d read-only actions aborted" c rab;
      require (rc > 0) "mvcc conc %d: no snapshot reads committed (vacuous run)" c;
      require (at "locked" "read_locks" > 0)
        "locked baseline at conc %d took no read locks (vacuous baseline)" c;
      require
        (rc > at "locked" "reads_committed")
        "mvcc conc %d did not out-commit the locked baseline" c)
    [ 1; 4; 8; 16; 32 ];
  let mvcc = get "e15.mvcc.c32.read_p99_x10" and locked = get "e15.locked.c32.read_p99_x10" in
  let p99_mvcc = float_of_int mvcc /. 10. and p99_lock = float_of_int locked /. 10. in
  require (p99_mvcc < p99_lock) "mvcc read p99 (%s) not below locked baseline (%s)" (tenths mvcc)
    (tenths locked);
  require (p99_mvcc < 48.7) "mvcc read p99 (%s) not below the e10 locked-action baseline (48.7)"
    (tenths mvcc)

let gates =
  [
    ("e1", e1);
    ("e3", e3);
    ("e7", e7);
    ("e8", e8);
    ("e9", e9);
    ("e10", e10);
    ("e11", e11);
    ("e12", e12);
    ("e13", e13);
    ("e14", e14);
    ("e15", e15);
  ]
