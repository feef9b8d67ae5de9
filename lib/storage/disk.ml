module Metrics = Rs_obs.Metrics
module Trace = Rs_obs.Trace

type page = Good of string | Bad

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable torn_writes : int;
  mutable decays : int;
}

(* Process-wide page I/O totals in the observability registry; per-disk
   tallies live in the fields below and surface through [stats]. *)
let m_reads = Metrics.counter "disk.reads"
let m_writes = Metrics.counter "disk.writes"

type t = {
  mutable pages : page array;
  mutable reads : int;
  mutable writes : int;
  mutable torn_writes : int;
  mutable decays : int;
  rng : Rs_util.Rng.t option;
  decay_prob : float;
  mutable crash_in : int option; (* writes remaining before the armed crash *)
}

exception Crash

(* Fault-point census hook (Rs_explore): observes every physical write on
   every disk of the process. One slot, not a list — the explorer is the
   only client and installs/uninstalls it around each censused run. *)
let write_hook : (t -> int -> unit) option ref = ref None

let set_write_hook h = write_hook := h

let note_write t p = match !write_hook with Some f -> f t p | None -> ()

let create ?rng ?(decay_prob = 0.0) ~pages () =
  if pages <= 0 then invalid_arg "Disk.create: pages must be positive";
  {
    pages = Array.make pages Bad;
    reads = 0;
    writes = 0;
    torn_writes = 0;
    decays = 0;
    rng;
    decay_prob;
    crash_in = None;
  }

let pages t = Array.length t.pages

let stats t = { reads = t.reads; writes = t.writes; torn_writes = t.torn_writes; decays = t.decays }

let check_nonneg p name =
  if p < 0 then invalid_arg (Printf.sprintf "Disk.%s: negative page %d" name p)

let grow_to t p =
  let cur = Array.length t.pages in
  if p >= cur then begin
    let ncap = max (p + 1) (cur * 2) in
    let npages = Array.make ncap Bad in
    Array.blit t.pages 0 npages 0 cur;
    t.pages <- npages
  end

let note_decay t p =
  t.pages.(p) <- Bad;
  t.decays <- t.decays + 1;
  Trace.emit (Trace.Page_decay { page = p })

let maybe_decay t p =
  match t.rng with
  | Some rng when t.decay_prob > 0.0 && Rs_util.Rng.bool rng t.decay_prob -> note_decay t p
  | Some _ | None -> ()

let read t p =
  check_nonneg p "read";
  t.reads <- t.reads + 1;
  Metrics.incr m_reads;
  let result =
    if p >= Array.length t.pages then None
    else begin
      maybe_decay t p;
      match t.pages.(p) with Good data -> Some data | Bad -> None
    end
  in
  Trace.emit (Trace.Page_read { page = p; ok = result <> None });
  result

let write t p data =
  check_nonneg p "write";
  grow_to t p;
  t.writes <- t.writes + 1;
  Metrics.incr m_writes;
  note_write t p;
  match t.crash_in with
  | Some 0 ->
      (* The crash interrupts this write: the page is torn. *)
      t.pages.(p) <- Bad;
      t.torn_writes <- t.torn_writes + 1;
      Trace.emit (Trace.Torn_write { page = p });
      t.crash_in <- None;
      raise Crash
  | Some n ->
      t.crash_in <- Some (n - 1);
      t.pages.(p) <- Good data;
      Trace.emit (Trace.Page_write { page = p })
  | None ->
      t.pages.(p) <- Good data;
      Trace.emit (Trace.Page_write { page = p })

let decay t p =
  check_nonneg p "decay";
  if p < Array.length t.pages then note_decay t p

let shrink t n =
  check_nonneg n "shrink";
  let n = max n 1 in
  if n < Array.length t.pages then t.pages <- Array.sub t.pages 0 n

let set_crash_after t n =
  if n < 0 then invalid_arg "Disk.set_crash_after: negative";
  t.crash_in <- Some n

let clear_crash t = t.crash_in <- None

let snapshot t = { t with pages = Array.copy t.pages }
