module Metrics = Rs_obs.Metrics
module Trace = Rs_obs.Trace
module Fault_hook = Rs_util.Fault_hook

type page = Good of { data : string; crc : int } | Bad

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
}

exception Crash

type Fault_hook.site += Write of t

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
    if p >= Array.length t.pages then Bad
    else begin
      maybe_decay t p;
      t.pages.(p)
    end
  in
  if Trace.recording () then Trace.emit (Trace.Page_read { page = p; ok = result <> Bad })
  else Trace.skip ();
  result

let write t p page =
  check_nonneg p "write";
  grow_to t p;
  t.writes <- t.writes + 1;
  Metrics.incr m_writes;
  match if Fault_hook.active () then Fault_hook.at (Write t) else Fault_hook.Go with
  | Fault_hook.Crash ->
      (* The crash interrupts this write: the page is torn. *)
      t.pages.(p) <- Bad;
      t.torn_writes <- t.torn_writes + 1;
      Trace.emit (Trace.Torn_write { page = p });
      raise Crash
  | Go | Drop | Delay _ ->
      t.pages.(p) <- page;
      if Trace.recording () then Trace.emit (Trace.Page_write { page = p }) else Trace.skip ()

let decay t p =
  check_nonneg p "decay";
  if p < Array.length t.pages then note_decay t p
