type lock_kind = Read | Write

type event =
  | Page_read of { page : int; ok : bool }
  | Page_write of { page : int }
  | Torn_write of { page : int }
  | Page_decay of { page : int }
  | Store_repair of { page : int }
  | Log_write of { log : string; addr : int; bytes : int }
  | Log_force of { log : string; entries : int; stream_bytes : int }
  | Log_switch of { log : string }
  | Segment_alloc of { id : int; index : int }
  | Segment_retire of { id : int }
  | Repl_ship of { src : string; dst : string; epoch : int; base : int; entries : int; bytes : int }
  | Repl_apply of { gid : string; epoch : int; watermark : int; entries : int }
  | Repl_promote of { heir : string; for_ : string; epoch : int; watermark : int }
  | Twopc_send of { src : string; dst : string; msg : string }
  | Twopc_recv of { src : string; dst : string; msg : string }
  | Lock_acquire of { heap : string; aid : string; addr : int; kind : lock_kind }
  | Lock_release of { heap : string; aid : string; addr : int }
  | Lock_conflict of { aid : string; holder : string; addr : int }
  | Lock_wait of { heap : string; aid : string; holder : string; addr : int; write : bool }
  | Lock_timeout of { heap : string; aid : string; addr : int }
  | Lock_cancel of { heap : string; aid : string; addr : int }
  | Heap_label of { heap : string }
  | Snap_open of { heap : string; stamp : int }
  | Snap_close of { heap : string; stamp : int }
  | Snap_read of { heap : string; addr : int; stamp : int; vstamp : int }
  | Version_install of { heap : string; aid : string; addr : int; stamp : int }
  | Handle_submit of { gid : string; aid : string }
  | Handle_resolve of { gid : string; aid : string; committed : bool }
  | Action_shed of { gid : string; in_flight : int }
  | Uid_mint of { source : string; uid : int }
  | Uid_reserve of { gid : string; lo : int; count : int }
  | Dir_route of { coordinator : string; shards : int; cross : bool }
  | Action_prepare of { gid : string; aid : string; refused : bool }
  | Action_commit of { gid : string; aid : string }
  | Action_abort of { gid : string; aid : string }
  | Recovery_scan of { system : string; entries : int }
  | Checkpoint of { system : string; technique : string; entries : int }
  | Crash of { gid : string }
  | Restart of { gid : string; prepared : int; committing : int }
  | Explore_schedule of { id : int; points : int }
  | Explore_violation of { oracle : string; schedule : string }
  | Explore_shrunk of { points : int; schedule : string }
  | Nemesis of { kind : string; target : string }
  | Note of string

type record = { seq : int; time : float; event : event }

(* The ring, when one is kept: [[||]] keeps none. Once the buffer wraps,
   the oldest cells are overwritten in place; [vacant] marks a cell never
   written. [subscriber] is fed every emitted event; [reset] runs on
   {!clear}. *)
type state = {
  mutable ring : record array;
  mutable next_seq : int;
  mutable clock : unit -> float;
  mutable enabled : bool;
  echo : bool; (* RS_TRACE set: every event goes to stderr as it is emitted *)
  mutable subscriber : int -> event -> unit;
  mutable reset : unit -> unit;
}

let vacant = { seq = -1; time = 0.0; event = Note "" }
let zero_clock () = 0.0

let st =
  {
    ring = [||];
    next_seq = 0;
    clock = zero_clock;
    enabled = true;
    echo = Sys.getenv_opt "RS_TRACE" <> None;
    subscriber = (fun _ _ -> ());
    reset = ignore;
  }

let set_clock f = st.clock <- f
let clear_clock () = st.clock <- zero_clock
let now () = st.clock ()

let set_capacity n =
  if n < 0 then invalid_arg "Trace.set_capacity: capacity must not be negative";
  st.ring <- Array.make n vacant

let capacity () = Array.length st.ring
let set_enabled b = st.enabled <- b
let enabled () = st.enabled
let recording () = st.enabled && (st.echo || Array.length st.ring > 0)
let skip () = if st.enabled then st.next_seq <- st.next_seq + 1

let subscribe ~on_event ~on_clear =
  st.subscriber <- on_event;
  st.reset <- on_clear

let pp_lock_kind fmt = function
  | Read -> Format.pp_print_string fmt "read"
  | Write -> Format.pp_print_string fmt "write"

let pp_event fmt = function
  | Page_read { page; ok } -> Format.fprintf fmt "page_read{page=%d ok=%b}" page ok
  | Page_write { page } -> Format.fprintf fmt "page_write{page=%d}" page
  | Torn_write { page } -> Format.fprintf fmt "torn_write{page=%d}" page
  | Page_decay { page } -> Format.fprintf fmt "page_decay{page=%d}" page
  | Store_repair { page } -> Format.fprintf fmt "store_repair{page=%d}" page
  | Log_write { log; addr; bytes } ->
      Format.fprintf fmt "log_write{log=%s addr=%d bytes=%d}" log addr bytes
  | Log_force { log; entries; stream_bytes } ->
      Format.fprintf fmt "log_force{log=%s entries=%d stream_bytes=%d}" log entries stream_bytes
  | Log_switch { log } -> Format.fprintf fmt "log_switch{log=%s}" log
  | Repl_ship { src; dst; epoch; base; entries; bytes } ->
      Format.fprintf fmt "repl_ship{%s->%s epoch=%d base=%d entries=%d bytes=%d}" src dst epoch
        base entries bytes
  | Repl_apply { gid; epoch; watermark; entries } ->
      Format.fprintf fmt "repl_apply{gid=%s epoch=%d watermark=%d entries=%d}" gid epoch watermark
        entries
  | Repl_promote { heir; for_; epoch; watermark } ->
      Format.fprintf fmt "repl_promote{heir=%s for=%s epoch=%d watermark=%d}" heir for_ epoch
        watermark
  | Segment_alloc { id; index } -> Format.fprintf fmt "segment_alloc{id=%d index=%d}" id index
  | Segment_retire { id } -> Format.fprintf fmt "segment_retire{id=%d}" id
  | Twopc_send { src; dst; msg } -> Format.fprintf fmt "2pc_send{%s->%s %s}" src dst msg
  | Twopc_recv { src; dst; msg } -> Format.fprintf fmt "2pc_recv{%s->%s %s}" src dst msg
  | Lock_acquire { heap; aid; addr; kind } ->
      Format.fprintf fmt "lock_acquire{heap=%s aid=%s addr=%d %a}" heap aid addr pp_lock_kind kind
  | Lock_release { heap; aid; addr } ->
      Format.fprintf fmt "lock_release{heap=%s aid=%s addr=%d}" heap aid addr
  | Lock_conflict { aid; holder; addr } ->
      Format.fprintf fmt "lock_conflict{aid=%s holder=%s addr=%d}" aid holder addr
  | Lock_wait { heap; aid; holder; addr; write } ->
      Format.fprintf fmt "lock_wait{heap=%s aid=%s holder=%s addr=%d write=%b}" heap aid holder
        addr write
  | Lock_timeout { heap; aid; addr } ->
      Format.fprintf fmt "lock_timeout{heap=%s aid=%s addr=%d}" heap aid addr
  | Lock_cancel { heap; aid; addr } ->
      Format.fprintf fmt "lock_cancel{heap=%s aid=%s addr=%d}" heap aid addr
  | Heap_label { heap } -> Format.fprintf fmt "heap_label{heap=%s}" heap
  | Snap_open { heap; stamp } -> Format.fprintf fmt "snap_open{heap=%s stamp=%d}" heap stamp
  | Snap_close { heap; stamp } -> Format.fprintf fmt "snap_close{heap=%s stamp=%d}" heap stamp
  | Snap_read { heap; addr; stamp; vstamp } ->
      Format.fprintf fmt "snap_read{heap=%s addr=%d stamp=%d vstamp=%d}" heap addr stamp vstamp
  | Version_install { heap; aid; addr; stamp } ->
      Format.fprintf fmt "version_install{heap=%s aid=%s addr=%d stamp=%d}" heap aid addr stamp
  | Handle_submit { gid; aid } -> Format.fprintf fmt "handle_submit{gid=%s aid=%s}" gid aid
  | Handle_resolve { gid; aid; committed } ->
      Format.fprintf fmt "handle_resolve{gid=%s aid=%s committed=%b}" gid aid committed
  | Action_shed { gid; in_flight } ->
      Format.fprintf fmt "action_shed{gid=%s in_flight=%d}" gid in_flight
  | Uid_mint { source; uid } -> Format.fprintf fmt "uid_mint{source=%s uid=%d}" source uid
  | Uid_reserve { gid; lo; count } ->
      Format.fprintf fmt "uid_reserve{gid=%s lo=%d count=%d}" gid lo count
  | Dir_route { coordinator; shards; cross } ->
      Format.fprintf fmt "dir_route{coord=%s shards=%d cross=%b}" coordinator shards cross
  | Action_prepare { gid; aid; refused } ->
      Format.fprintf fmt "action_prepare{gid=%s aid=%s refused=%b}" gid aid refused
  | Action_commit { gid; aid } -> Format.fprintf fmt "action_commit{gid=%s aid=%s}" gid aid
  | Action_abort { gid; aid } -> Format.fprintf fmt "action_abort{gid=%s aid=%s}" gid aid
  | Recovery_scan { system; entries } ->
      Format.fprintf fmt "recovery_scan{system=%s entries=%d}" system entries
  | Checkpoint { system; technique; entries } ->
      Format.fprintf fmt "checkpoint{system=%s technique=%s entries=%d}" system technique entries
  | Crash { gid } -> Format.fprintf fmt "crash{gid=%s}" gid
  | Restart { gid; prepared; committing } ->
      Format.fprintf fmt "restart{gid=%s prepared=%d committing=%d}" gid prepared committing
  | Explore_schedule { id; points } ->
      Format.fprintf fmt "explore_schedule{id=%d points=%d}" id points
  | Explore_violation { oracle; schedule } ->
      Format.fprintf fmt "explore_violation{oracle=%s schedule=%s}" oracle schedule
  | Explore_shrunk { points; schedule } ->
      Format.fprintf fmt "explore_shrunk{points=%d schedule=%s}" points schedule
  | Nemesis { kind; target } -> Format.fprintf fmt "nemesis{%s target=%s}" kind target
  | Note s -> Format.fprintf fmt "note{%s}" s

let pp_record fmt r = Format.fprintf fmt "#%-6d t=%-12g %a" r.seq r.time pp_event r.event

let emit ev =
  if st.enabled then begin
    let seq = st.next_seq in
    st.next_seq <- seq + 1;
    st.subscriber seq ev;
    let cap = Array.length st.ring in
    if cap > 0 || st.echo then begin
      let r = { seq; time = st.clock (); event = ev } in
      if cap > 0 then st.ring.(seq mod cap) <- r;
      if st.echo then Format.eprintf "[trace] %a@." pp_record r
    end
  end

let total () = st.next_seq

let events () =
  let cap = Array.length st.ring in
  if cap = 0 then invalid_arg "Trace.events: no ring is kept (see Trace.set_capacity)";
  let first = max 0 (st.next_seq - cap) in
  let acc = ref [] in
  for seq = st.next_seq - 1 downto first do
    let r = st.ring.(seq mod cap) in
    if r.seq = seq then acc := r :: !acc
  done;
  !acc

let clear () =
  Array.fill st.ring 0 (Array.length st.ring) vacant;
  st.next_seq <- 0;
  st.reset ()

let to_string () =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  List.iter (fun r -> Format.fprintf fmt "%a@." pp_record r) (events ());
  Format.pp_print_flush fmt ();
  Buffer.contents buf
