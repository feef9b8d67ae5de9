(* Binary min-heap on (time, seq): seq breaks ties so same-instant events
   fire in schedule order. *)
type event = { time : float; seq : int; thunk : unit -> unit }

(* Unused queue slots hold this shared event, so a popped thunk (and
   whatever it captured, such as a crashed guardian's heap) becomes
   garbage once it has run instead of living until the slot is reused. *)
let vacant = { time = infinity; seq = max_int; thunk = ignore }

type t = {
  mutable heap : event array;
  mutable size : int;
  mutable clock : float;
  mutable next_seq : int;
  rng : Rs_util.Rng.t;
}

let m_events = Rs_obs.Metrics.counter "sim.events"

let create ?(seed = 1) () =
  { heap = [||]; size = 0; clock = 0.0; next_seq = 0; rng = Rs_util.Rng.create seed }

let now t = t.clock
let rng t = t.rng
let pending t = t.size

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let schedule t ~delay thunk =
  if delay < 0.0 then invalid_arg "Sim.schedule: negative delay";
  let ev = { time = t.clock +. delay; seq = t.next_seq; thunk } in
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.heap then begin
    let ncap = max 16 (2 * Array.length t.heap) in
    let nheap = Array.make ncap vacant in
    Array.blit t.heap 0 nheap 0 t.size;
    t.heap <- nheap
  end;
  t.heap.(t.size) <- ev;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  t.heap.(0) <- t.heap.(t.size);
  t.heap.(t.size) <- vacant;
  if t.size > 0 then sift_down t 0;
  top

let step t =
  if t.size = 0 then false
  else begin
    let ev = pop t in
    t.clock <- ev.time;
    Rs_obs.Metrics.incr m_events;
    ev.thunk ();
    true
  end

let run ?until t =
  let stop =
    match until with None -> fun _ -> false | Some u -> fun (ev : event) -> ev.time > u
  in
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    if t.size = 0 then continue := false
    else if stop t.heap.(0) then continue := false
    else begin
      ignore (step t);
      incr count
    end
  done;
  !count
