module Metrics = Rs_obs.Metrics

let m_group_commits = Metrics.counter "slog.group_commits"

type timer = delay:float -> (unit -> unit) -> unit

type t = {
  mutable log : Stable_log.t;
  mutable window : float;
  mutable timer : timer option;
  mutable waiters : (unit -> unit) list; (* newest first *)
  mutable n_waiters : int;
  mutable armed : bool;
  mutable alive : bool;
}

let create ?(window = 0.0) ?timer log =
  if window < 0.0 then invalid_arg "Force_scheduler.create: negative window";
  { log; window; timer; waiters = []; n_waiters = 0; armed = false; alive = true }

let configure t ~window ~timer =
  if window < 0.0 then invalid_arg "Force_scheduler.configure: negative window";
  t.window <- window;
  t.timer <- timer

let window t = t.window
let batched t = t.alive && t.window > 0.0 && t.timer <> None
let pending t = t.n_waiters

(* One covering force for every token enqueued so far. The waiter list is
   snapshotted and cleared *before* the physical force: if the force
   crashes (fault injection, torn page), the tokens are gone — exactly the
   crash-before-durable semantics callers must already handle — and a
   re-created scheduler starts clean. Callbacks run in enqueue order;
   a callback may enqueue again, starting a fresh batch. *)
let flush t =
  t.armed <- false;
  if t.alive && t.n_waiters > 0 then begin
    let callbacks = List.rev t.waiters in
    t.waiters <- [];
    t.n_waiters <- 0;
    Stable_log.force t.log;
    Metrics.incr m_group_commits;
    (* The covering force is stable, so every token in the batch is owed
       its notification: a raising callback must not starve the rest.
       Run them all, then re-raise the first failure. *)
    let first_exn = ref None in
    List.iter
      (fun k ->
        try k ()
        with exn -> ( match !first_exn with None -> first_exn := Some exn | Some _ -> ()))
      callbacks;
    match !first_exn with Some exn -> raise exn | None -> ()
  end

(* Retargeting with tokens outstanding would cover old-log entries with a
   force of the NEW log — a durability lie. Settle them against the log
   they were enqueued for first; callbacks run before the swap, so work
   they start still lands on the old log (the housekeeping OEL carries
   it over). *)
let set_log t log =
  if t.n_waiters > 0 then flush t;
  t.log <- log

let enqueue t ?on_durable () =
  if t.alive then begin
    let k = match on_durable with Some k -> k | None -> fun () -> () in
    t.waiters <- k :: t.waiters;
    t.n_waiters <- t.n_waiters + 1;
    match t.timer with
    | Some timer when t.window > 0.0 ->
        if not t.armed then begin
          t.armed <- true;
          timer ~delay:t.window (fun () -> flush t)
        end
    | Some _ | None ->
        (* Degenerate one-token batch: synchronous force, callback fires
           before [enqueue] returns — the pre-group-commit contract. *)
        flush t
  end

let stop t =
  t.alive <- false;
  t.waiters <- [];
  t.n_waiters <- 0;
  t.armed <- false
