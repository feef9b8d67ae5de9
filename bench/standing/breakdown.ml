module Trace = Rs_obs.Trace

type op = { aid : string; due : float }
type parts = { retry : float; lock_wait : float; exec : float; prepare : float; decide : float }

let zero = { retry = 0.0; lock_wait = 0.0; exec = 0.0; prepare = 0.0; decide = 0.0 }
let total p = p.retry +. p.lock_wait +. p.exec +. p.prepare +. p.decide

let mean = function
  | [] -> zero
  | ps ->
      let n = float_of_int (List.length ps) in
      let sum f = List.fold_left (fun acc p -> acc +. f p) 0.0 ps /. n in
      {
        retry = sum (fun p -> p.retry);
        lock_wait = sum (fun p -> p.lock_wait);
        exec = sum (fun p -> p.exec);
        prepare = sum (fun p -> p.prepare);
        decide = sum (fun p -> p.decide);
      }

(* What the trace says about one committed attempt. *)
type acc = {
  mutable submit : float option;
  mutable resolve : float option;
  mutable first_prepare : float option;
  mutable last_prepared : float option;
  mutable lock_wait : float;
  mutable waiting : ((string * int) * float) list; (* (heap, addr) -> wait start *)
}

(* "prepare(T0.12)" carries aid "T0.12" for kind "prepare". *)
let aid_of_msg kind msg =
  let k = String.length kind and n = String.length msg in
  if n > k + 2 && String.sub msg 0 k = kind && msg.[k] = '(' && msg.[n - 1] = ')' then
    Some (String.sub msg (k + 1) (n - k - 2))
  else None

let reconstruct records ops =
  let tbl = Hashtbl.create (2 * List.length ops + 1) in
  List.iter
    (fun o ->
      Hashtbl.replace tbl o.aid
        {
          submit = None;
          resolve = None;
          first_prepare = None;
          last_prepared = None;
          lock_wait = 0.0;
          waiting = [];
        })
    ops;
  let on aid f = match Hashtbl.find_opt tbl aid with Some a -> f a | None -> () in
  List.iter
    (fun { Trace.time; event; _ } ->
      match event with
      | Trace.Handle_submit { aid; _ } -> on aid (fun a -> a.submit <- Some time)
      | Trace.Handle_resolve { aid; _ } -> on aid (fun a -> a.resolve <- Some time)
      | Trace.Twopc_send { msg; _ } -> (
          match aid_of_msg "prepare" msg with
          | Some aid ->
              on aid (fun a -> if a.first_prepare = None then a.first_prepare <- Some time)
          | None -> ())
      | Trace.Twopc_recv { msg; _ } -> (
          match aid_of_msg "prepared" msg with
          | Some aid -> on aid (fun a -> a.last_prepared <- Some time)
          | None -> ())
      | Trace.Lock_wait { heap; aid; addr; _ } ->
          on aid (fun a -> a.waiting <- ((heap, addr), time) :: a.waiting)
      | Trace.Lock_acquire { heap; aid; addr; _ } ->
          on aid (fun a ->
              match List.assoc_opt (heap, addr) a.waiting with
              | Some since ->
                  a.lock_wait <- a.lock_wait +. (time -. since);
                  a.waiting <- List.remove_assoc (heap, addr) a.waiting
              | None -> ())
      | _ -> ())
    records;
  List.map
    (fun o ->
      let a = Hashtbl.find tbl o.aid in
      match (a.submit, a.first_prepare, a.last_prepared, a.resolve, a.waiting) with
      | Some s, Some fp, Some lp, Some r, [] ->
          Ok
            {
              retry = s -. o.due;
              lock_wait = a.lock_wait;
              exec = fp -. s -. a.lock_wait;
              prepare = lp -. fp;
              decide = r -. lp;
            }
      | _, _, _, _, _ :: _ -> Error (o.aid ^ ": a lock wait was never granted")
      | _ -> Error (o.aid ^ ": submit, prepare, prepared or resolve event missing"))
    ops
