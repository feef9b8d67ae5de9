module Aid = Rs_util.Aid

type outcome = Committed | Aborted

type handle = {
  aid : Aid.t;
  submitted_at : float;
  mutable state : outcome option;
  mutable resolved_at : float option;
  mutable observers : (handle -> outcome -> unit) list;
}

let make ~aid ~now =
  { aid; submitted_at = now; state = None; resolved_at = None; observers = [] }

let aid h = h.aid
let outcome h = h.state
let resolved h = h.state <> None
let resolved_at h = h.resolved_at

let latency h =
  match h.resolved_at with Some t -> Some (t -. h.submitted_at) | None -> None

let on_resolve h f =
  match h.state with Some o -> f h o | None -> h.observers <- f :: h.observers

let resolve h ~now o =
  match h.state with
  | Some _ -> () (* the first resolution is final *)
  | None ->
      h.state <- Some o;
      h.resolved_at <- Some now;
      let obs = List.rev h.observers in
      h.observers <- [];
      List.iter (fun f -> f h o) obs

let pp_outcome fmt = function
  | Committed -> Format.pp_print_string fmt "committed"
  | Aborted -> Format.pp_print_string fmt "aborted"

let pp fmt h =
  match h.state with
  | None -> Format.fprintf fmt "%a pending" Aid.pp h.aid
  | Some o -> Format.fprintf fmt "%a %a" Aid.pp h.aid pp_outcome o
