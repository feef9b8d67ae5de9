module Gid = Rs_util.Gid
module Fault_hook = Rs_util.Fault_hook

type 'msg node = { mutable handler : src:Gid.t -> 'msg -> unit; mutable up : bool }

type 'msg t = {
  sim : Sim.t;
  latency : float;
  jitter : float;
  drop_prob : float;
  nodes : (Gid.t, 'msg node) Hashtbl.t;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
}

(* Fault site: consulted once per send from an up source, before the
   probabilistic drop. *)
type Fault_hook.site += Send

let create ?(latency = 1.0) ?(jitter = 0.0) ?(drop_prob = 0.0) sim () =
  {
    sim;
    latency;
    jitter;
    drop_prob;
    nodes = Hashtbl.create 16;
    sent = 0;
    delivered = 0;
    dropped = 0;
  }

let node t gid name =
  match Hashtbl.find_opt t.nodes gid with
  | Some n -> n
  | None -> invalid_arg (Format.asprintf "Net.%s: unregistered node %a" name Gid.pp gid)

let register t gid handler =
  match Hashtbl.find_opt t.nodes gid with
  | Some n -> n.handler <- handler
  | None -> Hashtbl.replace t.nodes gid { handler; up = true }

let set_up t gid up = (node t gid "set_up").up <- up
let is_up t gid = (node t gid "is_up").up

let send t ~src ~dst msg =
  let dnode = node t dst "send" in
  ignore dnode;
  let snode = node t src "send" in
  if snode.up then begin
    t.sent <- t.sent + 1;
    let verdict = Fault_hook.at Send in
    let rng = Sim.rng t.sim in
    if verdict = Fault_hook.Drop then t.dropped <- t.dropped + 1
    else if t.drop_prob > 0.0 && Rs_util.Rng.bool rng t.drop_prob then
      t.dropped <- t.dropped + 1
    else begin
      (* A message to self never touches the wire: it arrives in the same
         instant, after the event that sent it, and draws no jitter. *)
      let wire =
        if Gid.equal src dst then 0.0
        else t.latency +. if t.jitter > 0.0 then Rs_util.Rng.float rng t.jitter else 0.0
      in
      let delay = wire +. match verdict with Delay d -> d | Go | Crash | Drop -> 0.0 in
      Sim.schedule t.sim ~delay (fun () ->
          let n = node t dst "deliver" in
          if n.up then begin
            t.delivered <- t.delivered + 1;
            n.handler ~src msg
          end
          else t.dropped <- t.dropped + 1)
    end
  end

let messages_sent t = t.sent
let messages_delivered t = t.delivered
let messages_dropped t = t.dropped
