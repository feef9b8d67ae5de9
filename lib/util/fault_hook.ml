type site = ..
type verdict = Go | Crash | Drop | Delay of float
type mutation = ..

let hook : (site -> verdict) option ref = ref None
let mutations : mutation list ref = ref []

let active () = match !hook with Some _ -> true | None -> false
let at site = match !hook with Some h -> h site | None -> Go

let scoped r v f =
  let outer = !r in
  r := v;
  Fun.protect ~finally:(fun () -> r := outer) f

let with_hook h f = scoped hook (Some h) f
let with_mutations ms f = scoped mutations ms f
let mutated m = match !mutations with [] -> false | ms -> List.memq m ms

let on_nth p n v =
  let seen = ref 0 in
  fun site ->
    if not (p site) then Go
    else begin
      incr seen;
      if !seen = n then v else Go
    end
