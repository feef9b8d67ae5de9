type t = int

let of_int i =
  if i < 0 then invalid_arg "Gid.of_int: negative";
  i

let to_int t = t
let equal = Int.equal
let compare = Int.compare
let hash t = t
(* Trace payloads carry a gid on every event; render the common ones once. *)
let names = Array.init 64 (fun i -> "G" ^ string_of_int i)
let to_string t = if t < Array.length names then names.(t) else "G" ^ string_of_int t
let pp fmt t = Format.pp_print_string fmt (to_string t)

module Ord = struct
  type nonrec t = t

  let compare = compare
  let equal = equal
  let hash = hash
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
module Tbl = Hashtbl.Make (Ord)
