type t = int

let of_int i =
  if i < 0 then invalid_arg "Uid.of_int: negative";
  i

let to_int t = t
let stable_vars = 0
let equal = Int.equal
let compare = Int.compare
let hash t = t
let pp fmt t = Format.fprintf fmt "O%d" t

module Ord = struct
  type nonrec t = t

  let compare = compare
  let equal = equal
  let hash = hash
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
module Tbl = Hashtbl.Make (Ord)

module Gen = struct
  type nonrec t = { mutable next : t }

  let create () = { next = stable_vars + 1 }

  let fresh g =
    let u = g.next in
    g.next <- u + 1;
    u

  let last g = g.next - 1
  let reset_past g u = if u >= g.next then g.next <- u + 1
end

module Source = struct
  type nonrec t = { label : string; mint : unit -> t }
end
