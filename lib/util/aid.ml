type t = { coordinator : Gid.t; seq : int }

let make ~coordinator ~seq =
  if seq < 0 then invalid_arg "Aid.make: negative seq";
  { coordinator; seq }

let coordinator t = t.coordinator
let seq t = t.seq
let equal a b = Gid.equal a.coordinator b.coordinator && Int.equal a.seq b.seq

let compare a b =
  match Gid.compare a.coordinator b.coordinator with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

let hash t = (Gid.hash t.coordinator * 1000003) + t.seq
let to_string t =
  String.concat "" [ "T"; string_of_int (Gid.to_int t.coordinator); "."; string_of_int t.seq ]

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

module Gen = struct
  type aid = t
  type nonrec t = { gid : Gid.t; mutable next : int }

  let create gid = { gid; next = 0 }

  let fresh g =
    let seq = g.next in
    g.next <- seq + 1;
    { coordinator = g.gid; seq }

  let reset_past g (a : aid) =
    if Gid.equal a.coordinator g.gid && a.seq >= g.next then g.next <- a.seq + 1
end
