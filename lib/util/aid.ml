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
(* Rendered on every traced lock, commit and handle event, so built in one
   allocation rather than through [string_of_int]'s format interpreter. *)
let to_string t =
  let digits n =
    let rec go n d = if n < 10 then d else go (n / 10) (d + 1) in
    go n 1
  in
  let put b last n =
    let rec go i n =
      Bytes.unsafe_set b i (Char.unsafe_chr (48 + (n mod 10)));
      if n >= 10 then go (i - 1) (n / 10)
    in
    go last n
  in
  let g = Gid.to_int t.coordinator in
  let dg = digits g and ds = digits t.seq in
  let b = Bytes.create (dg + ds + 2) in
  Bytes.unsafe_set b 0 'T';
  put b dg g;
  Bytes.unsafe_set b (dg + 1) '.';
  put b (dg + ds + 1) t.seq;
  Bytes.unsafe_to_string b

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
