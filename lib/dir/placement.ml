module Gid = Rs_util.Gid
module Crc32 = Rs_util.Crc32

type t = { seed : int; shards : Gid.t array }

let create ?(seed = 0) ~shards () =
  if shards = [] then invalid_arg "Placement.create: need at least one shard";
  { seed; shards = Array.of_list shards }

let shards t = Array.to_list t.shards

(* SplitMix64 finalizer: spreads the seed/crc mix so nearby seeds give
   unrelated placements. *)
let mix x =
  let x = Int64.of_int x in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 27)) 0x94d049bb133111ebL in
  Int64.to_int (Int64.logxor x (Int64.shift_right_logical x 31)) land max_int

let slot t h = t.shards.(h mod Array.length t.shards)

let hash_key t key =
  let crc = Int32.to_int (Crc32.string key) land 0xffffffff in
  mix (crc lxor (t.seed * 0x9e3779b9))

let shard_of_key t key = slot t (hash_key t key)
