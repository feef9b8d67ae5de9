module Uid = Rs_util.Uid
module Vec = Rs_util.Vec
module Codec = Rs_util.Codec

let flatten heap v =
  let nodes = Vec.create () in
  let memo = Hashtbl.create 8 in
  (* addr of regular object -> node index *)
  let push n =
    Vec.push nodes n;
    Vec.length nodes - 1
  in
  let rec go v =
    match v with
    | Value.Unit -> push Fvalue.Nunit
    | Value.Bool b -> push (Fvalue.Nbool b)
    | Value.Int i -> push (Fvalue.Nint i)
    | Value.Str s -> push (Fvalue.Nstr s)
    | Value.Tup vs ->
        let children = Array.map go vs in
        push (Fvalue.Ntup children)
    | Value.Ref a -> (
        match Heap.kind_of heap a with
        | Heap.Atomic | Heap.Mutex -> (
            match Heap.uid_of heap a with
            | Some u -> push (Fvalue.Nuid u)
            | None -> invalid_arg "Flatten.flatten: recoverable object without uid")
        | Heap.Placeholder -> (
            match Heap.uid_of heap a with
            | Some u -> push (Fvalue.Nuid u)
            | None -> invalid_arg "Flatten.flatten: placeholder without uid")
        | Heap.Regular -> (
            match Hashtbl.find_opt memo a with
            | Some idx -> idx
            | None ->
                (* Reserve the node before descending so cycles close. *)
                let idx = push (Fvalue.Nregular 0) in
                Hashtbl.add memo a idx;
                let child = go (Heap.regular_value heap a) in
                Vec.set nodes idx (Fvalue.Nregular child);
                idx))
  in
  let root = go v in
  Fvalue.make ~nodes:(Vec.to_array nodes) ~root

(* A value that reaches no regular object flattens to a tree: [flatten]
   numbers its nodes in post-order, one node per tuple and leaf, with no
   sharing. Node count and child indices then follow from subtree sizes,
   so such a value can be encoded with no node table. Anything else — a
   regular object, or a recoverable object without a uid, which [flatten]
   rejects — goes through [flatten]. *)
exception Not_a_tree

(* The number of nodes in [v]'s flattening, calling [on_uid] on each
   referenced uid in node order. *)
let rec tree_size heap on_uid v =
  match v with
  | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ -> 1
  | Value.Tup vs ->
      let n = ref 1 in
      for i = 0 to Array.length vs - 1 do
        n := !n + tree_size heap on_uid vs.(i)
      done;
      !n
  | Value.Ref a -> (
      match (Heap.kind_of heap a, Heap.uid_of heap a) with
      | (Heap.Atomic | Heap.Mutex | Heap.Placeholder), Some u ->
          on_uid u;
          1
      | Heap.Regular, _ | (Heap.Atomic | Heap.Mutex | Heap.Placeholder), None ->
          raise_notrace Not_a_tree)

(* Writes the nodes of tree [v], whose first node has index [first], as
   [Fvalue.encode] writes them (children before their tuple), and
   returns how many it wrote. A tuple's child indices come from the
   children's sizes, so the work grows with nodes times tuple depth;
   versions here are a few tuples deep. *)
let rec emit heap enc first v =
  match v with
  | Value.Unit ->
      Codec.Enc.u8 enc 0;
      1
  | Value.Bool b ->
      Codec.Enc.u8 enc 1;
      Codec.Enc.bool enc b;
      1
  | Value.Int i ->
      Codec.Enc.u8 enc 2;
      Codec.Enc.varint enc i;
      1
  | Value.Str s ->
      Codec.Enc.u8 enc 3;
      Codec.Enc.string enc s;
      1
  | Value.Tup vs ->
      let next = ref first in
      for i = 0 to Array.length vs - 1 do
        next := !next + emit heap enc !next vs.(i)
      done;
      Codec.Enc.u8 enc 4;
      Codec.Enc.varint enc (Array.length vs);
      let child = ref first in
      for i = 0 to Array.length vs - 1 do
        child := !child + tree_size heap ignore vs.(i);
        Codec.Enc.varint enc (!child - 1)
      done;
      !next - first + 1
  | Value.Ref a ->
      Codec.Enc.u8 enc 5;
      Codec.Enc.varint enc (Uid.to_int (Option.get (Heap.uid_of heap a)));
      1

let encode heap enc v =
  match tree_size heap ignore v with
  | n ->
      Codec.Enc.varint enc n;
      ignore (emit heap enc 0 v);
      Codec.Enc.varint enc (n - 1)
  | exception Not_a_tree -> Fvalue.encode enc (flatten heap v)

let iter_uids heap v f =
  match tree_size heap ignore v with
  | _ -> ignore (tree_size heap f v)
  | exception Not_a_tree -> List.iter f (Fvalue.uids (flatten heap v))

let rebuild heap (fv : Fvalue.t) =
  let n = Array.length fv.nodes in
  let built : Value.t option array = Array.make n None in
  let rec node i =
    match built.(i) with
    | Some v -> v
    | None ->
        let v =
          match fv.nodes.(i) with
          | Fvalue.Nunit -> Value.Unit
          | Fvalue.Nbool b -> Value.Bool b
          | Fvalue.Nint x -> Value.Int x
          | Fvalue.Nstr s -> Value.Str s
          | Fvalue.Nuid u -> (
              match Heap.addr_of_uid heap u with
              | Some a -> Value.Ref a
              | None -> Value.Ref (Heap.install_placeholder heap u))
          | Fvalue.Ntup children ->
              (* Tuples cannot be on a cycle (only Nregular can), so plain
                 recursion is safe. *)
              Value.tup_map node children
          | Fvalue.Nregular child ->
              (* Reserve the regular object first so cycles resolve to it. *)
              let a = Heap.alloc_regular heap Value.Unit in
              built.(i) <- Some (Value.Ref a);
              Heap.set_regular heap a (node child);
              Value.Ref a
        in
        (match built.(i) with
        | Some existing -> existing (* set by the Nregular reservation *)
        | None ->
            built.(i) <- Some v;
            v)
  in
  node fv.root
