module Uid = Rs_util.Uid
module Codec = Rs_util.Codec

type node =
  | Nunit
  | Nbool of bool
  | Nint of int
  | Nstr of string
  | Ntup of int array
  | Nuid of Uid.t
  | Nregular of int

type t = { nodes : node array; root : int }

let check_index n i =
  if i < 0 || i >= n then invalid_arg "Fvalue.make: node index out of bounds"

let make ~nodes ~root =
  let n = Array.length nodes in
  check_index n root;
  Array.iter
    (function
      | Ntup children -> Array.iter (check_index n) children
      | Nregular child -> check_index n child
      | Nunit | Nbool _ | Nint _ | Nstr _ | Nuid _ -> ())
    nodes;
  { nodes; root }

let uids t =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  Array.iter
    (function
      | Nuid u ->
          if not (Hashtbl.mem seen u) then begin
            Hashtbl.add seen u ();
            acc := u :: !acc
          end
      | Nunit | Nbool _ | Nint _ | Nstr _ | Ntup _ | Nregular _ -> ())
    t.nodes;
  List.rev !acc

let encode_node enc = function
  | Nunit -> Codec.Enc.u8 enc 0
  | Nbool b ->
      Codec.Enc.u8 enc 1;
      Codec.Enc.bool enc b
  | Nint i ->
      Codec.Enc.u8 enc 2;
      Codec.Enc.varint enc i
  | Nstr s ->
      Codec.Enc.u8 enc 3;
      Codec.Enc.string enc s
  | Ntup children ->
      Codec.Enc.u8 enc 4;
      Codec.Enc.array Codec.Enc.varint enc children
  | Nuid u ->
      Codec.Enc.u8 enc 5;
      Codec.Enc.varint enc (Uid.to_int u)
  | Nregular child ->
      Codec.Enc.u8 enc 6;
      Codec.Enc.varint enc child

let encode enc t =
  Codec.Enc.array encode_node enc t.nodes;
  Codec.Enc.varint enc t.root

let decode_node dec =
  match Codec.Dec.u8 dec with
  | 0 -> Nunit
  | 1 -> Nbool (Codec.Dec.bool dec)
  | 2 -> Nint (Codec.Dec.varint dec)
  | 3 -> Nstr (Codec.Dec.string dec)
  | 4 -> Ntup (Codec.Dec.array Codec.Dec.varint dec)
  | 5 -> Nuid (Uid.of_int (Codec.Dec.varint dec))
  | 6 -> Nregular (Codec.Dec.varint dec)
  | n -> raise (Codec.Error (Printf.sprintf "Fvalue: bad node tag %d" n))

(* The node table starts out filled with the immediate [Nunit]:
   [Codec.Dec.array]'s [Array.init] would start it with the first decoded
   node, a young block, and force a minor collection above 256 nodes. *)
let decode dec =
  let n = Codec.Dec.varint dec in
  if n < 0 || n > Codec.Dec.remaining dec then
    raise (Codec.Error (Printf.sprintf "bad array length %d" n));
  let nodes = Array.make n Nunit in
  for i = 0 to n - 1 do
    nodes.(i) <- decode_node dec
  done;
  let root = Codec.Dec.varint dec in
  match make ~nodes ~root with
  | t -> t
  | exception Invalid_argument msg -> raise (Codec.Error msg)

let equal a b = a.root = b.root && a.nodes = b.nodes

(* Cycles among regular-object nodes are legal; track the path to avoid
   looping while printing. *)
let pp fmt t =
  let on_path = Array.make (Array.length t.nodes) false in
  let rec go fmt i =
    if on_path.(i) then Format.pp_print_string fmt "<cycle>"
    else begin
      on_path.(i) <- true;
      (match t.nodes.(i) with
      | Nunit -> Format.pp_print_string fmt "()"
      | Nbool b -> Format.pp_print_bool fmt b
      | Nint n -> Format.pp_print_int fmt n
      | Nstr s -> Format.fprintf fmt "%S" s
      | Nuid u -> Rs_util.Uid.pp fmt u
      | Nregular c -> Format.fprintf fmt "reg(%a)" go c
      | Ntup children ->
          Format.fprintf fmt "(@[%a@])"
            (Format.pp_print_seq ~pp_sep:(fun f () -> Format.fprintf f ",@ ") go)
            (Array.to_seq children));
      on_path.(i) <- false
    end
  in
  go fmt t.root

let of_int i = make ~nodes:[| Nint i |] ~root:0
let of_string s = make ~nodes:[| Nstr s |] ~root:0
