type addr = int

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Tup of t array
  | Ref of addr

let tup_map f a =
  let vs = Array.make (Array.length a) Unit in
  for i = 0 to Array.length a - 1 do
    vs.(i) <- f a.(i)
  done;
  Tup vs

let rec equal_shape a b =
  match (a, b) with
  | Unit, Unit -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Str x, Str y -> String.equal x y
  | Ref x, Ref y -> Int.equal x y
  | Tup x, Tup y ->
      Array.length x = Array.length y
      && (let ok = ref true in
          Array.iteri (fun i v -> if not (equal_shape v y.(i)) then ok := false) x;
          !ok)
  | (Unit | Bool _ | Int _ | Str _ | Tup _ | Ref _), _ -> false

let rec pp fmt = function
  | Unit -> Format.pp_print_string fmt "()"
  | Bool b -> Format.pp_print_bool fmt b
  | Int i -> Format.pp_print_int fmt i
  | Str s -> Format.fprintf fmt "%S" s
  | Ref a -> Format.fprintf fmt "@%d" a
  | Tup vs ->
      Format.fprintf fmt "(@[%a@])"
        (Format.pp_print_seq ~pp_sep:(fun f () -> Format.fprintf f ",@ ") pp)
        (Array.to_seq vs)

let refs v =
  let acc = ref [] in
  let rec go = function
    | Unit | Bool _ | Int _ | Str _ -> ()
    | Ref a -> acc := a :: !acc
    | Tup vs -> Array.iter go vs
  in
  go v;
  List.rev !acc
