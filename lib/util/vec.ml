type 'a t = { mutable data : 'a array; mutable len : int }

(* [data] starts empty and is grown on first push. [len] tracks the used
   prefix. A slot past [len] never holds a dropped element: shrinking
   refills the vacated slots with the element at index 0 (still held),
   or drops the array when nothing is left. *)
let create () = { data = [||]; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let check t i name =
  if i < 0 || i >= t.len then invalid_arg (Printf.sprintf "Vec.%s: index %d out of bounds (len %d)" name i t.len)

let get t i =
  check t i "get";
  t.data.(i)

let set t i v =
  check t i "set";
  t.data.(i) <- v

(* [grow] runs only when [len] = capacity, so doubling by appending the
   array to itself fills the new half with live elements. Unlike
   [Array.make ncap v], [Array.append] never forces a minor collection
   when the result is over 256 words and [v] is young. *)
let grow t v =
  t.data <- (if Array.length t.data = 0 then Array.make 8 v else Array.append t.data t.data)

let push t v =
  if t.len = Array.length t.data then grow t v;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let shrink_to t n =
  if n = 0 then t.data <- [||] else Array.fill t.data n (t.len - n) t.data.(0);
  t.len <- n

let pop t =
  if t.len = 0 then invalid_arg "Vec.pop: empty";
  let v = t.data.(t.len - 1) in
  shrink_to t (t.len - 1);
  v

let last t =
  if t.len = 0 then invalid_arg "Vec.last: empty";
  t.data.(t.len - 1)

let truncate t n = if n < t.len then shrink_to t (max n 0)
let clear t = shrink_to t 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t = List.init t.len (fun i -> t.data.(i))
let to_array t = Array.sub t.data 0 t.len

let of_list l =
  let t = create () in
  List.iter (push t) l;
  t
