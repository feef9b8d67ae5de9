module Value = Rs_objstore.Value

(* Representation: Tup [| Int next_token; items... |], oldest item first.
   [next_token] counts every enqueue ever committed, so the queue content
   is fully determined by the committed (enqueue, dequeue) counts: tokens
   [dequeued, enqueued) in order. *)

let empty = Value.Tup [| Value.Int 0 |]

let cells = function
  | Value.Tup cells when Array.length cells >= 1 -> cells
  | v -> invalid_arg (Format.asprintf "Fifo: not a queue value: %a" Value.pp v)

let int_of = function
  | Value.Int n -> n
  | v -> invalid_arg (Format.asprintf "Fifo: non-int queue cell: %a" Value.pp v)

let next_token v = int_of (cells v).(0)

let items v =
  let c = cells v in
  List.init (Array.length c - 1) (fun i -> int_of c.(i + 1))

let enqueue v =
  let c = cells v in
  let n = int_of c.(0) in
  let out = Array.copy c in
  out.(0) <- Value.Int (n + 1);
  (Value.Tup (Array.append out [| Value.Int n |]), n)

let dequeue v =
  let c = cells v in
  if Array.length c <= 1 then None
  else
    let head = int_of c.(1) in
    let rest =
      Array.append [| c.(0) |] (Array.sub c 2 (Array.length c - 2))
    in
    Some (Value.Tup rest, head)

let check ~enqueued ~dequeued v =
  match (next_token v, items v) with
  | exception Invalid_argument m -> Error m
  | n, _ when n <> enqueued ->
      Error (Printf.sprintf "queue next-token %d, model says %d enqueues" n enqueued)
  | _, is ->
      let expected = List.init (enqueued - dequeued) (fun i -> dequeued + i) in
      if is = expected then Ok ()
      else
        Error
          (Printf.sprintf "queue holds [%s], model says [%s]"
             (String.concat ";" (List.map string_of_int is))
             (String.concat ";" (List.map string_of_int expected)))
