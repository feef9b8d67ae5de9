type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : int }

type histogram = {
  h_name : string;
  bounds : int array; (* strictly increasing bucket boundaries *)
  interior : int array; (* length = Array.length bounds - 1 *)
  mutable underflow : int;
  mutable overflow : int;
  mutable h_count : int;
  mutable h_sum : int;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }
let default = create ()

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"

let clash name existing wanted =
  invalid_arg
    (Printf.sprintf "Metrics.%s: %S is already registered as a %s" wanted name
       (kind_name existing))

let counter ?(registry = default) name =
  match Hashtbl.find_opt registry.tbl name with
  | Some (Counter c) -> c
  | Some m -> clash name m "counter"
  | None ->
      let c = { c_name = name; c_value = 0 } in
      Hashtbl.replace registry.tbl name (Counter c);
      c

let incr ?(by = 1) c =
  if by < 0 then invalid_arg "Metrics.incr: counters are monotonic";
  c.c_value <- c.c_value + by

let counter_value c = c.c_value

let gauge ?(registry = default) name =
  match Hashtbl.find_opt registry.tbl name with
  | Some (Gauge g) -> g
  | Some m -> clash name m "gauge"
  | None ->
      let g = { g_name = name; g_value = 0 } in
      Hashtbl.replace registry.tbl name (Gauge g);
      g

let set g v = g.g_value <- v
let gauge_value g = g.g_value

let default_buckets =
  Array.of_list (0 :: List.init 17 (fun i -> 1 lsl i)) (* 0,1,2,...,65536 *)

let check_bounds bounds =
  if Array.length bounds < 1 then invalid_arg "Metrics.histogram: need at least one bound";
  for i = 1 to Array.length bounds - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Metrics.histogram: bounds must be strictly increasing"
  done

let histogram ?(registry = default) ?(bounds = default_buckets) name =
  match Hashtbl.find_opt registry.tbl name with
  | Some (Histogram h) -> h
  | Some m -> clash name m "histogram"
  | None ->
      check_bounds bounds;
      let h =
        {
          h_name = name;
          bounds = Array.copy bounds;
          interior = Array.make (max 0 (Array.length bounds - 1)) 0;
          underflow = 0;
          overflow = 0;
          h_count = 0;
          h_sum = 0;
        }
      in
      Hashtbl.replace registry.tbl name (Histogram h);
      h

let observe h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  let n = Array.length h.bounds in
  if v < h.bounds.(0) then h.underflow <- h.underflow + 1
  else if v >= h.bounds.(n - 1) then h.overflow <- h.overflow + 1
  else begin
    (* Binary search for the bucket i with bounds.(i) <= v < bounds.(i+1). *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if v < h.bounds.(mid) then hi := mid else lo := mid
    done;
    h.interior.(!lo) <- h.interior.(!lo) + 1
  end

let histogram_count h = h.h_count
let histogram_sum h = h.h_sum
let histogram_buckets h = (h.underflow, Array.copy h.interior, h.overflow)

let histogram_quantile h q =
  if q < 0.0 || q > 1.0 then invalid_arg "Metrics.histogram_quantile: q outside [0,1]";
  if h.h_count = 0 then 0.0
  else begin
    let n = Array.length h.bounds in
    let rank = q *. float_of_int h.h_count in
    (* Walk underflow, interior buckets, overflow cumulatively; linear
       interpolation inside the containing interior bucket, clamping to
       the nearest bound for the open-ended tails. *)
    let result = ref None in
    let cum = ref (float_of_int h.underflow) in
    if h.underflow > 0 && !cum >= rank then result := Some (float_of_int h.bounds.(0));
    let i = ref 0 in
    while !result = None && !i < n - 1 do
      let c = h.interior.(!i) in
      if c > 0 then begin
        let before = !cum in
        cum := !cum +. float_of_int c;
        if !cum >= rank then
          let frac = (rank -. before) /. float_of_int c in
          result :=
            Some
              (float_of_int h.bounds.(!i)
              +. (frac *. float_of_int (h.bounds.(!i + 1) - h.bounds.(!i))))
      end;
      i := !i + 1
    done;
    match !result with Some v -> v | None -> float_of_int h.bounds.(n - 1)
  end

let find_counter registry name =
  match Hashtbl.find_opt registry.tbl name with
  | Some (Counter c) -> Some c.c_value
  | Some _ | None -> None

(* What export shows: counters a run moved, histograms it observed, and
   every gauge (a gauge set to 0 is a reading, not an untouched metric). *)
let touched = function
  | Counter c -> c.c_value > 0
  | Gauge _ -> true
  | Histogram h -> h.h_count > 0

let exported registry =
  Hashtbl.fold (fun _ m acc -> if touched m then m :: acc else acc) registry.tbl []
  |> List.sort (fun a b ->
         let name = function
           | Counter c -> c.c_name
           | Gauge g -> g.g_name
           | Histogram h -> h.h_name
         in
         String.compare (name a) (name b))

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json registry =
  let ms = exported registry in
  let buf = Buffer.create 1024 in
  let obj label emit items =
    Buffer.add_string buf (Printf.sprintf "  \"%s\": {" label);
    List.iteri
      (fun i m ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf "\n    ";
        emit m)
      items;
    if items <> [] then Buffer.add_string buf "\n  ";
    Buffer.add_char buf '}'
  in
  let counters = List.filter_map (function Counter c -> Some c | _ -> None) ms in
  let gauges = List.filter_map (function Gauge g -> Some g | _ -> None) ms in
  let histograms = List.filter_map (function Histogram h -> Some h | _ -> None) ms in
  Buffer.add_string buf "{\n";
  obj "counters"
    (fun c -> Buffer.add_string buf (Printf.sprintf "\"%s\": %d" (json_escape c.c_name) c.c_value))
    counters;
  Buffer.add_string buf ",\n";
  obj "gauges"
    (fun g -> Buffer.add_string buf (Printf.sprintf "\"%s\": %d" (json_escape g.g_name) g.g_value))
    gauges;
  Buffer.add_string buf ",\n";
  obj "histograms"
    (fun h ->
      let ints a = String.concat ", " (List.map string_of_int (Array.to_list a)) in
      Buffer.add_string buf
        (Printf.sprintf
           "\"%s\": {\"bounds\": [%s], \"underflow\": %d, \"buckets\": [%s], \"overflow\": %d, \
            \"count\": %d, \"sum\": %d}"
           (json_escape h.h_name) (ints h.bounds) h.underflow (ints h.interior) h.overflow
           h.h_count h.h_sum))
    histograms;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

let pp fmt registry =
  List.iter
    (fun m ->
      match m with
      | Counter c -> Format.fprintf fmt "%-44s %12d@." c.c_name c.c_value
      | Gauge g -> Format.fprintf fmt "%-44s %12d (gauge)@." g.g_name g.g_value
      | Histogram h ->
          Format.fprintf fmt "%-44s count=%d sum=%d under=%d over=%d@." h.h_name h.h_count
            h.h_sum h.underflow h.overflow)
    (exported registry)

let reset registry =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> c.c_value <- 0
      | Gauge g -> g.g_value <- 0
      | Histogram h ->
          Array.fill h.interior 0 (Array.length h.interior) 0;
          h.underflow <- 0;
          h.overflow <- 0;
          h.h_count <- 0;
          h.h_sum <- 0)
    registry.tbl
