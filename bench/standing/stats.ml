let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

let rank ~n ~permille =
  if n <= 0 then invalid_arg "Stats.rank: no samples";
  if permille < 1 || permille > 1000 then invalid_arg "Stats.rank: permille outside 1..1000";
  (* ceil (permille * n / 1000) in integers, so p99 of 1000 samples is
     rank 990 exactly, not 991 through float rounding. *)
  ((permille * n) + 999) / 1000

let nearest_rank a ~permille = a.(rank ~n:(Array.length a) ~permille - 1)
let beyond ~n ~permille = n - rank ~n ~permille
let supported ~n ~permille = n > 0 && beyond ~n ~permille >= 10

let median = function
  | [] -> invalid_arg "Stats.median: no samples"
  | xs ->
      let a = sorted xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let rung_passes ~limit ~p99 ~failed = failed = 0 && p99 <= limit

let ladder ~start ~step ~max_rungs ~passes =
  let rec climb i best =
    if i >= max_rungs then best
    else
      let rate = start +. (step *. float_of_int i) in
      if passes rate then climb (i + 1) rate else best
  in
  climb 0 0.0
