type summary = {
  n : int;
  mean : float;
  stddev : float;
  ci95 : float;
  min : float;
  max : float;
}

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let sum_sq = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sum_sq /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

(* Two-sided 95% critical values of Student's t distribution by degrees of
   freedom; beyond 30 the normal approximation 1.96 is within 2%. *)
let t_critical_95 = function
  | 1 -> 12.706
  | 2 -> 4.303
  | 3 -> 3.182
  | 4 -> 2.776
  | 5 -> 2.571
  | 6 -> 2.447
  | 7 -> 2.365
  | 8 -> 2.306
  | 9 -> 2.262
  | 10 -> 2.228
  | 11 -> 2.201
  | 12 -> 2.179
  | 13 -> 2.160
  | 14 -> 2.145
  | 15 -> 2.131
  | 16 -> 2.120
  | 17 -> 2.110
  | 18 -> 2.101
  | 19 -> 2.093
  | df when df >= 20 && df < 30 -> 2.06
  | df when df >= 30 -> 1.96
  | _ -> invalid_arg "t_critical_95: non-positive degrees of freedom"

let summary xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summary: empty data";
  let m = mean xs in
  let sd = stddev xs in
  let ci95 =
    if n < 2 then 0.0 else t_critical_95 (n - 1) *. sd /. sqrt (float_of_int n)
  in
  let mn = Array.fold_left Float.min xs.(0) xs in
  let mx = Array.fold_left Float.max xs.(0) xs in
  { n; mean = m; stddev = sd; ci95; min = mn; max = mx }

let percentile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty data";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.percentile: q outside [0,1]";
  if Array.exists Float.is_nan xs then
    invalid_arg "Stats.percentile: NaN in data";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end
