(* Summaries of measured values. Latency percentiles are nearest-rank
   over the exact samples (the exact half of Obs.Histogram); summaries
   of per-window values use the quartile method of Python's
   statistics.quantiles (n=4, "exclusive"), so a record's spread reads
   the same as any external check of it. *)

let percentile = Obs.Histogram.percentile

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* statistics.quantiles(xs, n=4): the three cut points. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (cut 1, cut 2, cut 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* How samples are summarised: their median, or the best of them. *)
type pick = Median | Max | Min

let summarise pick xs =
  let finite = Array.of_list (List.filter Float.is_finite (Array.to_list xs)) in
  if finite = [||] then 0.0
  else
    match pick with
    | Median -> median finite
    | Max -> Array.fold_left Float.max neg_infinity finite
    | Min -> Array.fold_left Float.min infinity finite

(* The spread of a summary, as a share of it. A median's is the
   interquartile range; a best's is its gap to the runner-up, since a
   lone best sample that nothing else comes near is not reproducible. *)
let spread pick xs =
  let v = summarise pick xs in
  if v = 0.0 || Array.length xs < 2 then 0.0
  else
    match pick with
    | Median ->
        let q1, _, q3 = quartiles xs in
        (q3 -. q1) /. Float.abs v
    | Max | Min ->
        let a = sorted xs and n = Array.length xs in
        let runner_up = match pick with Max -> a.(n - 2) | _ -> a.(1) in
        Float.abs (v -. runner_up) /. Float.abs v

(* The highest of the usual tail percentiles that still has at least ten
   samples beyond it: a tail quoted from fewer is one or two samples. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n -. Float.ceil (p /. 100.0 *. float_of_int n) >= 10.0)
    [ 99.99; 99.9; 99.0; 90.0; 50.0 ]

let of_ints a n = Array.init n (fun i -> float_of_int a.(i))
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
