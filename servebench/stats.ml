(** Order statistics and ratios for the serving benchmark.

    Latency percentiles use linear interpolation between closest ranks
    (the usual "type 7" definition): for [n] sorted samples the [p]
    quantile sits at fractional index [p *. (n - 1)].  A percentile is
    only worth reporting when at least ten samples lie beyond it
    ({!beyond}).  Run-to-run spreads are computed by [steady.py]. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(** [percentile_sorted a p] for [a] sorted ascending, [p] in [0, 1];
    [nan] on an empty array. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n = 1 then a.(0)
  else
    let p = Float.min 1. (Float.max 0. p) in
    let pos = p *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let percentile xs p = percentile_sorted (sorted xs) p
let median xs = percentile xs 0.5

(** Samples strictly above the [p] quantile's rank: [n - ceil (p n)]. *)
let beyond n p = n - int_of_float (Float.ceil (p *. float_of_int n))

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(** [ratio num den] — [0.] when [den] is zero, so an absent layer reads
    as "none of it" rather than [nan]. *)
let ratio num den = if den = 0. then 0. else num /. den

let ratio_int num den = ratio (float_of_int num) (float_of_int den)
