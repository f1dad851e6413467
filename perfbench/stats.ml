(* Order statistics for latency samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks; 0 for no samples. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* Percentiles in tenths of a percent, so ranks are exact integers. *)
let ladder = [ 999; 990; 950; 900; 750; 500 ]

type tail = { percentile : float; value : float; beyond : int; samples : int }

(* Nearest rank of the [p]-tenths-of-a-percent percentile of [n] samples. *)
let rank p n = max 1 (((p * n) + 999) / 1000)

(* The highest percentile of [ladder] with at least 10 samples ranked
   beyond it (nearest-rank definition).  Below 20 samples no percentile
   qualifies and the median is reported with the few samples beyond it. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let pick p =
    let r = rank p n in
    { percentile = float_of_int p /. 10.0; value = (if n = 0 then 0.0 else a.(r - 1));
      beyond = n - r; samples = n }
  in
  match List.find_opt (fun p -> n - rank p n >= 10) ladder with
  | Some p -> pick p
  | None -> pick 500
