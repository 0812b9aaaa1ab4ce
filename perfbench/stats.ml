(* Order statistics with the sample-count rule: a percentile is reported
   only when at least [min_beyond] samples lie beyond it, so a "p99" is
   never the maximum of a small sample. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   samples at or below it.  [Error] when fewer than [min_beyond] samples
   lie above that rank. *)
let percentile ~p xs =
  if p <= 0.0 || p >= 1.0 then invalid_arg "Stats.percentile: p must lie in (0, 1)";
  let a = sorted xs in
  let n = Array.length a in
  let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n -. 1e-9))) in
  if n - rank < min_beyond then
    Error
      (Printf.sprintf "p%g needs %d samples beyond it; %d sample(s) give %d" (100.0 *. p)
         min_beyond n (max 0 (n - rank)))
  else Ok a.(rank - 1)

(* Plain median (mean of the middle pair), for in-process timings where
   the sample-count rule is not the point; [nan] on no samples. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let mean xs =
  match xs with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
