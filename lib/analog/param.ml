module I = Msoc_util.Interval
module Prng = Msoc_util.Prng
module Distribution = Msoc_stat.Distribution

type t = { nominal : float; tol : float }

let exact nominal = { nominal; tol = 0.0 }

let make ~nominal ~tol =
  assert (tol >= 0.0);
  { nominal; tol }

let interval p = I.of_err p.nominal ~err:p.tol

let effective_sigma p =
  if p.tol > 0.0 then p.tol /. 3.0
  else Float.max (Float.abs p.nominal *. 1e-9) 1e-12

let distribution p = Distribution.normal ~mean:p.nominal ~sigma:(effective_sigma p)

(* Truncated at the tolerance by redrawing, at most 22 draws.  A toplevel
   function rather than a local closure, so a draw allocates only the
   boxed deviate it returns. *)
let rec draw p g attempts =
  let v = Prng.gaussian_scaled g ~mean:p.nominal ~sigma:(p.tol /. 3.0) in
  if Float.abs (v -. p.nominal) <= p.tol || attempts > 20 then v else draw p g (attempts + 1)

let sample p g = if p.tol = 0.0 then p.nominal else draw p g 0

let sample_defective p g ~severity =
  let base = sample p g in
  let magnitude = if p.tol > 0.0 then p.tol else Float.max (Float.abs p.nominal *. 0.01) 1e-9 in
  let side = if Prng.float g < 0.5 then -1.0 else 1.0 in
  base +. (side *. severity *. magnitude)

let pp ppf p = Format.fprintf ppf "%g ± %g" p.nominal p.tol
