module I = Msoc_util.Interval
module Units = Msoc_util.Units
module Prng = Msoc_util.Prng

type params = {
  freq_hz : float;
  freq_error_hz : Param.t;
  phase_noise_deg_rms : Param.t;
  drive_dbm : float;
}

type values = {
  freq_hz : float;
  freq_error_hz : float;
  phase_noise_deg_rms : float;
  drive_dbm : float;
}

type osc = {
  step_rad : float;
  sigma_rad : float;
  rho : float;
  rng : Prng.t;
  mutable phase : float;
  mutable wander : float;
}

let default_params ~freq_hz : params =
  { freq_hz;
    freq_error_hz = Param.make ~nominal:0.0 ~tol:200.0;
    phase_noise_deg_rms = Param.make ~nominal:0.03 ~tol:0.01;
    drive_dbm = 7.0 }

let nominal_values (p : params) : values =
  { freq_hz = p.freq_hz;
    freq_error_hz = p.freq_error_hz.Param.nominal;
    phase_noise_deg_rms = p.phase_noise_deg_rms.Param.nominal;
    drive_dbm = p.drive_dbm }

let sample_values (p : params) g : values =
  { freq_hz = p.freq_hz;
    freq_error_hz = Param.sample p.freq_error_hz g;
    phase_noise_deg_rms = Param.sample p.phase_noise_deg_rms g;
    drive_dbm = p.drive_dbm }

let actual_freq_hz (v : values) = v.freq_hz +. v.freq_error_hz

(* Ornstein–Uhlenbeck: wander' = rho wander + sigma sqrt(1-rho^2) xi, which
   is stationary with RMS sigma; rho sets the skirt bandwidth. *)
let create ctx (v : values) ~rng =
  { step_rad = Units.two_pi *. actual_freq_hz v /. ctx.Context.sim_rate_hz;
    sigma_rad = Units.radians_of_degrees v.phase_noise_deg_rms;
    rho = 0.999;
    rng;
    phase = 0.0;
    wander = 0.0 }

(* The block kernel: fill [out] with the next samples.  Phase and wander
   live in locals for the block (stores to the mixed record would box)
   and are written back at the end. *)
let run o out =
  let phase = ref o.phase and wander = ref o.wander in
  for i = 0 to Array.length out - 1 do
    Array.unsafe_set out i (cos (!phase +. !wander));
    phase := Float.rem (!phase +. o.step_rad) Units.two_pi;
    wander :=
      (o.rho *. !wander)
      +. (o.sigma_rad *. sqrt (1.0 -. (o.rho *. o.rho)) *. Prng.gaussian o.rng)
  done;
  o.phase <- !phase;
  o.wander <- !wander

let next o =
  let out = [| 0.0 |] in
  run o out;
  out.(0)

let freq_interval_hz (p : params) =
  I.add (I.point p.freq_hz) (Param.interval p.freq_error_hz)
