let two_pi = Msoc_util.Units.two_pi

type component = { freq : float; amplitude : float; phase : float }

let component ?(phase = 0.0) ~freq ~amplitude () = { freq; amplitude; phase }

let coherent_frequency ~sample_rate ~samples ~target =
  assert (target > 0.0 && target < sample_rate /. 2.0);
  let cycles = target *. float_of_int samples /. sample_rate in
  let k = int_of_float (Float.round cycles) in
  let k = if k mod 2 = 0 then (if cycles > float_of_int k then k + 1 else max 1 (k - 1)) else k in
  let k = max 1 (min k ((samples / 2) - 1)) in
  float_of_int k *. sample_rate /. float_of_int samples

(* One point of the waveform: the components summed in list order from
   0.0.  Inlined into [synthesize_into], where the accumulator and the
   point stay unboxed; the virtual tester's golden fixtures pin this
   arithmetic bit for bit. *)
let[@inline] sample ~sample_rate ~t components =
  let time = float_of_int t /. sample_rate in
  let acc = ref 0.0 and rest = ref components and more = ref true in
  while !more do
    match !rest with
    | { freq; amplitude; phase } :: tail ->
      acc := !acc +. (amplitude *. sin ((two_pi *. freq *. time) +. phase));
      rest := tail
    | [] -> more := false
  done;
  !acc

let synthesize_into ~sample_rate components out =
  for t = 0 to Array.length out - 1 do
    Array.unsafe_set out t (sample ~sample_rate ~t components)
  done

let synthesize ~sample_rate ~samples components =
  let out = Array.make samples 0.0 in
  synthesize_into ~sample_rate components out;
  out

let two_tone ~sample_rate ~samples ~f1 ~f2 ~amplitude =
  synthesize ~sample_rate ~samples
    [ component ~freq:f1 ~amplitude (); component ~freq:f2 ~amplitude () ]

let fit signal ~sample_rate ~freq =
  let n = Array.length signal in
  assert (n > 0);
  let in_phase = ref 0.0 and quadrature = ref 0.0 in
  Array.iteri
    (fun t x ->
      let angle = two_pi *. freq *. float_of_int t /. sample_rate in
      in_phase := !in_phase +. (x *. sin angle);
      quadrature := !quadrature +. (x *. cos angle))
    signal;
  let scale = 2.0 /. float_of_int n in
  let s = scale *. !in_phase and c = scale *. !quadrature in
  (* x(t) ~ a sin(wt + p) = a sin wt cos p + a cos wt sin p *)
  { freq; amplitude = Float.hypot s c; phase = Float.atan2 c s }

let crest_factor signal =
  let rms = ref 0.0 and peak = ref 0.0 in
  Array.iter
    (fun x ->
      rms := !rms +. (x *. x);
      if Float.abs x > !peak then peak := Float.abs x)
    signal;
  let n = Array.length signal in
  assert (n > 0);
  let rms = sqrt (!rms /. float_of_int n) in
  assert (rms > 0.0);
  !peak /. rms
