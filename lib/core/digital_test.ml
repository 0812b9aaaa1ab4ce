module Fir = Msoc_dsp.Fir
module Fir_netlist = Msoc_netlist.Fir_netlist
module Fault = Msoc_netlist.Fault
module Fault_sim = Msoc_netlist.Fault_sim
module Spectrum = Msoc_dsp.Spectrum
module Window = Msoc_dsp.Window
module Tone = Msoc_dsp.Tone
module Progress = Msoc_obs.Progress

(* Heartbeat cells for the spectral judging phase (one add per verdict —
   a verdict is a full windowed FFT, so the cadence is coarse). *)
let prog_judged = Progress.cell "coverage.judged"
let prog_judged_total = Progress.cell "coverage.judged_total"
let prog_hits = Progress.cell "coverage.detected"

type config = {
  taps : int;
  coeff_bits : int;
  input_bits : int;
  cutoff : float;
  window : Window.kind;
  tolerance_db : float;
  uncertainty_margin_db : float;
  exclude_half_width : int;
}

let default_config =
  { taps = 13;
    coeff_bits = 8;
    input_bits = 12;
    cutoff = 0.12;
    window = Window.Hann;
    tolerance_db = 6.0;
    uncertainty_margin_db = 8.0;
    exclude_half_width = 3 }

let coefficient_codes config =
  let design = Fir.lowpass ~taps:config.taps ~cutoff:config.cutoff () in
  Fir.quantize design.Fir.taps ~bits:config.coeff_bits

let build config =
  let codes, scale = coefficient_codes config in
  Fir_netlist.create ~coeffs:codes ~width_in:config.input_bits ~scale ()

let output_width config =
  Fir_netlist.output_width ~coeffs:(fst (coefficient_codes config))
    ~width_in:config.input_bits

let collapsed_faults fir =
  let circuit = fir.Fir_netlist.circuit in
  Fault.collapse circuit (Fault.universe circuit)

let activated ?pool fir ~codes ~faults =
  let drive sim cycle = Fir_netlist.drive fir sim codes.(cycle) in
  Fault_sim.detect_exact ?pool fir.Fir_netlist.circuit ~output:Fir_netlist.output_bus_name
    ~drive ~samples:(Array.length codes) ~faults

let activation_prefix ?pool fir ~codes ~faults =
  let drive sim cycle = Fir_netlist.drive fir sim codes.(cycle) in
  let cycles =
    Fault_sim.detect_cycles ?pool fir.Fir_netlist.circuit
      ~output:Fir_netlist.output_bus_name ~drive ~samples:(Array.length codes) ~faults
  in
  1 + Array.fold_left max (-1) cycles

let coherent_tone ~sample_rate ~samples ~target =
  Tone.coherent_frequency ~sample_rate ~samples ~target

let ideal_codes ?rng config ~sample_rate ~samples ~freqs ~amplitude_fs =
  let half_range = float_of_int (1 lsl (config.input_bits - 1)) -. 1.0 in
  let amplitude = amplitude_fs *. half_range in
  let components =
    List.map
      (fun freq ->
        match rng with
        | None -> Tone.component ~freq ~amplitude ()
        | Some rng ->
          (* randomised (but seeded) starting phases: distinct stimuli per
             seed while the tone set and coherence stay unchanged *)
          let phase = Msoc_util.Prng.uniform rng ~lo:0.0 ~hi:Msoc_util.Units.two_pi in
          Tone.component ~phase ~freq ~amplitude ())
      freqs
  in
  let wave = Tone.synthesize ~sample_rate ~samples components in
  Array.map
    (fun v ->
      let code = int_of_float (Float.round v) in
      let lo = -(1 lsl (config.input_bits - 1)) and hi = (1 lsl (config.input_bits - 1)) - 1 in
      if code < lo then lo else if code > hi then hi else code)
    wave

let output_to_input_units fir stream =
  (* Undo the coefficient scale so a unity-DC-gain filter output is in
     input-code units; keeps spectra comparable across coefficient widths. *)
  let scale = fir.Fir_netlist.scale in
  Array.map (fun y -> float_of_int y *. scale) stream

let output_spectrum config fir ~sample_rate stream =
  Spectrum.analyze ~window:config.window ~sample_rate (output_to_input_units fir stream)

type detection = {
  total : int;
  detected : int;
  coverage : float;
  undetected : Fault.t array;
  undetected_max_dev_lsb : float array;
  noise_floor_db : float;
}

let excluded_bins config spectrum ~tone_freqs =
  let table = Hashtbl.create 32 in
  Hashtbl.replace table 0 ();
  List.iter
    (fun freq ->
      let center = Spectrum.bin_of_frequency spectrum freq in
      for k = max 0 (center - config.exclude_half_width)
          to min (Spectrum.bin_count spectrum - 1) (center + config.exclude_half_width) do
        Hashtbl.replace table k ()
      done)
    tone_freqs;
  table

(* Bin-wise comparison with both spectra clamped at a per-bin floor: the
   comparison tolerance is not flat because the filter shapes the input
   noise — pass-band bins carry the full input noise while stop-band bins
   are quiet.  [floor_db] maps a bin index to the clamping level. *)
let spectra_differ config ~floor_db ~excluded reference candidate =
  let nbins = Spectrum.bin_count reference in
  let rec scan k =
    if k >= nbins then false
    else if Hashtbl.mem excluded k then scan (k + 1)
    else begin
      let floor = floor_db k in
      let a = Float.max (Spectrum.power_db reference k) floor in
      let b = Float.max (Spectrum.power_db candidate k) floor in
      if Float.abs (a -. b) > config.tolerance_db then true else scan (k + 1)
    end
  in
  scan 1

(* The estimated per-bin uncertainty: the noise level by which the actual
   stimulus departs from the reference one (§4.1 — "the level of total
   noise at the inputs of the digital filter is estimated through spectral
   analysis of the input patterns"), shaped by the filter's magnitude
   response since pass-band noise survives while stop-band noise does not.
   A numerical floor 140 dB under the carrier guards against comparing
   FFT round-off. *)
let noise_profile config fir ~sample_rate ~excluded ~input_codes ~reference_codes ~golden =
  assert (Array.length input_codes = Array.length reference_codes);
  let difference =
    Array.init (Array.length input_codes) (fun i ->
        float_of_int (input_codes.(i) - reference_codes.(i)))
  in
  let nbins = Spectrum.bin_count golden in
  (* Per-bin estimate of the input-referred uncertainty: the analog noise
     is coloured (the channel filter shapes it before the ADC), so a local
     sliding-window median of the difference spectrum is taken instead of
     one global floor.  Excluded (tone/spur) bins do not contaminate it. *)
  let input_noise_db =
    if Array.for_all (fun d -> d = 0.0) difference then Array.make nbins (-400.0)
    else begin
      let sp = Spectrum.analyze ~window:config.window ~sample_rate difference in
      let half_window = 16 in
      Array.init nbins (fun k ->
          let lo = max 1 (k - half_window) and hi = min (nbins - 1) (k + half_window) in
          let kept = ref [] in
          for j = lo to hi do
            if not (Hashtbl.mem excluded j) then kept := sp.Spectrum.bins.(j) :: !kept
          done;
          match !kept with
          | [] -> -400.0
          | values ->
            let sorted = List.sort compare values in
            let median = List.nth sorted (List.length sorted / 2) in
            if median <= 1e-40 then -400.0 else 10.0 *. Float.log10 median)
    end
  in
  let peak_db = Spectrum.power_db golden (Spectrum.peak_bin golden ()) in
  let numerical_floor = peak_db -. 140.0 in
  let coeffs =
    Array.map (fun c -> float_of_int c *. fir.Fir_netlist.scale) fir.Fir_netlist.coeffs
  in
  let profile =
    Array.init nbins (fun k ->
        let freq_norm = float_of_int k /. float_of_int golden.Spectrum.length in
        let shaped_noise = input_noise_db.(k) +. Fir.magnitude_db coeffs ~freq:freq_norm in
        Float.max shaped_noise numerical_floor +. config.uncertainty_margin_db)
  in
  fun k -> profile.(k)

let max_deviation good faulty =
  let dev = ref 0 in
  Array.iteri
    (fun i g ->
      let d = abs (faulty.(i) - g) in
      if d > !dev then dev := d)
    good;
  !dev

(* Order-sensitive hash of a whole stream, for grouping identical streams. *)
let stream_hash stream = Array.fold_left (fun h v -> (h * 31) + v) 17 stream

let spectral_coverage ?pool config fir ~sample_rate ~input_codes ~reference_codes ~tone_freqs
    ~faults =
  let samples = Array.length input_codes in
  assert (samples >= 64);
  (* Golden spectrum: ideal stimulus through the exact behavioural model. *)
  let golden_stream = Fir_netlist.response fir reference_codes in
  let golden = output_spectrum config fir ~sample_rate golden_stream in
  (* Noise estimate per §4.1: spectral analysis of the input patterns,
     propagated through the filter's known magnitude response. *)
  let good_actual_stream = Fir_netlist.response fir input_codes in
  let excluded = excluded_bins config golden ~tone_freqs in
  let floor_db =
    noise_profile config fir ~sample_rate ~excluded ~input_codes ~reference_codes ~golden
  in
  let nf = Array.length faults in
  Progress.set prog_judged_total (float_of_int nf);
  (* A verdict is a pure function of the stream, so each distinct stream
     is judged once: the fault-free stream once per call (every fault that
     never disturbs the output shares it), and identical streams within a
     batch once per batch. *)
  let judge stream =
    let spectrum = output_spectrum config fir ~sample_rate stream in
    if spectra_differ config ~floor_db ~excluded golden spectrum then (true, 0.0)
    else begin
      let dev = max_deviation good_actual_stream stream in
      (false, float_of_int dev *. fir.Fir_netlist.scale)
    end
  in
  let good_verdict = judge good_actual_stream in
  let detected_flags = Array.make nf false and devs = Array.make nf 0.0 in
  let judged = Array.make nf false in
  (* written by fault index, so batches judged on different domains never
     contend; heartbeat cells are atomic *)
  let record i (hit, dev) =
    detected_flags.(i) <- hit;
    devs.(i) <- dev;
    judged.(i) <- true;
    Progress.add prog_judged 1.0;
    if hit then Progress.add prog_hits 1.0
  in
  let on_batch idx streams =
    let seen = Hashtbl.create (Array.length idx) in
    Array.iteri
      (fun lane i ->
        let stream = streams.(lane) in
        let verdict =
          if stream = good_actual_stream then good_verdict
          else begin
            let h = stream_hash stream in
            match
              List.find_opt (fun (s, _) -> s = stream) (Hashtbl.find_all seen h)
            with
            | Some (_, v) -> v
            | None ->
              let v = judge stream in
              Hashtbl.add seen h (stream, v);
              v
          end
        in
        record i verdict)
      idx
  in
  let drive sim cycle = Fir_netlist.drive fir sim input_codes.(cycle) in
  let good_stream =
    Fault_sim.run_batches ?pool fir.Fir_netlist.circuit ~output:Fir_netlist.output_bus_name
      ~drive ~samples ~faults ~on_batch
  in
  (* faults outside every batch carry the netlist's fault-free stream *)
  let unsimulated =
    lazy (if good_stream = good_actual_stream then good_verdict else judge good_stream)
  in
  Array.iteri (fun i j -> if not j then record i (Lazy.force unsimulated)) judged;
  let undetected = ref [] and undetected_dev = ref [] in
  for i = nf - 1 downto 0 do
    if not detected_flags.(i) then begin
      undetected := faults.(i) :: !undetected;
      undetected_dev := devs.(i) :: !undetected_dev
    end
  done;
  let detected = Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 detected_flags in
  let reported_floor =
    let worst = ref neg_infinity in
    for k = 1 to Spectrum.bin_count golden - 1 do
      if not (Hashtbl.mem excluded k) then worst := Float.max !worst (floor_db k)
    done;
    !worst
  in
  { total = Array.length faults;
    detected;
    coverage = float_of_int detected /. float_of_int (max 1 (Array.length faults));
    undetected = Array.of_list !undetected;
    undetected_max_dev_lsb = Array.of_list !undetected_dev;
    noise_floor_db = reported_floor }

let false_alarm config fir ~sample_rate ~input_codes ~reference_codes ~tone_freqs
    ~verification_codes =
  let golden_stream = Fir_netlist.response fir reference_codes in
  let golden = output_spectrum config fir ~sample_rate golden_stream in
  let excluded = excluded_bins config golden ~tone_freqs in
  let floor_db =
    noise_profile config fir ~sample_rate ~excluded ~input_codes ~reference_codes ~golden
  in
  let candidate_stream = Fir_netlist.response fir verification_codes in
  let candidate = output_spectrum config fir ~sample_rate candidate_stream in
  spectra_differ config ~floor_db ~excluded golden candidate

let second_pass ?pool config fir ~sample_rate ~input_codes ~reference_codes ~tone_freqs ~previous =
  let rerun =
    spectral_coverage ?pool config fir ~sample_rate ~input_codes ~reference_codes ~tone_freqs
      ~faults:previous.undetected
  in
  let detected = previous.detected + rerun.detected in
  { total = previous.total;
    detected;
    coverage = float_of_int detected /. float_of_int (max 1 previous.total);
    undetected = rerun.undetected;
    undetected_max_dev_lsb = rerun.undetected_max_dev_lsb;
    noise_floor_db = rerun.noise_floor_db }
