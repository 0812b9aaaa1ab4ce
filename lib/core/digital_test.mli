(** Mixed-signal test of the digital filter (paper §3 and §5).

    The filter is exercised by 1- or 2-tone sine stimuli (propagated through
    the analog path or applied ideally), and a structural stuck-at fault is
    declared detected when the faulty output {e spectrum} departs from the
    golden spectrum by more than a tolerance, over the frequencies where the
    input uncertainty is uniform — i.e. away from the stimulus tones, whose
    neighbourhood the paper excludes because the analog tolerances make the
    levels there indeterminate.

    The detection threshold is derived from the estimated noise at the
    filter input ("the level of total noise at the inputs of the digital
    filter is estimated through spectral analysis of the input patterns"):
    both spectra are floored at [noise floor + uncertainty margin] and
    compared bin-wise in dB. *)

module Fir = Msoc_dsp.Fir
module Fir_netlist = Msoc_netlist.Fir_netlist
module Fault = Msoc_netlist.Fault
module Spectrum = Msoc_dsp.Spectrum
module Window = Msoc_dsp.Window

type config = {
  taps : int;
  coeff_bits : int;
  input_bits : int;
  cutoff : float;              (** Normalised to the filter sample rate. *)
  window : Window.kind;
  tolerance_db : float;        (** Bin-difference threshold. *)
  uncertainty_margin_db : float; (** Added to the noise floor before
                                     clamping. *)
  exclude_half_width : int;    (** Bins excluded around each stimulus tone. *)
}

val default_config : config
(** 13 taps, 8-bit coefficients, 12-bit input, cut-off 0.12, Hann window,
    6 dB tolerance, 8 dB margin, ±3 bins excluded. *)

val build : config -> Fir_netlist.t
(** Synthesise the gate-level filter from a windowed-sinc design. *)

val output_width : config -> int
(** Width of the output bus {!build} would synthesise, without building
    it. *)

val collapsed_faults : Fir_netlist.t -> Fault.t array

val activated :
  ?pool:Msoc_util.Pool.t ->
  Fir_netlist.t -> codes:int array -> faults:Fault.t array -> bool array
(** Time-domain activation sweep: which faults perturb the filter output in
    at least one cycle under the given stimulus codes.  Thin wrapper over
    [Fault_sim.detect_exact] (cone-reduced, fault-dropping engine);
    bit-identical for every pool size. *)

val activation_prefix :
  ?pool:Msoc_util.Pool.t ->
  Fir_netlist.t -> codes:int array -> faults:Fault.t array -> int
(** Number of leading stimulus codes that carry all the activations of
    [activated]: truncating the sweep there activates exactly the same
    fault set (pattern compaction for repeated screening runs). *)

val coherent_tone :
  sample_rate:float -> samples:int -> target:float -> float
(** Re-export of {!Msoc_dsp.Tone.coherent_frequency}. *)

val ideal_codes :
  ?rng:Msoc_util.Prng.t -> config -> sample_rate:float -> samples:int ->
  freqs:float list -> amplitude_fs:float -> int array
(** Quantized multi-tone stimulus applied directly to the filter input
    (the "exact inputs known" scenario); [amplitude_fs] is the per-tone
    amplitude as a fraction of the input full scale.  With [rng], each
    tone gets a seeded random starting phase (reproducible stimulus
    variation); without, phases are zero as before. *)

val output_spectrum :
  config -> Fir_netlist.t -> sample_rate:float -> int array -> Spectrum.t
(** Spectrum of an integer output stream, rescaled to input units. *)

type detection = {
  total : int;
  detected : int;
  coverage : float;
  undetected : Fault.t array;
  undetected_max_dev_lsb : float array;
  (** Per undetected fault: largest output deviation, in input-referred
      LSBs — the paper's check that escapes "account for a perturbation of
      less than 1% at the output". *)
  noise_floor_db : float;      (** Worst-case (pass-band) comparison floor of
                                   the frequency-dependent tolerance profile. *)
}

val spectral_coverage :
  ?pool:Msoc_util.Pool.t ->
  config ->
  Fir_netlist.t ->
  sample_rate:float ->
  input_codes:int array ->
  reference_codes:int array ->
  tone_freqs:float list ->
  faults:Fault.t array ->
  detection
(** Fault-simulate every fault under [input_codes]; the golden spectrum
    comes from [reference_codes] through the behavioural model (the paper
    uses an ideal stimulus for the good-circuit simulation and the
    realistic analog model for the faulty ones).  With [pool], fault
    batches are simulated across domains and each batch's streams are
    judged by the worker that captured them, so no per-fault stream array
    is ever held; the detection record is identical for every pool size.
    A verdict is a pure function of the stream, so the fault-free stream is
    judged once per call and identical streams once per batch. *)

val false_alarm :
  config ->
  Fir_netlist.t ->
  sample_rate:float ->
  input_codes:int array ->
  reference_codes:int array ->
  tone_freqs:float list ->
  verification_codes:int array ->
  bool
(** Would a {e fault-free} part be flagged?  [verification_codes] is a
    second capture of the same stimulus (fresh noise realisation) pushed
    through the good circuit and compared exactly as a faulty machine
    would be.  Used to calibrate the uncertainty margin: the margin must
    keep this [false] while staying tight enough to catch real faults. *)

val second_pass :
  ?pool:Msoc_util.Pool.t ->
  config ->
  Fir_netlist.t ->
  sample_rate:float ->
  input_codes:int array ->
  reference_codes:int array ->
  tone_freqs:float list ->
  previous:detection ->
  detection
(** Re-simulate only the faults the previous run missed, with the (longer)
    stimulus supplied — the paper's 8192-pattern second pass; returns the
    merged detection figures over the original fault universe. *)
