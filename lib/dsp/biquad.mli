(** Second-order IIR (biquad) sections.

    Used as the continuous-time-equivalent model of the analog low-pass
    filter: a Butterworth prototype mapped through the bilinear transform at
    the waveform-simulation rate.  Cascading two sections yields the 4th-
    order channel-select response of the experimental path. *)

type coeffs = { b0 : float; b1 : float; b2 : float; a1 : float; a2 : float }
(** Direct-form-I coefficients with [a0] normalised to 1. *)

type state
(** Per-instance delay-line state. *)

val butterworth_lowpass : sample_rate:float -> cutoff:float -> coeffs
(** 2nd-order Butterworth low-pass via bilinear transform with frequency
    pre-warping.  Requires [0 < cutoff < sample_rate / 2]. *)

val create : coeffs -> state
val reset : state -> unit
val run : state -> float array -> unit
(** The block kernel: filter the array in place (state carries across
    calls). *)

val process_sample : state -> float -> float
(** {!run} over one sample. *)

val process : state -> float array -> float array
(** {!run} over a copy of the input. *)

val magnitude_db : coeffs -> sample_rate:float -> freq:float -> float
(** Magnitude response at [freq] Hz. *)

val cascade_magnitude_db : coeffs list -> sample_rate:float -> freq:float -> float
