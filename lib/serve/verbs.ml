(* Shared bodies of the compute verbs: one implementation each, used by
   both the msoc CLI subcommands and the daemon executor.  The rendered
   text is identical byte for byte in both front ends (CI diffs them),
   and the [serve.execute] / [serve.serialize] span split is attributed
   the same way whether a request came over the socket or argv. *)

module Pool = Msoc_util.Pool
module Prng = Msoc_util.Prng
module Texttable = Msoc_util.Texttable
module Param = Msoc_analog.Param
module Obs = Msoc_obs.Obs
module Path = Msoc_analog.Path
module Topology = Msoc_analog.Topology
module Monte_carlo = Msoc_stat.Monte_carlo
module Soc = Msoc_soc.Soc
module Schedule = Msoc_soc.Schedule
open Msoc_synth

let strategy_of (req : Protocol.request) =
  match req.strategy with
  | "nominal" -> Propagate.Nominal_gains
  | "adaptive" -> Propagate.Adaptive
  | s -> failwith (Printf.sprintf "unknown strategy %S (nominal|adaptive)" s)

let topology_path (req : Protocol.request) =
  match Topology.build req.topology with
  | Some p -> p
  | None ->
    failwith
      (Printf.sprintf "unknown topology %S (known: %s)" req.topology
         (String.concat ", " Topology.names))

let soc_of (req : Protocol.request) =
  match Soc.find req.soc with
  | Some soc -> soc
  | None ->
    failwith
      (Printf.sprintf "unknown SOC %S (known: %s)" req.soc
         (String.concat ", " Soc.names))

let plan ~pool:_ (req : Protocol.request) =
  let path = topology_path req in
  let strategy = strategy_of req in
  let plan = Obs.span "serve.execute" (fun () -> Plan.synthesize ~strategy path) in
  Obs.span "serve.serialize" (fun () -> Format.asprintf "%a@." Plan.pp_summary plan)

let measure ~pool:_ (req : Protocol.request) =
  let path = topology_path req in
  let strategy = strategy_of req in
  let validations =
    Obs.span "serve.execute" (fun () ->
        let part =
          if req.seed = 0 then Path.nominal_part path
          else Path.sample_part path (Prng.create req.seed)
        in
        Measure.validate_part path part ~strategy)
  in
  Obs.span "serve.serialize" (fun () ->
      let tbl =
        Texttable.create
          ~headers:[ "Parameter"; "True"; "Measured"; "Error"; "Budget" ]
      in
      List.iter
        (fun v ->
          Texttable.add_row tbl
            [ v.Measure.parameter;
              Printf.sprintf "%.5g" v.Measure.true_value;
              Printf.sprintf "%.5g" v.Measure.measured;
              Printf.sprintf "%+.3g" v.Measure.error;
              Printf.sprintf "±%.3g" v.Measure.budget ])
        validations;
      Printf.sprintf "part: %s (seed %d)\n\n"
        (if req.seed = 0 then "nominal" else "sampled within tolerances")
        req.seed
      ^ Texttable.render tbl)

(* The faultsim parameters the pipeline can run, checked up front so a bad
   request fails with the field's name rather than an assertion deep in
   the filter design or the fault simulator. *)
let faultsim_config (req : Protocol.request) =
  let reject fmt = Printf.ksprintf failwith ("faultsim: " ^^ fmt) in
  if req.tones <> 1 && req.tones <> 2 then reject "tones must be 1 or 2 (got %d)" req.tones;
  if req.samples < 64 then reject "samples must be at least 64 (got %d)" req.samples;
  if req.taps < 1 then reject "taps must be at least 1 (got %d)" req.taps;
  if req.input_bits < 2 then reject "input_bits must be at least 2 (got %d)" req.input_bits;
  if req.coeff_bits < 2 || req.coeff_bits > 30 then
    reject "coeff_bits must be between 2 and 30 (got %d)" req.coeff_bits;
  let config =
    { Digital_test.default_config with
      Digital_test.taps = req.taps;
      input_bits = req.input_bits;
      coeff_bits = req.coeff_bits }
  in
  (* a stream sample is the output bus read as a signed native int *)
  let width = Digital_test.output_width config in
  if width > Sys.int_size - 1 then
    reject
      "input_bits %d gives a %d-bit output bus (taps %d, coeff_bits %d); it must fit the \
       %d-bit lane word, at most %d bits"
      req.input_bits width req.taps req.coeff_bits Sys.int_size (Sys.int_size - 1);
  config

let faultsim ~pool (req : Protocol.request) =
  let config = faultsim_config req in
  let fir, faults, det =
    Obs.span "serve.execute" (fun () ->
        let fir = Digital_test.build config in
        let faults = Digital_test.collapsed_faults fir in
        let fs = 1e6 in
        let f1 =
          Digital_test.coherent_tone ~sample_rate:fs ~samples:req.samples ~target:90e3
        in
        let freqs =
          if req.tones = 1 then [ f1 ]
          else
            [ f1;
              Digital_test.coherent_tone ~sample_rate:fs ~samples:req.samples
                ~target:110e3 ]
        in
        let amplitude_fs = 0.9 /. float_of_int req.tones in
        (* seed 0 keeps the historical zero-phase stimulus; any other seed
           draws reproducible random tone phases *)
        let rng = if req.seed = 0 then None else Some (Prng.create req.seed) in
        let codes =
          Digital_test.ideal_codes ?rng config ~sample_rate:fs ~samples:req.samples
            ~freqs ~amplitude_fs
        in
        let det =
          Digital_test.spectral_coverage ~pool config fir ~sample_rate:fs
            ~input_codes:codes ~reference_codes:codes ~tone_freqs:freqs ~faults
        in
        (fir, faults, det))
  in
  Obs.span "serve.serialize" (fun () ->
      Format.asprintf "filter: %a@.faults: %d@.coverage: %.2f%% (%d/%d), floor %.1f dB@."
        Msoc_netlist.Netlist.pp_stats fir.Msoc_netlist.Fir_netlist.circuit
        (Array.length faults)
        (100.0 *. det.Digital_test.coverage)
        det.Digital_test.detected det.Digital_test.total det.Digital_test.noise_floor_db)

(* The Figure 4 error model: sample a part within its tolerances,
   de-embed the mixer IIP3 from the cascade observable with the chosen
   strategy, compare against the sampled truth.  Trials run on the
   domain pool with one pre-split generator stream per trial, so the
   distribution is bit-identical at every pool size.  Seed 0 (the shared
   request default) means the canonical study seed, like seed 0 means
   the nominal part elsewhere. *)
let montecarlo_canonical_seed = 31415

let montecarlo ~pool (req : Protocol.request) =
  if req.trials < 2 then failwith "montecarlo: trials must be at least 2";
  let strategy = strategy_of req in
  let seed = if req.seed = 0 then montecarlo_canonical_seed else req.seed in
  let path = Path.default_receiver () in
  let param name1 name2 = Path.param path ~stage:name1 ~name:name2 in
  let iip3 = param "Mixer" "iip3_dbm" in
  let amp_gain = param "Amp" "gain_db" in
  let mixer_gain = param "Mixer" "gain_db" in
  let lpf_gain = param "LPF" "gain_db" in
  let m = Propagate.mixer_iip3 path ~strategy in
  let errs =
    Obs.span "serve.execute" (fun () ->
        Monte_carlo.sample_array_pooled ~pool ~trials:req.trials ~rng:(Prng.create seed)
          ~f:(fun g _ ->
            let actual_amp = Param.sample amp_gain g in
            let actual_mixer = Param.sample mixer_gain g in
            let actual_lpf = Param.sample lpf_gain g in
            let true_iip3 = Param.sample iip3 g in
            let observable = true_iip3 +. actual_mixer +. actual_lpf in
            let estimate =
              match strategy with
              | Propagate.Nominal_gains ->
                observable -. mixer_gain.Param.nominal -. lpf_gain.Param.nominal
              | Propagate.Adaptive ->
                (* path gain measured exactly; G_amp assumed nominal — only
                   the amp's tolerance survives in the error *)
                let path_gain = actual_amp +. actual_mixer +. actual_lpf in
                observable -. path_gain +. amp_gain.Param.nominal
            in
            estimate -. true_iip3)
          ())
  in
  Obs.span "serve.serialize" (fun () ->
      let rms = Msoc_stat.Describe.rms errs in
      let worst = Msoc_util.Floatx.max_abs errs in
      let t =
        Texttable.create ~headers:[ "Strategy"; "Budget (worst)"; "RMS err"; "Max err" ]
      in
      Texttable.add_row t
        [ Propagate.strategy_name strategy;
          Printf.sprintf "%.3f dB" (Propagate.err m);
          Printf.sprintf "%.3f dB" rms;
          Printf.sprintf "%.3f dB" worst ];
      Printf.sprintf "IIP3 de-embedding error, %d trials (seed %d):\n" req.trials seed
      ^ Texttable.render t)

let schedule ~pool (req : Protocol.request) =
  let soc = soc_of req in
  (* seed 0 (the shared request default) means the canonical annealing
     seed, like seed 0 means the nominal part elsewhere *)
  let seed = if req.seed = 0 then None else Some req.seed in
  let problem, greedy, annealed =
    Obs.span "serve.execute" (fun () ->
        let problem = Schedule.problem_of_soc soc in
        let greedy = Schedule.greedy problem in
        let annealed =
          Schedule.anneal ~restarts:req.restarts ~iters:req.iters ?seed ~pool problem
        in
        (problem, greedy, annealed))
  in
  Obs.span "serve.serialize" (fun () ->
      Schedule.render problem ~greedy ~annealed ^ "\n" ^ Schedule.breakdown problem)

(* The dispatch table: a verb is registered here once and both front ends
   pick it up.  Metrics/Ping/Sleep are not compute verbs — they read
   daemon state and stay in the server. *)
let handlers =
  [ (Protocol.Plan, plan);
    (Protocol.Measure, measure);
    (Protocol.Faultsim, faultsim);
    (Protocol.Montecarlo, montecarlo);
    (Protocol.Schedule, schedule) ]

let find verb = List.assoc_opt verb handlers

let run ~pool (req : Protocol.request) =
  match find req.verb with
  | Some handler -> handler ~pool req
  | None ->
    invalid_arg
      (Printf.sprintf "Verbs.run: %S is not a compute verb"
         (Protocol.verb_name req.verb))
