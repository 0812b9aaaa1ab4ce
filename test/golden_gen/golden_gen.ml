(* Regenerates every pinned fixture under test/golden/.  Usage:

     dune exec test/golden_gen/golden_gen.exe -- test/golden

   Each capture is fully deterministic: nominal part, fixed engine and
   annealing seeds, coherent stimulus at the standard test level, and the
   canonical schedule parameters (8 restarts, 400 iterations), and the
   verb bodies of the sweep shapes (faultsim, measure, montecarlo and the
   narrow SOC's schedule) — the same strings the golden tests rebuild and
   compare byte-for-byte. *)
module Path = Msoc_analog.Path
module Context = Msoc_analog.Context
module Tone = Msoc_dsp.Tone
module Units = Msoc_util.Units
module Prng = Msoc_util.Prng
module Audit = Msoc_obs.Audit
module Soc = Msoc_soc.Soc
module Schedule = Msoc_soc.Schedule
open Msoc_synth

let write dir name contents =
  let oc = open_out_bin (Filename.concat dir name) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents);
  Printf.printf "wrote %s (%d bytes)\n" name (String.length contents)

let with_audit f =
  Audit.enable ();
  Audit.reset ();
  Fun.protect
    ~finally:(fun () ->
      Audit.disable ();
      Audit.reset ())
    (fun () ->
      f ();
      Audit.to_json () ^ "\n")

let plan_text strategy =
  Format.asprintf "%a@." Plan.pp_summary
    (Plan.synthesize ~strategy (Path.default_receiver ()))

let tester_codes path =
  let fs = path.Path.ctx.Context.sim_rate_hz in
  let decim = Path.decimation path in
  let adc_rate = Path.adc_rate_hz path in
  let n_adc = 512 in
  let n_sim = n_adc * decim in
  let f1 = Tone.coherent_frequency ~sample_rate:adc_rate ~samples:n_adc ~target:90e3 in
  let f2 = Tone.coherent_frequency ~sample_rate:adc_rate ~samples:n_adc ~target:110e3 in
  let input =
    Tone.synthesize ~sample_rate:fs ~samples:n_sim
      [ Tone.component ~freq:(1e6 +. f1)
          ~amplitude:(Units.vpeak_of_dbm Propagate.standard_test_level_dbm) ();
        Tone.component ~freq:(1e6 +. f2)
          ~amplitude:(Units.vpeak_of_dbm Propagate.standard_test_level_dbm) () ]
  in
  let buffer = Buffer.create (1024 * 16) in
  (* nominal part, then a Monte-Carlo sampled part: both deterministic *)
  let emit label part =
    let engine = Path.engine path part ~seed:42 in
    let codes = Path.run_codes engine input in
    Array.iteri
      (fun i c -> Buffer.add_string buffer (Printf.sprintf "%s %d %d\n" label i c))
      codes
  in
  emit "nominal" (Path.nominal_part path);
  emit "sampled" (Path.sample_part path (Prng.create 7));
  Buffer.contents buffer

(* The faultsim bodies pinned by test_golden: every sweep shape (taps
   5/9/13 x samples 256/512) at seed 11 with one and two tones, plus the
   default request.  Bodies are identical at every pool size. *)
module Protocol = Msoc_serve.Protocol
module Topology = Msoc_analog.Topology

let faultsim_fixtures =
  ("faultsim_default.txt", Protocol.request Protocol.Faultsim)
  :: List.concat_map
       (fun taps ->
         List.concat_map
           (fun samples ->
             List.map
               (fun tones ->
                 ( Printf.sprintf "faultsim_t%d_s%d_k%d.txt" taps samples tones,
                   Protocol.request ~taps ~samples ~tones ~seed:11 Protocol.Faultsim ))
               [ 1; 2 ])
           [ 256; 512 ])
       [ 5; 9; 13 ]

(* The measure, montecarlo and schedule bodies pinned by test_golden:
   measure for every sweep shape (3 topologies x 2 strategies) on the
   nominal part (seed 0) and a sampled one (seed 7), montecarlo at 20000
   trials for both strategies at the canonical seed and seed 3, and the
   narrow SOC's schedule at annealing seed 7. *)
let engine_fixtures =
  List.concat_map
    (fun topology ->
      List.concat_map
        (fun strategy ->
          List.map
            (fun seed ->
              ( Printf.sprintf "measure_%s_%s_s%d.txt" topology strategy seed,
                Protocol.request ~topology ~strategy ~seed Protocol.Measure ))
            [ 0; 7 ])
        [ "nominal"; "adaptive" ])
    [ "default"; "sigma-delta"; "amp-bypass" ]
  @ List.concat_map
      (fun strategy ->
        List.map
          (fun seed ->
            ( Printf.sprintf "montecarlo_%s_s%d.txt" strategy seed,
              Protocol.request ~strategy ~trials:20_000 ~seed Protocol.Montecarlo ))
          [ 0; 3 ])
      [ "nominal"; "adaptive" ]
  @ [ ("schedule_narrow_s7.txt", Protocol.request ~soc:"narrow" ~seed:7 Protocol.Schedule) ]

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  write dir "plan_adaptive.txt" (plan_text Propagate.Adaptive);
  write dir "plan_nominal.txt" (plan_text Propagate.Nominal_gains);
  write dir "audit_adaptive.json"
    (with_audit (fun () ->
         ignore
           (Plan.synthesize ~strategy:Propagate.Adaptive (Path.default_receiver ()))));
  write dir "tester_codes.txt" (tester_codes (Path.default_receiver ()));
  List.iter
    (fun topology ->
      write dir
        (Printf.sprintf "tester_codes_%s.txt" topology)
        (tester_codes (Option.get (Topology.build topology))))
    [ "sigma-delta"; "amp-bypass" ];
  (* reference-SOC schedule fixtures, at the canonical annealing defaults *)
  let problem = ref None in
  let soc_audit =
    with_audit (fun () ->
        problem := Some (Schedule.problem_of_soc (Soc.reference ())))
  in
  let problem = Option.get !problem in
  let greedy = Schedule.greedy problem in
  let annealed = Schedule.anneal problem in
  write dir "soc_schedule.txt" (Schedule.render problem ~greedy ~annealed);
  write dir "soc_breakdown.txt" (Schedule.breakdown problem);
  write dir "soc_audit.json" soc_audit;
  let pool = Msoc_util.Pool.get_default () in
  List.iter
    (fun (name, req) -> write dir name (Msoc_serve.Verbs.run ~pool req))
    (faultsim_fixtures @ engine_fixtures)
