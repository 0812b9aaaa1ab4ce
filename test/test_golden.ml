(* Golden-output tests pinning observable behaviour: the default receiver's
   synthesized plan text (both strategies), the adaptive audit trail, the
   virtual tester's ADC codes on every topology, and the reference SOC's
   schedule table, per-core application-time breakdown, and audit JSON at
   the canonical annealing parameters, the faultsim verb bodies of the
   benchmark's sweep shapes plus the default request, and the measure,
   montecarlo and schedule verb bodies of the sweep shapes.  The receiver fixtures under
   golden/ were captured before the stage-graph refactor; byte-identity here is the proof that the
   generic core reproduces the historical five-block receiver exactly.
   Regenerate with: dune exec test/golden_gen/golden_gen.exe -- test/golden *)

module Path = Msoc_analog.Path
module Context = Msoc_analog.Context
module Tone = Msoc_dsp.Tone
module Units = Msoc_util.Units
module Prng = Msoc_util.Prng
module Audit = Msoc_obs.Audit
module Soc = Msoc_soc.Soc
module Schedule = Msoc_soc.Schedule
open Msoc_synth

let read_fixture name =
  let ic = open_in_bin (Filename.concat "golden" name) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_bytes fixture actual =
  let expected = read_fixture fixture in
  if not (String.equal expected actual) then begin
    (* Locate the first differing line for a readable failure message. *)
    let exp_lines = String.split_on_char '\n' expected in
    let act_lines = String.split_on_char '\n' actual in
    let rec first_diff i = function
      | e :: es, a :: as_ ->
        if String.equal e a then first_diff (i + 1) (es, as_)
        else Some (i, e, a)
      | e :: _, [] -> Some (i, e, "<missing>")
      | [], a :: _ -> Some (i, "<missing>", a)
      | [], [] -> None
    in
    (match first_diff 1 (exp_lines, act_lines) with
    | Some (line, e, a) ->
      Alcotest.failf "%s differs at line %d:\n  expected: %s\n  actual:   %s"
        fixture line e a
    | None -> Alcotest.failf "%s differs (same lines, different bytes)" fixture)
  end

let plan_text strategy =
  let path = Path.default_receiver () in
  Format.asprintf "%a@." Plan.pp_summary (Plan.synthesize ~strategy path)

let test_plan_adaptive () = check_bytes "plan_adaptive.txt" (plan_text Propagate.Adaptive)

let test_plan_nominal () =
  check_bytes "plan_nominal.txt" (plan_text Propagate.Nominal_gains)

let test_audit_adaptive () =
  Audit.enable ();
  Audit.reset ();
  let json =
    Fun.protect
      ~finally:(fun () ->
        Audit.disable ();
        Audit.reset ())
      (fun () ->
        ignore (Plan.synthesize ~strategy:Propagate.Adaptive (Path.default_receiver ()));
        Audit.to_json ())
  in
  check_bytes "audit_adaptive.json" (json ^ "\n")

(* Mirrors test/golden_gen/golden_gen.ml — the fixture regenerator. *)
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
  let emit label part =
    let engine = Path.engine path part ~seed:42 in
    let codes = Path.run_codes engine input in
    Array.iteri (fun i c -> Buffer.add_string buffer (Printf.sprintf "%s %d %d\n" label i c)) codes
  in
  emit "nominal" (Path.nominal_part path);
  emit "sampled" (Path.sample_part path (Prng.create 7));
  Buffer.contents buffer

let test_tester_codes () =
  check_bytes "tester_codes.txt" (tester_codes (Path.default_receiver ()))

let tester_codes_case topology =
  Alcotest.test_case (Printf.sprintf "tester codes (%s)" topology) `Quick (fun () ->
      check_bytes
        (Printf.sprintf "tester_codes_%s.txt" topology)
        (tester_codes (Option.get (Msoc_analog.Topology.build topology))))

(* ---- reference SOC: schedule, breakdown, audit ---- *)

let reference_problem = lazy (Schedule.problem_of_soc (Soc.reference ()))

let test_soc_schedule () =
  let problem = Lazy.force reference_problem in
  let greedy = Schedule.greedy problem in
  let annealed = Schedule.anneal problem in
  check_bytes "soc_schedule.txt" (Schedule.render problem ~greedy ~annealed)

let test_soc_breakdown () =
  check_bytes "soc_breakdown.txt" (Schedule.breakdown (Lazy.force reference_problem))

let test_soc_audit () =
  Audit.enable ();
  Audit.reset ();
  let json =
    Fun.protect
      ~finally:(fun () ->
        Audit.disable ();
        Audit.reset ())
      (fun () ->
        ignore (Schedule.problem_of_soc (Soc.reference ()));
        Audit.to_json ())
  in
  check_bytes "soc_audit.json" (json ^ "\n")

(* ---- faultsim verb bodies: mirrors [faultsim_fixtures] in golden_gen ---- *)

module Protocol = Msoc_serve.Protocol

let faultsim_fixtures =
  ("default request", "faultsim_default.txt", Protocol.request Protocol.Faultsim)
  :: List.concat_map
       (fun taps ->
         List.concat_map
           (fun samples ->
             List.map
               (fun tones ->
                 ( Printf.sprintf "taps %d samples %d tones %d" taps samples tones,
                   Printf.sprintf "faultsim_t%d_s%d_k%d.txt" taps samples tones,
                   Protocol.request ~taps ~samples ~tones ~seed:11 Protocol.Faultsim ))
               [ 1; 2 ])
           [ 256; 512 ])
       [ 5; 9; 13 ]

let faultsim_cases =
  List.map
    (fun (name, fixture, req) ->
      Alcotest.test_case name `Quick (fun () ->
          check_bytes fixture (Msoc_serve.Verbs.run ~pool:(Msoc_util.Pool.get_default ()) req)))
    faultsim_fixtures

(* ---- measure, montecarlo and schedule verb bodies: mirrors
   [engine_fixtures] in golden_gen ---- *)

let engine_fixtures =
  List.concat_map
    (fun topology ->
      List.concat_map
        (fun strategy ->
          List.map
            (fun seed ->
              ( Printf.sprintf "measure %s %s seed %d" topology strategy seed,
                Printf.sprintf "measure_%s_%s_s%d.txt" topology strategy seed,
                Protocol.request ~topology ~strategy ~seed Protocol.Measure ))
            [ 0; 7 ])
        [ "nominal"; "adaptive" ])
    [ "default"; "sigma-delta"; "amp-bypass" ]
  @ List.concat_map
      (fun strategy ->
        List.map
          (fun seed ->
            ( Printf.sprintf "montecarlo %s seed %d" strategy seed,
              Printf.sprintf "montecarlo_%s_s%d.txt" strategy seed,
              Protocol.request ~strategy ~trials:20_000 ~seed Protocol.Montecarlo ))
          [ 0; 3 ])
      [ "nominal"; "adaptive" ]
  @ [ ( "schedule narrow seed 7",
        "schedule_narrow_s7.txt",
        Protocol.request ~soc:"narrow" ~seed:7 Protocol.Schedule ) ]

let engine_cases =
  List.map
    (fun (name, fixture, req) ->
      Alcotest.test_case name `Quick (fun () ->
          check_bytes fixture (Msoc_serve.Verbs.run ~pool:(Msoc_util.Pool.get_default ()) req)))
    engine_fixtures

let () =
  Alcotest.run "golden"
    [ ( "default-receiver",
        [ Alcotest.test_case "plan text (adaptive)" `Quick test_plan_adaptive;
          Alcotest.test_case "plan text (nominal-gains)" `Quick test_plan_nominal;
          Alcotest.test_case "audit JSON (adaptive)" `Quick test_audit_adaptive;
          Alcotest.test_case "virtual-tester ADC codes" `Quick test_tester_codes;
          tester_codes_case "sigma-delta";
          tester_codes_case "amp-bypass" ] );
      ( "reference-soc",
        [ Alcotest.test_case "schedule table" `Quick test_soc_schedule;
          Alcotest.test_case "per-core breakdown" `Quick test_soc_breakdown;
          Alcotest.test_case "audit JSON" `Quick test_soc_audit ] );
      ("faultsim-bodies", faultsim_cases);
      ("engine-bodies", engine_cases) ]
