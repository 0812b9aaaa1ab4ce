(* Per-layer numbers of the traced run.

   Two sources, both outside lib/:
   - what the daemon already exposes, read from the traced session: the
     [queue_ns] / [service_ns] reply fields and the [metrics] exposition;
   - timed calls into each layer's public functions, made in-process
     from here on a seeded sample of the workload's heavy requests.  The
     compute verbs are decomposed into the calls [Verbs] makes, and the
     decomposition renders a body that must equal [Verbs.run]'s.

   Every timing is a span (see [Spans]); each metric is a statistic over
   the spans of one name.  Obs is enabled only for the pass that reads
   the counters the libraries already keep. *)

module P = Msoc_serve.Protocol
module Verbs = Msoc_serve.Verbs
module Pool = Msoc_util.Pool
module Prng = Msoc_util.Prng
module Lru = Msoc_util.Lru
module Workq = Msoc_util.Workq
module Texttable = Msoc_util.Texttable
module Obs = Msoc_obs.Obs
module Path = Msoc_analog.Path
module Param = Msoc_analog.Param
module Topology = Msoc_analog.Topology
module Monte_carlo = Msoc_stat.Monte_carlo
module Fft = Msoc_dsp.Fft
module Spectrum = Msoc_dsp.Spectrum
module Fault_sim = Msoc_netlist.Fault_sim
module Fir_netlist = Msoc_netlist.Fir_netlist
module Soc = Msoc_soc.Soc
module Schedule = Msoc_soc.Schedule
open Msoc_synth

type metric = {
  name : string;
  unit_ : string;
  value : float;
  n : int option;  (** samples behind a distribution statistic *)
}

(* The relative bound within which the layers must reconcile: daemon
   [service_ns] p50 against the in-process [Verbs.run] median, and the
   sum of a verb's component calls against [Verbs.run]. *)
let reconcile_bound = 0.25

let m ?n name unit_ value =
  { name; unit_; value = (if Float.is_finite value then value else 0.0); n }

(* A per-layer percentile reads 0 when the sample is too small for it
   (see [Stats.percentile]); the table prints the sample count. *)
let pct name unit_ p xs =
  m ~n:(List.length xs) name unit_
    (match Stats.percentile ~p xs with Ok v -> v | Error _ -> 0.0)

let median_or_zero xs = match xs with [] -> 0.0 | _ -> Stats.median xs
let med name unit_ xs = m ~n:(List.length xs) name unit_ (median_or_zero xs)

(* ---- serve and obs: read from the traced session ---- *)

let prom_value body name =
  String.split_on_char '\n' body
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | [ n; v ] when String.equal n name -> float_of_string_opt v
         | _ -> None)
  |> Option.value ~default:0.0

let compute_verbs = [ "plan"; "measure"; "faultsim"; "montecarlo"; "schedule" ]
let served_verbs = compute_verbs @ [ "ping"; "metrics" ]

(* Mean microseconds per item of [f] over [items], looped enough times
   to last a few milliseconds, recorded as one span. *)
let per_item_us sp name items f =
  let n = max 1 (Array.length items) in
  let reps = max 1 (20_000 / n) in
  let (), ms =
    Spans.time sp name (fun () ->
        for _ = 1 to reps do
          Array.iter f items
        done)
  in
  ms *. 1e3 /. float_of_int (reps * n)

let serve_metrics (s : Report.session) sp =
  let ok = Report.ok_records s in
  let ms ns = float_of_int ns /. 1e6 in
  let transport = List.map Load.transport_ms ok in
  let queue = List.map (fun (r : Load.record) -> ms r.queue_ns) ok in
  let service verb =
    List.filter_map
      (fun (r : Load.record) -> if String.equal r.verb verb then Some (ms r.service_ns) else None)
      ok
  in
  let scrapes = service "metrics" in
  let hits = prom_value s.final_scrape "msoc_serve_cache_hits_total"
  and misses = prom_value s.final_scrape "msoc_serve_cache_misses_total" in
  let dups = List.filter (fun (r : Load.record) -> r.cls = Gen.Dup) s.load.records in
  (* answered at admission, from the cache *)
  let dup_cache_hits =
    List.length
      (List.filter (fun (r : Load.record) -> r.status = P.Ok_ && r.queue_ns = 0) dups)
  in
  let joined =
    prom_value s.final_scrape "msoc_serve_batched_total"
    -. prom_value s.final_scrape "msoc_serve_coalesced_batches_total"
  in
  let dedupe =
    match dups with
    | [] -> 0.0
    | _ ->
      Float.min 1.0 ((joined +. float_of_int dup_cache_hits) /. float_of_int (List.length dups))
  in
  let parse_us =
    per_item_us sp "serve.parse" (Array.of_list s.load.sent_lines) (fun l ->
        ignore (P.request_of_json l))
  in
  let encode_us =
    per_item_us sp "serve.encode" (Array.of_list s.load.sample_replies) (fun r ->
        ignore (P.response_to_json r))
  in
  (* last-decile over first-decile scrape cost, in arrival order *)
  let growth =
    match List.rev scrapes with
    | [] -> 0.0
    | in_order ->
      let n = List.length in_order in
      let k = max 1 (n / 10) in
      Stats.mean (List.filteri (fun i _ -> i >= n - k) in_order)
      /. Stats.mean (List.filteri (fun i _ -> i < k) in_order)
  in
  [ pct "serve.transport_p50_ms" "ms" 0.5 transport;
    pct "serve.transport_p99_ms" "ms" 0.99 transport;
    pct "serve.queue_wait_p50_ms" "ms" 0.5 queue;
    pct "serve.queue_wait_p99_ms" "ms" 0.99 queue ]
  @ List.map (fun v -> med ("serve.service_p50_ms." ^ v) "ms" (service v)) served_verbs
  @ [ m "serve.cache_hit_ratio" "ratio"
        (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
      m "serve.cache_evictions" "count"
        (prom_value s.final_scrape "msoc_serve_cache_evictions_total");
      m "serve.dedupe_ratio" "ratio" dedupe;
      m "serve.overloaded_total" "count" (float_of_int (Report.overloaded s));
      m "serve.parse_us" "us" parse_us;
      m "serve.encode_us" "us" encode_us;
      m "serve.reply_bytes_mean" "bytes"
        (Stats.mean (List.map (fun (r : Load.record) -> float_of_int r.reply_bytes) s.load.records));
      med "obs.scrape_service_ms" "ms" scrapes;
      m "obs.scrape_growth" "ratio" growth;
      m "obs.exposition_lines" "count"
        (float_of_int (List.length (String.split_on_char '\n' (String.trim s.final_scrape)))) ]

(* ---- the compute verbs, decomposed into the calls Verbs makes ---- *)

let strategy_of = function
  | "nominal" -> Propagate.Nominal_gains
  | _ -> Propagate.Adaptive

(* Run [req]'s verb as its component calls, each a child span of
   [parent]; returns the rendered body, which must equal [Verbs.run]'s. *)
let components sp ~pool ~parent ~req:id (req : P.request) =
  let span name f = fst (Spans.time sp ~parent ~req:id name f) in
  let render f = span "render" f in
  match req.verb with
  | P.Plan ->
    let path = span "analog.topology" (fun () -> Option.get (Topology.build req.topology)) in
    let plan =
      span "core.plan_synthesize" (fun () ->
          Plan.synthesize ~strategy:(strategy_of req.strategy) path)
    in
    render (fun () -> Format.asprintf "%a@." Plan.pp_summary plan)
  | P.Measure ->
    let path = span "analog.topology" (fun () -> Option.get (Topology.build req.topology)) in
    let part =
      span "analog.part" (fun () ->
          if req.seed = 0 then Path.nominal_part path
          else Path.sample_part path (Prng.create req.seed))
    in
    let vs =
      span "core.measure_validate" (fun () ->
          Measure.validate_part path part ~strategy:(strategy_of req.strategy))
    in
    render (fun () ->
        let tbl =
          Texttable.create ~headers:[ "Parameter"; "True"; "Measured"; "Error"; "Budget" ]
        in
        List.iter
          (fun v ->
            Texttable.add_row tbl
              [ v.Measure.parameter;
                Printf.sprintf "%.5g" v.Measure.true_value;
                Printf.sprintf "%.5g" v.Measure.measured;
                Printf.sprintf "%+.3g" v.Measure.error;
                Printf.sprintf "±%.3g" v.Measure.budget ])
          vs;
        Printf.sprintf "part: %s (seed %d)\n\n"
          (if req.seed = 0 then "nominal" else "sampled within tolerances")
          req.seed
        ^ Texttable.render tbl)
  | P.Faultsim ->
    let config =
      { Digital_test.default_config with
        Digital_test.taps = req.taps;
        input_bits = req.input_bits;
        coeff_bits = req.coeff_bits }
    in
    let fir = span "netlist.build" (fun () -> Digital_test.build config) in
    let faults = span "netlist.collapse" (fun () -> Digital_test.collapsed_faults fir) in
    let fs = 1e6 in
    let f1 = Digital_test.coherent_tone ~sample_rate:fs ~samples:req.samples ~target:90e3 in
    let freqs =
      if req.tones <= 1 then [ f1 ]
      else
        [ f1; Digital_test.coherent_tone ~sample_rate:fs ~samples:req.samples ~target:110e3 ]
    in
    let codes =
      span "core.ideal_codes" (fun () ->
          let rng = if req.seed = 0 then None else Some (Prng.create req.seed) in
          Digital_test.ideal_codes ?rng config ~sample_rate:fs ~samples:req.samples ~freqs
            ~amplitude_fs:(0.9 /. float_of_int (max 1 req.tones)))
    in
    let det =
      span "core.spectral_coverage" (fun () ->
          Digital_test.spectral_coverage ~pool config fir ~sample_rate:fs ~input_codes:codes
            ~reference_codes:codes ~tone_freqs:freqs ~faults)
    in
    let body =
      render (fun () ->
          Format.asprintf "filter: %a@.faults: %d@.coverage: %.2f%% (%d/%d), floor %.1f dB@."
            Msoc_netlist.Netlist.pp_stats fir.Fir_netlist.circuit (Array.length faults)
            (100.0 *. det.Digital_test.coverage)
            det.Digital_test.detected det.Digital_test.total det.Digital_test.noise_floor_db)
    in
    (* the fault-simulation kernel alone (a part of spectral_coverage,
       outside the component sum) *)
    let _, ms =
      Spans.time sp ~req:id "netlist.fault_sim" (fun () ->
          Fault_sim.run ~pool fir.Fir_netlist.circuit ~output:Fir_netlist.output_bus_name
            ~drive:(fun sim cycle -> Fir_netlist.drive fir sim codes.(cycle))
            ~samples:req.samples ~faults)
    in
    let cycles = float_of_int (Array.length faults * req.samples) in
    Spans.note sp ~req:id "netlist.faults" (float_of_int (Array.length faults));
    Spans.note sp ~req:id "netlist.fault_cycles_per_s" (cycles /. (ms /. 1e3));
    body
  | P.Montecarlo ->
    let strategy = strategy_of req.strategy in
    let seed = if req.seed = 0 then Verbs.montecarlo_canonical_seed else req.seed in
    let path, budget =
      span "analog.receiver" (fun () ->
          let path = Path.default_receiver () in
          (path, Propagate.mixer_iip3 path ~strategy))
    in
    let param stage name = Path.param path ~stage ~name in
    let iip3 = param "Mixer" "iip3_dbm"
    and amp_gain = param "Amp" "gain_db"
    and mixer_gain = param "Mixer" "gain_db"
    and lpf_gain = param "LPF" "gain_db" in
    let errs, ms =
      Spans.time sp ~parent ~req:id "stat.sample_array_pooled" (fun () ->
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
                  let path_gain = actual_amp +. actual_mixer +. actual_lpf in
                  observable -. path_gain +. amp_gain.Param.nominal
              in
              estimate -. true_iip3)
            ())
    in
    Spans.note sp ~req:id "stat.mc_trials_per_s" (float_of_int req.trials /. (ms /. 1e3));
    render (fun () ->
        let t =
          Texttable.create ~headers:[ "Strategy"; "Budget (worst)"; "RMS err"; "Max err" ]
        in
        Texttable.add_row t
          [ Propagate.strategy_name strategy;
            Printf.sprintf "%.3f dB" (Propagate.err budget);
            Printf.sprintf "%.3f dB" (Msoc_stat.Describe.rms errs);
            Printf.sprintf "%.3f dB" (Msoc_util.Floatx.max_abs errs) ];
        Printf.sprintf "IIP3 de-embedding error, %d trials (seed %d):\n" req.trials seed
        ^ Texttable.render t)
  | P.Schedule ->
    let soc = Option.get (Soc.find req.soc) in
    let seed = if req.seed = 0 then None else Some req.seed in
    let problem = span "soc.problem" (fun () -> Schedule.problem_of_soc soc) in
    let greedy = span "soc.greedy" (fun () -> Schedule.greedy problem) in
    let annealed =
      span "soc.anneal" (fun () ->
          Schedule.anneal ~restarts:req.restarts ~iters:req.iters ?seed ~pool problem)
    in
    let result, stats = annealed in
    Spans.note sp ~req:id "soc.makespan_cycles" (float_of_int result.Schedule.makespan);
    Spans.note sp ~req:id "soc.anneal_accept_ratio"
      (float_of_int stats.Schedule.accepted
      /. float_of_int (max 1 (stats.Schedule.accepted + stats.Schedule.rejected)));
    render (fun () -> Schedule.render problem ~greedy ~annealed ^ "\n" ^ Schedule.breakdown problem)
  | P.Metrics | P.Ping | P.Sleep -> invalid_arg "components: not a compute verb"

(* ---- the probe passes ---- *)

(* The seeded sample the probes run on: the first requests of each
   compute verb in the workload seed's heavy stream, plus the six plan
   keys. *)
let sample ~seed =
  let want = [ (P.Faultsim, 3); (P.Measure, 2); (P.Montecarlo, 2); (P.Schedule, 2) ] in
  let got = Hashtbl.create 8 in
  let have v = Option.value ~default:0 (Hashtbl.find_opt got v) in
  let next = Gen.heavy_stream ~seed in
  let rec go acc =
    if List.for_all (fun (v, k) -> have v >= k) want then List.rev acc
    else
      let r = (next ()).Gen.req in
      if have r.P.verb < List.assoc r.P.verb want then begin
        Hashtbl.replace got r.P.verb (have r.P.verb + 1);
        go (r :: acc)
      end
      else go acc
  in
  Gen.plan_keys @ go []

(* Small requests of each verb, run once untimed so one-time set-up
   (lazy tables, pool domains) is not charged to the first sample. *)
let warm =
  [ P.request P.Plan;
    P.request ~taps:5 ~samples:256 ~seed:2 P.Faultsim;
    P.request ~trials:20_000 ~seed:2 P.Montecarlo;
    P.request ~soc:"narrow" ~seed:2 P.Schedule ]

(* Short requests are timed three times and their median kept; faultsim
   and measure run long enough to time once. *)
let reps (r : P.request) = match r.verb with P.Faultsim | P.Measure -> 1 | _ -> 3

let minor_words f =
  let s0 = Gc.quick_stat () in
  let v = f () in
  let s1 = Gc.quick_stat () in
  (v, s1.Gc.minor_words -. s0.Gc.minor_words, s1.Gc.major_collections - s0.Gc.major_collections)

type reconcile = { check : string; ratio : float; ok : bool }

let within ratio = Float.is_finite ratio && Float.abs (ratio -. 1.0) <= reconcile_bound

type engine = {
  metrics : metric list;
  errors : string list;  (** correctness failures (pool identity) *)
  checks : reconcile list;
}

let engine_probes sp ~pool_size ~seed =
  let reqs = Array.of_list (sample ~seed) in
  let verb_of i = P.verb_name reqs.(i).P.verb in
  let errors = ref [] and checks = ref [] in
  let notes name v = Spans.note sp name v in
  let bodies = Array.make (Array.length reqs) "" in
  let majors = ref 0 in
  let pooled = function P.Faultsim | P.Montecarlo | P.Schedule -> true | _ -> false in
  let comp_sum = Hashtbl.create 8 and run_sum = Hashtbl.create 8 and run1_sum = Hashtbl.create 8 in
  let acc tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)) in
  (* pass A, pool of the daemon's size, Obs off: the component calls,
     then Verbs.run; the two bodies must agree *)
  Pool.with_pool ~size:pool_size (fun pool ->
      List.iter (fun r -> ignore (Verbs.run ~pool r)) warm;
      Array.iteri
        (fun i (r : P.request) ->
          let id = i + 1 and verb = verb_of i in
          let comp = ref [] and run = ref [] in
          for _ = 1 to reps r do
            let parent = Spans.start sp ~req:id ("components." ^ verb) in
            let body_c = components sp ~pool ~parent:(Spans.id parent) ~req:id r in
            ignore (Spans.stop sp parent);
            comp := Spans.children_ms sp (Spans.id parent) :: !comp;
            let (body, words, maj), ms =
              Spans.time sp ~req:id ("verbs." ^ verb) (fun () ->
                  minor_words (fun () -> Verbs.run ~pool r))
            in
            run := ms :: !run;
            bodies.(i) <- body;
            if not (pooled r.P.verb) then begin
              notes ("runtime.minor_words." ^ verb) words;
              majors := !majors + maj
            end;
            if not (String.equal body body_c) then
              checks :=
                { check =
                    Printf.sprintf "components of %s render Verbs.run's body"
                      (Option.get (P.cache_key r));
                  ratio = Float.nan;
                  ok = false }
                :: !checks
          done;
          acc comp_sum verb (Stats.median !comp);
          acc run_sum verb (Stats.median !run))
        reqs);
  (* pass B, pool of one, Obs off: allocation of the pooled verbs, the
     serial time for the pool speed-up, and pooled = serial identity *)
  Pool.with_pool ~size:1 (fun pool ->
      Array.iteri
        (fun i (r : P.request) ->
          if pooled r.P.verb then begin
            let verb = verb_of i in
            let run = ref [] in
            for _ = 1 to reps r do
              let (body, words, maj), ms =
                Spans.time sp ~req:(i + 1) ("verbs_pool1." ^ verb) (fun () ->
                    minor_words (fun () -> Verbs.run ~pool r))
              in
              run := ms :: !run;
              notes ("runtime.minor_words." ^ verb) words;
              majors := !majors + maj;
              if not (String.equal body bodies.(i)) then
                errors :=
                  Printf.sprintf "%s: pool 1 and pool %d bodies differ"
                    (Option.get (P.cache_key r)) pool_size
                  :: !errors
            done;
            acc run1_sum verb (Stats.median !run)
          end)
        reqs);
  (* pass C, Obs on: the counters the libraries already keep *)
  Pool.with_pool ~size:pool_size (fun pool ->
      Obs.enable ();
      Fun.protect
        ~finally:(fun () ->
          Obs.disable ();
          Obs.reset ())
        (fun () ->
          Array.iter
            (fun (r : P.request) ->
              match r.verb with
              | P.Faultsim | P.Measure ->
                Obs.reset ();
                ignore (Verbs.run ~pool r);
                let c name = float_of_int (Obs.counter_total name) in
                notes "dsp.fft_transforms" (c "fft.transforms");
                notes "dsp.spectrum_captures" (c "spectrum.captures");
                if r.verb = P.Faultsim then notes "netlist.fault_sim_runs" (c "fault_sim.runs")
              | _ -> ())
            reqs));
  (* kernels at the sizes the workloads use *)
  let kernel_sizes = [ 256; 512; 4096 ] in
  List.iter
    (fun n ->
      let x = Array.init n (fun i -> sin (0.37 *. float_of_int i)) in
      let re = Array.make n 0.0 and im = Array.make n 0.0 in
      for _ = 1 to 200 do
        ignore (Spans.time sp (Printf.sprintf "dsp.rfft.%d" n) (fun () -> Fft.rfft_into x ~re ~im))
      done;
      for _ = 1 to 50 do
        ignore
          (Spans.time sp (Printf.sprintf "dsp.analyze.%d" n) (fun () ->
               Spectrum.analyze ~sample_rate:1e6 x))
      done)
    kernel_sizes;
  List.iter
    (fun name ->
      let path = Option.get (Topology.build name) in
      let n = 4096 * Path.decimation path in
      let rate = path.Path.ctx.Msoc_analog.Context.sim_rate_hz in
      let input = Array.init n (fun i -> 0.01 *. sin (2.0 *. Float.pi *. 1e5 *. float_of_int i /. rate)) in
      for _ = 1 to 2 do
        let _, ms =
          Spans.time sp ("analog.run_codes." ^ name) (fun () ->
              Path.run_codes (Path.engine path (Path.nominal_part path) ~seed:1) input)
        in
        notes ("analog.ns_per_sample." ^ name) (ms *. 1e6 /. float_of_int n)
      done)
    Topology.names;
  let lru = Lru.create ~capacity:256 in
  let keys = Array.of_list (List.filter_map P.cache_key Gen.interactive_keys) in
  Array.iter (fun k -> Lru.add lru k k) keys;
  let ops = 200_000 in
  let _, lru_ms =
    Spans.time sp "util.lru_find" (fun () ->
        for i = 1 to ops do
          ignore (Lru.find lru keys.(i mod Array.length keys))
        done)
  in
  let q = Workq.create ~capacity:64 in
  let _, q_ms =
    Spans.time sp "util.workq_roundtrip" (fun () ->
        for i = 1 to ops do
          ignore (Workq.try_push q i);
          ignore (Workq.pop q)
        done)
  in
  (* ---- assemble ---- *)
  let span_med metric span = med metric "ms" (Spans.durations sp span) in
  let mean_note name = match Spans.values sp name with [] -> 0.0 | l -> Stats.mean l in
  let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  List.iter
    (fun verb ->
      if Hashtbl.mem run_sum verb then begin
        let ratio = get comp_sum verb /. get run_sum verb in
        checks :=
          { check = Printf.sprintf "%s: component calls sum / Verbs.run" verb;
            ratio;
            ok = within ratio }
          :: !checks
      end)
    compute_verbs;
  let metrics =
    [ span_med "core.plan_synthesize_ms" "core.plan_synthesize";
      span_med "core.measure_validate_ms" "core.measure_validate";
      span_med "core.spectral_coverage_ms" "core.spectral_coverage";
      span_med "core.ideal_codes_ms" "core.ideal_codes";
      span_med "netlist.build_ms" "netlist.build";
      span_med "netlist.collapse_ms" "netlist.collapse";
      m "netlist.faults" "count" (mean_note "netlist.faults");
      span_med "netlist.fault_sim_ms" "netlist.fault_sim";
      m "netlist.fault_cycles_per_s" "1/s"
        (median_or_zero (Spans.values sp "netlist.fault_cycles_per_s"));
      m "netlist.fault_sim_runs" "count" (mean_note "netlist.fault_sim_runs");
      m "dsp.fft_transforms" "count" (mean_note "dsp.fft_transforms");
      m "dsp.spectrum_captures" "count" (mean_note "dsp.spectrum_captures") ]
    @ List.concat_map
        (fun n ->
          let us metric span =
            med metric "us" (List.map (fun ms -> ms *. 1e3) (Spans.durations sp span))
          in
          [ us (Printf.sprintf "dsp.rfft_us.%d" n) (Printf.sprintf "dsp.rfft.%d" n);
            us (Printf.sprintf "dsp.analyze_us.%d" n) (Printf.sprintf "dsp.analyze.%d" n) ])
        kernel_sizes
    @ List.map
        (fun name ->
          m ("analog.run_codes_ns_per_sample." ^ name) "ns"
            (median_or_zero (Spans.values sp ("analog.ns_per_sample." ^ name))))
        Topology.names
    @ [ m "stat.mc_trials_per_s" "1/s" (median_or_zero (Spans.values sp "stat.mc_trials_per_s"));
        span_med "soc.problem_ms" "soc.problem";
        span_med "soc.greedy_ms" "soc.greedy";
        span_med "soc.anneal_ms" "soc.anneal";
        m "soc.anneal_accept_ratio" "ratio" (mean_note "soc.anneal_accept_ratio");
        m "soc.makespan_cycles" "cycles" (mean_note "soc.makespan_cycles");
        m "util.pool_speedup.faultsim" "ratio" (get run1_sum "faultsim" /. get run_sum "faultsim");
        m "util.pool_speedup.montecarlo" "ratio"
          (get run1_sum "montecarlo" /. get run_sum "montecarlo");
        m "util.lru_find_ns" "ns" (lru_ms *. 1e6 /. float_of_int ops);
        m "util.workq_roundtrip_ns" "ns" (q_ms *. 1e6 /. float_of_int ops) ]
    @ List.map
        (fun verb ->
          m ("runtime.minor_mwords_per_req." ^ verb) "Mwords"
            (mean_note ("runtime.minor_words." ^ verb) /. 1e6))
        compute_verbs
    @ [ m "runtime.major_collections" "count" (float_of_int !majors) ]
  in
  { metrics; errors = List.rev !errors; checks = List.rev !checks }

(* ---- reconciliation against the daemon ---- *)

(* For each compute verb the daemon executed: its [service_ns] p50
   against the median in-process [Verbs.run] of the same requests. *)
let daemon_vs_replay (s : Report.session) (refs : Verify.reference array) =
  let ref_ms = Hashtbl.create 64 in
  Array.iter (fun (r : Verify.reference) -> Hashtbl.replace ref_ms (P.cache_key r.req) r.ms) refs;
  List.filter_map
    (fun verb ->
      let recs =
        List.filter
          (fun (r : Load.record) -> r.cls = Gen.Heavy && String.equal r.verb verb)
          (Report.ok_records s)
      in
      match recs with
      | [] -> None
      | _ ->
        let daemon = Stats.median (List.map (fun (r : Load.record) -> float_of_int r.service_ns /. 1e6) recs) in
        let inproc = Stats.median (List.filter_map (fun (r : Load.record) -> Hashtbl.find_opt ref_ms r.key) recs) in
        let ratio = daemon /. inproc in
        Some
          { check = Printf.sprintf "%s: daemon service_ns p50 / in-process Verbs.run median" verb;
            ratio;
            ok = within ratio })
    compute_verbs

let transport_nonnegative (s : Report.session) =
  let worst =
    List.fold_left (fun acc r -> Float.min acc (Load.transport_ms r)) Float.infinity
      (Report.ok_records s)
  in
  { check = "min transport residual >= 0 (ms)"; ratio = worst; ok = worst >= 0.0 }
