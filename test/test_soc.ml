(* SOC model and scheduler tests: builder validation, the sorted SOC
   registry, decode feasibility on random rankings and random synthetic
   problems, the annealed-never-worse-than-greedy contract, and
   bit-identity of the annealed schedule across pool sizes. *)

module Pool = Msoc_util.Pool
module Soc = Msoc_soc.Soc
module Schedule = Msoc_soc.Schedule

(* ---- builder validation ---- *)

let wrapper ?(bus_bits = 4) ?(chain_bits = 64) ?(fixture_cycles = 100) () =
  Soc.wrapper ~bus_bits ~chain_bits ~fixture_cycles

let core ?(name = "c0") ?(topology = "default") ?(w = wrapper ()) ?(power_mw = 50.0) () =
  Soc.core ~name ~topology ~wrapper:w ~power_mw

let expect_invalid label f =
  match f () with
  | (_ : Soc.t) -> Alcotest.failf "%s: expected Invalid_argument" label
  | exception Invalid_argument _ -> ()

let test_create_validation () =
  (* the happy path builds *)
  let ok = Soc.create ~name:"ok" ~bus_bits:16 ~power_budget_mw:200.0 [ core () ] in
  Alcotest.(check int) "core count" 1 (Soc.core_count ok);
  Alcotest.(check bool) "find_core hit" true (Soc.find_core ok "c0" <> None);
  Alcotest.(check bool) "find_core miss" true (Soc.find_core ok "zz" = None);
  expect_invalid "no cores" (fun () ->
      Soc.create ~name:"s" ~bus_bits:16 ~power_budget_mw:200.0 []);
  expect_invalid "duplicate core names" (fun () ->
      Soc.create ~name:"s" ~bus_bits:16 ~power_budget_mw:200.0 [ core (); core () ]);
  expect_invalid "unknown topology" (fun () ->
      Soc.create ~name:"s" ~bus_bits:16 ~power_budget_mw:200.0
        [ core ~topology:"no-such-topology" () ]);
  expect_invalid "wrapper bus wider than SOC bus" (fun () ->
      Soc.create ~name:"s" ~bus_bits:4 ~power_budget_mw:200.0
        [ core ~w:(wrapper ~bus_bits:8 ()) () ]);
  expect_invalid "zero-width wrapper bus" (fun () ->
      Soc.create ~name:"s" ~bus_bits:16 ~power_budget_mw:200.0
        [ core ~w:(wrapper ~bus_bits:0 ()) () ]);
  expect_invalid "empty wrapper chain" (fun () ->
      Soc.create ~name:"s" ~bus_bits:16 ~power_budget_mw:200.0
        [ core ~w:(wrapper ~chain_bits:0 ()) () ]);
  expect_invalid "negative fixture cost" (fun () ->
      Soc.create ~name:"s" ~bus_bits:16 ~power_budget_mw:200.0
        [ core ~w:(wrapper ~fixture_cycles:(-1) ()) () ]);
  expect_invalid "core power above budget" (fun () ->
      Soc.create ~name:"s" ~bus_bits:16 ~power_budget_mw:200.0
        [ core ~power_mw:250.0 () ]);
  expect_invalid "non-positive core power" (fun () ->
      Soc.create ~name:"s" ~bus_bits:16 ~power_budget_mw:200.0 [ core ~power_mw:0.0 () ])

let test_wrapper_load_cycles () =
  Alcotest.(check int) "exact division" 16
    (Soc.wrapper_load_cycles (wrapper ~bus_bits:4 ~chain_bits:64 ()));
  Alcotest.(check int) "rounds up" 17
    (Soc.wrapper_load_cycles (wrapper ~bus_bits:4 ~chain_bits:65 ()));
  Alcotest.(check int) "single line" 64
    (Soc.wrapper_load_cycles (wrapper ~bus_bits:1 ~chain_bits:64 ()))

let test_registry_sorted () =
  Alcotest.(check (list string)) "registry names sorted" [ "narrow"; "reference" ]
    Soc.names;
  Alcotest.(check (list string)) "summaries mirror the registry"
    Soc.names
    (List.map fst Soc.summaries);
  Alcotest.(check bool) "find hit" true (Soc.find "reference" <> None);
  Alcotest.(check bool) "find miss" true (Soc.find "bogus" = None);
  (* registry fixtures are valid by construction *)
  List.iter
    (fun name ->
      match Soc.find name with
      | None -> Alcotest.failf "registered SOC %s missing" name
      | Some soc -> Alcotest.(check int) "4 cores" 4 (Soc.core_count soc))
    Soc.names

(* ---- scheduler on the reference problem ---- *)

let reference_problem = lazy (Schedule.problem_of_soc (Soc.reference ()))

let check_ok problem label result =
  match Schedule.check problem result with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invalid schedule: %s" label e

let test_reference_schedule () =
  let problem = Lazy.force reference_problem in
  let greedy = Schedule.greedy problem in
  let annealed, stats = Schedule.anneal ~restarts:4 ~iters:200 problem in
  check_ok problem "greedy" greedy;
  check_ok problem "annealed" annealed;
  Alcotest.(check int) "46 tests derived" 46 (Array.length problem.Schedule.tests);
  Alcotest.(check int) "greedy makespan pinned" 348040 greedy.Schedule.makespan;
  Alcotest.(check bool) "annealed <= greedy" true
    (annealed.Schedule.makespan <= greedy.Schedule.makespan);
  Alcotest.(check int) "all restarts ran" 4 stats.Schedule.restarts;
  (* self-swap moves (i = j) are neither accepted nor rejected, so the
     counts bound restarts * iters from below without reaching it exactly *)
  Alcotest.(check bool) "moves accounted" true
    (stats.Schedule.accepted > 0
    && stats.Schedule.accepted + stats.Schedule.rejected
       <= stats.Schedule.restarts * stats.Schedule.iterations);
  (* a schedule can never beat the critical-path lower bound: the serial
     chain of any single core *)
  let per_core = Hashtbl.create 8 in
  Array.iter
    (fun (t : Schedule.test) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt per_core t.Schedule.core) in
      Hashtbl.replace per_core t.Schedule.core (prev + t.Schedule.cycles))
    problem.Schedule.tests;
  Hashtbl.iter
    (fun _ serial ->
      Alcotest.(check bool) "makespan >= per-core serial time" true
        (annealed.Schedule.makespan >= serial))
    per_core

(* ---- QCheck: random rankings and random synthetic problems ---- *)

(* Synthetic problems bypass the validated builder on purpose: the record
   types are concrete, so the generator can produce bus/power shapes the
   shipped fixtures never hit.  Prerequisites chain within each core,
   matching what problem_of_soc derives. *)
let arb_problem =
  let gen =
    QCheck.Gen.(
      int_range 4 16 >>= fun bus_bits ->
      int_range 50 200 >>= fun budget ->
      int_range 1 4 >>= fun n_cores ->
      int_range 1 12 >>= fun n_tests ->
      let power_budget_mw = float_of_int budget in
      let core_of i =
        Soc.core
          ~name:(Printf.sprintf "c%d" i)
          ~topology:"default"
          ~wrapper:(Soc.wrapper ~bus_bits:1 ~chain_bits:1 ~fixture_cycles:0)
          ~power_mw:1.0
      in
      let soc =
        { Soc.name = "random"; bus_bits; power_budget_mw; ate_clock_hz = 1e6;
          cores = List.init n_cores core_of }
      in
      let last_of_core = Hashtbl.create 4 in
      let gen_test i =
        int_range 1 500 >>= fun cycles ->
        int_range 1 bus_bits >>= fun test_bus ->
        int_range 1 budget >>= fun power ->
        let c = i mod n_cores in
        let prereqs =
          match Hashtbl.find_opt last_of_core c with
          | Some p -> [ p ]
          | None -> []
        in
        Hashtbl.replace last_of_core c i;
        return
          { Schedule.core = Printf.sprintf "c%d" c;
            name = Printf.sprintf "c%d:t%d" c i;
            cycles;
            bus_bits = test_bus;
            power_mw = float_of_int power;
            prereqs }
      in
      let rec tests i acc =
        if i >= n_tests then return (Array.of_list (List.rev acc))
        else gen_test i >>= fun t -> tests (i + 1) (t :: acc)
      in
      tests 0 [] >>= fun tests -> return { Schedule.soc; tests })
  in
  let print p =
    Printf.sprintf "{bus=%d power=%.0f tests=[%s]}" p.Schedule.soc.Soc.bus_bits
      p.Schedule.soc.Soc.power_budget_mw
      (String.concat "; "
         (Array.to_list
            (Array.map
               (fun (t : Schedule.test) ->
                 Printf.sprintf "%s %dcy %db %.0fmW [%s]" t.Schedule.name
                   t.Schedule.cycles t.Schedule.bus_bits t.Schedule.power_mw
                   (String.concat "," (List.map string_of_int t.Schedule.prereqs)))
               p.Schedule.tests)))
  in
  QCheck.make ~print gen

let prop_random_ranking_decodes =
  QCheck.Test.make ~name:"any ranking decodes to a feasible schedule" ~count:100
    (QCheck.pair arb_problem (QCheck.array_of_size (QCheck.Gen.return 32) QCheck.int))
    (fun (problem, noise) ->
      let n = Array.length problem.Schedule.tests in
      let rank = Array.init n (fun i -> noise.(i mod Array.length noise)) in
      Schedule.check problem (Schedule.decode problem rank) = Ok ())

let prop_greedy_feasible =
  QCheck.Test.make ~name:"greedy is feasible on random problems" ~count:100
    arb_problem
    (fun problem -> Schedule.check problem (Schedule.greedy problem) = Ok ())

let prop_annealed_never_worse =
  QCheck.Test.make ~name:"annealed <= greedy on random problems" ~count:40
    (QCheck.pair arb_problem (QCheck.int_range 1 10000))
    (fun (problem, seed) ->
      let greedy = Schedule.greedy problem in
      let annealed, _ = Schedule.anneal ~restarts:2 ~iters:60 ~seed problem in
      Schedule.check problem annealed = Ok ()
      && annealed.Schedule.makespan <= greedy.Schedule.makespan)

(* ---- decoder oracle ---- *)

(* The list-based decoder that produced the pinned schedules, kept
   verbatim as the oracle for Schedule.decode. *)
let reference_decode (problem : Schedule.problem) rank : Schedule.result =
  let open Schedule in
  let tests = problem.tests in
  let n = Array.length tests in
  let start = Array.make n (-1) in
  let finish = Array.make n max_int in
  let started = Array.make n false in
  let running = ref [] in
  let completed = ref 0 in
  let t = ref 0 in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare rank.(a) rank.(b)) order;
  while !completed < n do
    (* retire everything finishing at the current time *)
    running := List.filter (fun i -> finish.(i) > !t) !running;
    let bus = ref 0 and power = ref 0.0 in
    List.iter
      (fun i ->
        bus := !bus + tests.(i).bus_bits;
        power := !power +. tests.(i).power_mw)
      !running;
    let core_busy c =
      List.exists (fun i -> String.equal tests.(i).core c) !running
    in
    (* start every eligible test that fits, in rank order *)
    Array.iter
      (fun i ->
        if
          (not started.(i))
          && List.for_all (fun p -> started.(p) && finish.(p) <= !t) tests.(i).prereqs
          && (not (core_busy tests.(i).core))
          && !bus + tests.(i).bus_bits <= problem.soc.Soc.bus_bits
          && !power +. tests.(i).power_mw <= problem.soc.Soc.power_budget_mw +. 1e-9
        then begin
          started.(i) <- true;
          start.(i) <- !t;
          finish.(i) <- !t + tests.(i).cycles;
          bus := !bus + tests.(i).bus_bits;
          power := !power +. tests.(i).power_mw;
          running := i :: !running
        end)
      order;
    match !running with
    | [] ->
      if !completed < n then
        invalid_arg "Schedule.decode: stuck (prerequisite cycle or infeasible test)"
    | l ->
      let tmin = List.fold_left (fun acc i -> Int.min acc finish.(i)) max_int l in
      t := tmin;
      List.iter (fun i -> if finish.(i) = tmin then incr completed) l
  done;
  let makespan = Array.fold_left (fun acc f -> Int.max acc f) 0 finish in
  { makespan; placements = Array.init n (fun i -> { start = start.(i); finish = finish.(i) }) }

let registered_problems =
  lazy (List.map (fun name -> Schedule.problem_of_soc (Option.get (Soc.find name))) Soc.names)

(* Ranks are noise folded into [0, spread): spread 1 ties every test,
   small spreads give many ties, large ones mostly distinct ranks. *)
let decodes_like_reference problem noise spread =
  let n = Array.length problem.Schedule.tests in
  let rank = Array.init n (fun i -> abs noise.(i mod Array.length noise) mod spread) in
  let expected = reference_decode problem rank in
  let actual = Schedule.decode problem rank in
  actual.Schedule.makespan = expected.Schedule.makespan
  && actual.Schedule.placements = expected.Schedule.placements
  && Schedule.makespan problem rank = actual.Schedule.makespan

let arb_noise = QCheck.array_of_size (QCheck.Gen.return 64) QCheck.int

let prop_decoder_oracle_registered =
  QCheck.Test.make ~name:"decode = list decoder on registered SOCs" ~count:200
    (QCheck.triple (QCheck.int_bound 1) (QCheck.int_range 1 100) arb_noise)
    (fun (which, spread, noise) ->
      let problem = List.nth (Lazy.force registered_problems) which in
      decodes_like_reference problem noise spread)

let prop_decoder_oracle_random =
  QCheck.Test.make ~name:"decode = list decoder on random problems" ~count:200
    (QCheck.triple arb_problem (QCheck.int_range 1 20) arb_noise)
    (fun (problem, spread, noise) -> decodes_like_reference problem noise spread)

(* ---- pool bit-identity ---- *)

let test_pool_bit_identity () =
  let problem = Lazy.force reference_problem in
  let anneal pool = Schedule.anneal ~restarts:8 ~iters:120 ?pool problem in
  let serial_result, serial_stats = anneal None in
  check_ok problem "serial" serial_result;
  List.iter
    (fun size ->
      let pooled_result, pooled_stats =
        Pool.with_pool ~size (fun pool -> anneal (Some pool))
      in
      let label = Printf.sprintf "pool size %d" size in
      Alcotest.(check int) (label ^ ": makespan") serial_result.Schedule.makespan
        pooled_result.Schedule.makespan;
      Alcotest.(check bool) (label ^ ": placements bit-identical") true
        (serial_result.Schedule.placements = pooled_result.Schedule.placements);
      Alcotest.(check bool) (label ^ ": stats identical") true
        (serial_stats = pooled_stats))
    [ 1; 2; 4; 8 ]

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "msoc_soc"
    [ ( "soc-model",
        [ Alcotest.test_case "builder validation" `Quick test_create_validation;
          Alcotest.test_case "wrapper load cycles" `Quick test_wrapper_load_cycles;
          Alcotest.test_case "registry sorted" `Quick test_registry_sorted ] );
      ( "schedule",
        [ Alcotest.test_case "reference schedule" `Quick test_reference_schedule;
          Alcotest.test_case "pool bit-identity" `Quick test_pool_bit_identity ] );
      ( "schedule-properties",
        qcheck
          [ prop_random_ranking_decodes; prop_greedy_feasible;
            prop_annealed_never_worse; prop_decoder_oracle_registered;
            prop_decoder_oracle_random ] ) ]
