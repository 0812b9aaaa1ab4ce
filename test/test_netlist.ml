(* Unit and property tests for msoc_netlist: IR, simulation, arithmetic
   generators, fault model, fault simulation, FIR datapath. *)

open Msoc_netlist
module B = Netlist.Builder
module Prng = Msoc_util.Prng

(* ---- helpers ---- *)

let eval_single circuit ~set =
  (* Evaluate with single-lane drives given as (node, bool); returns a
     lookup on lane 0. *)
  let sim = Logic_sim.create circuit in
  List.iter (fun (node, v) -> Logic_sim.drive_node sim node (if v then -1 else 0)) set;
  Logic_sim.eval sim;
  fun node -> Logic_sim.value sim node land 1 = 1

(* ---- Netlist IR ---- *)

let test_gate_truth_tables () =
  let b = B.create () in
  let a = B.input b "a" and c = B.input b "c" in
  let gates =
    [ (Netlist.And2, fun x y -> x && y);
      (Netlist.Or2, fun x y -> x || y);
      (Netlist.Nand2, fun x y -> not (x && y));
      (Netlist.Nor2, fun x y -> not (x || y));
      (Netlist.Xor2, fun x y -> x <> y);
      (Netlist.Xnor2, fun x y -> x = y) ]
  in
  let nodes = List.map (fun (kind, _) -> B.gate2 b kind a c) gates in
  let inv = B.not_ b a and buffer = B.buf b a in
  B.output b "all" (Array.of_list (inv :: buffer :: nodes));
  let circuit = Netlist.freeze b in
  List.iter
    (fun (x, y) ->
      let read = eval_single circuit ~set:[ (a, x); (c, y) ] in
      List.iteri
        (fun i (kind, semantics) ->
          ignore kind;
          if read (List.nth nodes i) <> semantics x y then
            Alcotest.failf "gate %d wrong at (%b,%b)" i x y)
        gates;
      if read inv <> not x then Alcotest.fail "not gate";
      if read buffer <> x then Alcotest.fail "buf gate")
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_constants () =
  let b = B.create () in
  let zero = B.const b false and one = B.const b true in
  B.output b "consts" [| zero; one |];
  let circuit = Netlist.freeze b in
  let read = eval_single circuit ~set:[] in
  Alcotest.(check bool) "const0" false (read zero);
  Alcotest.(check bool) "const1" true (read one)

let test_dff_delays_one_cycle () =
  let b = B.create () in
  let d = B.input b "d" in
  let q = B.dff b d in
  B.output b "q" [| q |];
  let circuit = Netlist.freeze b in
  let sim = Logic_sim.create circuit in
  (* Cycle 0: drive 1; q should still be 0 (initial state). *)
  Logic_sim.drive_node sim d (-1);
  Logic_sim.eval sim;
  Alcotest.(check int) "initial q" 0 (Logic_sim.value sim q land 1);
  Logic_sim.tick sim;
  Logic_sim.drive_node sim d 0;
  Logic_sim.eval sim;
  Alcotest.(check int) "q sees previous d" 1 (Logic_sim.value sim q land 1);
  Logic_sim.tick sim;
  Logic_sim.eval sim;
  Alcotest.(check int) "q follows" 0 (Logic_sim.value sim q land 1)

let test_combinational_cycle_rejected () =
  (* A feedback loop without a DFF must be rejected. The builder only
     references existing nodes, so build the loop through a DFF-free
     back-edge: create with forward refs is impossible, so check the other
     guarantee instead: gate2 on an undefined node raises. *)
  let b = B.create () in
  let a = B.input b "a" in
  Alcotest.check_raises "dangling reference"
    (Invalid_argument "Netlist.Builder: gate2 references undefined node 99") (fun () ->
      ignore (B.gate2 b Netlist.And2 a 99))

let test_eval_order_topological () =
  let b = B.create () in
  let a = B.input b "a" in
  let x = B.not_ b a in
  let y = B.gate2 b Netlist.And2 x a in
  let z = B.gate2 b Netlist.Or2 y x in
  B.output b "z" [| z |];
  let circuit = Netlist.freeze b in
  let order = Netlist.eval_order circuit in
  let position = Hashtbl.create 8 in
  Array.iteri (fun i node -> Hashtbl.replace position node i) order;
  let pos n = Hashtbl.find position n in
  Alcotest.(check bool) "x before y" true (pos x < pos y);
  Alcotest.(check bool) "y before z" true (pos y < pos z)

let test_fanout_counts () =
  let b = B.create () in
  let a = B.input b "a" in
  let x = B.not_ b a in
  let _ = B.gate2 b Netlist.And2 x x in
  B.output b "o" [| x |];
  let circuit = Netlist.freeze b in
  Alcotest.(check int) "a feeds not" 1 (Netlist.fanout_count circuit a);
  Alcotest.(check int) "x feeds both and inputs" 2 (Netlist.fanout_count circuit x)

let test_gate_counts_and_stats () =
  let b = B.create () in
  let a = B.input b "a" in
  let x = B.not_ b a in
  let y = B.dff b x in
  B.output b "y" [| y |];
  let circuit = Netlist.freeze b in
  let counts = Netlist.gate_counts circuit in
  Alcotest.(check int) "one input" 1 (List.assoc Netlist.Input counts);
  Alcotest.(check int) "one not" 1 (List.assoc Netlist.Not counts);
  Alcotest.(check int) "one dff" 1 (List.assoc Netlist.Dff counts);
  let stats = Format.asprintf "%a" Netlist.pp_stats circuit in
  Alcotest.(check bool) "stats nonempty" true (String.length stats > 0)

(* ---- Arithmetic generators ---- *)

let make_adder_circuit width =
  let b = B.create () in
  let x = Array.init width (fun i -> B.input b (Printf.sprintf "x%d" i)) in
  let y = Array.init width (fun i -> B.input b (Printf.sprintf "y%d" i)) in
  let sum = Arith.ripple_add b x y ~cin:(B.const b false) in
  B.output b "x" x;
  B.output b "y" y;
  B.output b "sum" sum;
  Netlist.freeze b

let test_ripple_adder_exhaustive () =
  let width = 4 in
  let circuit = make_adder_circuit width in
  let sim = Logic_sim.create circuit in
  let xbus = Netlist.find_output circuit "x" in
  let ybus = Netlist.find_output circuit "y" in
  let sumbus = Netlist.find_output circuit "sum" in
  for x = 0 to 15 do
    for y = 0 to 15 do
      Logic_sim.drive_bus sim xbus x;
      Logic_sim.drive_bus sim ybus y;
      Logic_sim.eval sim;
      let raw = ref 0 in
      Array.iteri
        (fun i node -> raw := !raw lor ((Logic_sim.value sim node land 1) lsl i))
        sumbus;
      if !raw <> (x + y) land 15 then Alcotest.failf "adder %d+%d gave %d" x y !raw
    done
  done

let scale_circuit ~coeff ~width_in ~width_out =
  let b = B.create () in
  let x = Array.init width_in (fun i -> B.input b (Printf.sprintf "x%d" i)) in
  let p = Arith.scale_const b x ~coeff ~width:width_out in
  B.output b "x" x;
  B.output b "p" p;
  Netlist.freeze b

let check_scale coeff =
  let width_in = 6 in
  let width_out = Arith.width_for_product ~input_width:width_in ~coeff in
  let circuit = scale_circuit ~coeff ~width_in ~width_out in
  let sim = Logic_sim.create circuit in
  let xbus = Netlist.find_output circuit "x" in
  let pbus = Netlist.find_output circuit "p" in
  let rec test_values = function
    | [] -> true
    | v :: rest ->
      Logic_sim.drive_bus sim xbus v;
      Logic_sim.eval sim;
      let got = Logic_sim.read_bus_lane sim pbus ~lane:0 in
      if got <> coeff * v then false else test_values rest
  in
  test_values [ 0; 1; -1; 5; -5; 17; -17; 31; -32 ]

let test_scale_const_known_coeffs () =
  List.iter
    (fun coeff ->
      if not (check_scale coeff) then Alcotest.failf "scale by %d wrong" coeff)
    [ 0; 1; -1; 2; 3; -3; 7; -7; 23; 100; -100; 127; -128 ]

let prop_scale_const_random =
  QCheck.Test.make ~name:"CSD constant multiplier matches integer multiply" ~count:60
    (QCheck.int_range (-200) 200) (fun coeff -> check_scale coeff)

let prop_csd_properties =
  QCheck.Test.make ~name:"CSD digits sum to value and are non-adjacent" ~count:500
    (QCheck.int_range (-100000) 100000) (fun v ->
      let digits = Arith.csd_digits v in
      let sum = List.fold_left (fun acc (w, d) -> acc + (d * (1 lsl w))) 0 digits in
      let weights = List.map fst digits in
      let rec non_adjacent = function
        | a :: (b :: _ as rest) -> abs (a - b) >= 2 && non_adjacent rest
        | [ _ ] | [] -> true
      in
      sum = v
      && List.for_all (fun (_, d) -> d = 1 || d = -1) digits
      && non_adjacent weights)

let test_width_helpers () =
  Alcotest.(check int) "product width zero coeff" 1
    (Arith.width_for_product ~input_width:8 ~coeff:0);
  (* coeff 3, 4-bit input: max |3 * -8| = 24 -> 6 bits magnitude+sign *)
  Alcotest.(check int) "product width" 6 (Arith.width_for_product ~input_width:4 ~coeff:3);
  Alcotest.(check int) "sum width" 10 (Arith.width_for_sum ~widths:[ 8; 8; 8; 8 ])

let test_negate_and_sub () =
  let b = B.create () in
  let x = Array.init 5 (fun i -> B.input b (Printf.sprintf "x%d" i)) in
  let n = Arith.negate b x ~width:6 in
  B.output b "x" x;
  B.output b "n" n;
  let circuit = Netlist.freeze b in
  let sim = Logic_sim.create circuit in
  let xbus = Netlist.find_output circuit "x" in
  let nbus = Netlist.find_output circuit "n" in
  List.iter
    (fun v ->
      Logic_sim.drive_bus sim xbus v;
      Logic_sim.eval sim;
      Alcotest.(check int) "negate" (-v) (Logic_sim.read_bus_lane sim nbus ~lane:0))
    [ 0; 1; -1; 15; -16 ]

let test_const_bus () =
  let b = B.create () in
  let c = Arith.const_bus b ~width:8 (-37) in
  B.output b "c" c;
  let circuit = Netlist.freeze b in
  let sim = Logic_sim.create circuit in
  Logic_sim.eval sim;
  Alcotest.(check int) "constant bus value" (-37)
    (Logic_sim.read_bus_lane sim (Netlist.find_output circuit "c") ~lane:0)

let test_multiply_signed_exhaustive () =
  let b = B.create () in
  let x = Array.init 4 (fun i -> B.input b (Printf.sprintf "x%d" i)) in
  let y = Array.init 3 (fun i -> B.input b (Printf.sprintf "y%d" i)) in
  let p = Arith.multiply_signed b x y in
  B.output b "x" x;
  B.output b "y" y;
  B.output b "p" p;
  let circuit = Netlist.freeze b in
  let sim = Logic_sim.create circuit in
  let xb = Netlist.find_output circuit "x" in
  let yb = Netlist.find_output circuit "y" in
  let pb = Netlist.find_output circuit "p" in
  for xv = -8 to 7 do
    for yv = -4 to 3 do
      Logic_sim.drive_bus sim xb xv;
      Logic_sim.drive_bus sim yb yv;
      Logic_sim.eval sim;
      let got = Logic_sim.read_bus_lane sim pb ~lane:0 in
      if got <> xv * yv then Alcotest.failf "%d * %d = %d, got %d" xv yv (xv * yv) got
    done
  done

let prop_multiply_signed_random =
  QCheck.Test.make ~name:"array multiplier matches ( * ) at random widths" ~count:15
    (QCheck.pair (QCheck.int_range 2 7) (QCheck.int_range 2 7)) (fun (wx, wy) ->
      let b = B.create () in
      let x = Array.init wx (fun i -> B.input b (Printf.sprintf "x%d" i)) in
      let y = Array.init wy (fun i -> B.input b (Printf.sprintf "y%d" i)) in
      let p = Arith.multiply_signed b x y in
      B.output b "x" x;
      B.output b "y" y;
      B.output b "p" p;
      let circuit = Netlist.freeze b in
      let sim = Logic_sim.create circuit in
      let xb = Netlist.find_output circuit "x" in
      let yb = Netlist.find_output circuit "y" in
      let pb = Netlist.find_output circuit "p" in
      let g = Prng.create ((wx * 31) + wy) in
      let ok = ref true in
      for _ = 1 to 40 do
        let xv = Prng.int g (1 lsl wx) - (1 lsl (wx - 1)) in
        let yv = Prng.int g (1 lsl wy) - (1 lsl (wy - 1)) in
        Logic_sim.drive_bus sim xb xv;
        Logic_sim.drive_bus sim yb yv;
        Logic_sim.eval sim;
        if Logic_sim.read_bus_lane sim pb ~lane:0 <> xv * yv then ok := false
      done;
      !ok)

(* ---- Faults ---- *)

let test_fault_universe_size () =
  let b = B.create () in
  let a = B.input b "a" in
  let x = B.not_ b a in
  let k = B.const b true in
  let y = B.gate2 b Netlist.And2 x k in
  B.output b "y" [| y |];
  let circuit = Netlist.freeze b in
  (* const excluded: faults on a, x, y only *)
  Alcotest.(check int) "universe" 6 (Array.length (Fault.universe circuit))

let test_fault_collapse_not_chain () =
  let b = B.create () in
  let a = B.input b "a" in
  let x = B.not_ b a in
  let y = B.not_ b x in
  B.output b "y" [| y |];
  let circuit = Netlist.freeze b in
  let collapsed = Fault.collapse circuit (Fault.universe circuit) in
  (* a, x, y each have 2 faults = 6; x/y collapse onto a -> 2 classes *)
  Alcotest.(check int) "collapsed classes" 2 (Array.length collapsed);
  let r = Fault.representative circuit { Fault.node = y; stuck = true } in
  Alcotest.(check int) "representative node" a r.Fault.node;
  Alcotest.(check bool) "polarity flipped twice" true r.Fault.stuck

let test_fault_no_collapse_on_fanout () =
  let b = B.create () in
  let a = B.input b "a" in
  let x = B.not_ b a in
  let y = B.buf b a in
  (* a has fanout 2 -> no collapsing through either gate *)
  B.output b "o" [| x; y |];
  let circuit = Netlist.freeze b in
  Alcotest.(check int) "no collapse" 6
    (Array.length (Fault.collapse circuit (Fault.universe circuit)))

let test_injected_fault_behaviour () =
  let b = B.create () in
  let a = B.input b "a" in
  let x = B.buf b a in
  B.output b "x" [| x |];
  let circuit = Netlist.freeze b in
  let sim = Logic_sim.create circuit in
  Logic_sim.inject sim ~node:x ~lane:1 ~stuck:true;
  Logic_sim.inject sim ~node:x ~lane:2 ~stuck:false;
  Logic_sim.drive_node sim a 0;
  Logic_sim.eval sim;
  let v = Logic_sim.value sim x in
  Alcotest.(check int) "lane0 good" 0 (v land 1);
  Alcotest.(check int) "lane1 sa1" 1 ((v lsr 1) land 1);
  Alcotest.(check int) "lane2 sa0" 0 ((v lsr 2) land 1);
  Logic_sim.clear_faults sim;
  Logic_sim.drive_node sim a (-1);
  Logic_sim.eval sim;
  Alcotest.(check int) "faults cleared" 1 ((Logic_sim.value sim x lsr 1) land 1)

(* ---- Fault simulation ---- *)

let small_fir () =
  let design = Msoc_dsp.Fir.lowpass ~taps:5 ~cutoff:0.2 () in
  let codes, scale = Msoc_dsp.Fir.quantize design.Msoc_dsp.Fir.taps ~bits:6 in
  Fir_netlist.create ~coeffs:codes ~width_in:6 ~scale ()

let test_parallel_fault_sim_matches_serial () =
  (* Every fault's parallel-lane stream must equal a dedicated single-fault
     simulation. *)
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let g = Prng.create 11 in
  let stimulus = Array.init 40 (fun _ -> Prng.int g 63 - 31) in
  let faults =
    Array.sub (Fault.collapse circuit (Fault.universe circuit)) 0 70
  in
  let drive sim cycle = Fir_netlist.drive fir sim stimulus.(cycle) in
  let result =
    Fault_sim.run circuit ~output:"y" ~drive ~samples:(Array.length stimulus) ~faults
  in
  (* serial re-simulation of a sample of faults *)
  let serial (fault : Fault.t) =
    let sim = Logic_sim.create circuit in
    Logic_sim.inject sim ~node:fault.Fault.node ~lane:0 ~stuck:fault.Fault.stuck;
    let ybus = Fir_netlist.output_bus fir in
    Array.map
      (fun x ->
        Fir_netlist.drive fir sim x;
        Logic_sim.eval sim;
        let y = Logic_sim.read_bus_lane sim ybus ~lane:0 in
        Logic_sim.tick sim;
        y)
      stimulus
  in
  List.iter
    (fun i ->
      let expected = serial faults.(i) in
      if expected <> result.Fault_sim.fault_streams.(i) then
        Alcotest.failf "parallel/serial mismatch for fault %d" i)
    [ 0; 7; 13; 31; 62; 63; 69 ]

let test_good_stream_matches_response () =
  let fir = small_fir () in
  let g = Prng.create 12 in
  let stimulus = Array.init 64 (fun _ -> Prng.int g 63 - 31) in
  let faults = Array.sub (Fault.universe fir.Fir_netlist.circuit) 0 10 in
  let drive sim cycle = Fir_netlist.drive fir sim stimulus.(cycle) in
  let result =
    Fault_sim.run fir.Fir_netlist.circuit ~output:"y" ~drive ~samples:64 ~faults
  in
  Alcotest.(check (array int)) "lane0 = behavioural response"
    (Fir_netlist.response fir stimulus) result.Fault_sim.good_stream

let test_detect_exact_subset_of_run () =
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let g = Prng.create 13 in
  let stimulus = Array.init 50 (fun _ -> Prng.int g 63 - 31) in
  let faults = Fault.collapse circuit (Fault.universe circuit) in
  let drive sim cycle = Fir_netlist.drive fir sim stimulus.(cycle) in
  let detected = Fault_sim.detect_exact circuit ~output:"y" ~drive ~samples:50 ~faults in
  let result = Fault_sim.run circuit ~output:"y" ~drive ~samples:50 ~faults in
  Array.iteri
    (fun i flag ->
      let differs = result.Fault_sim.fault_streams.(i) <> result.Fault_sim.good_stream in
      if flag <> differs then Alcotest.failf "detect_exact disagrees on fault %d" i)
    detected

let test_run_fold_streaming_equivalence () =
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let g = Prng.create 14 in
  let stimulus = Array.init 32 (fun _ -> Prng.int g 63 - 31) in
  let faults = Array.sub (Fault.collapse circuit (Fault.universe circuit)) 0 100 in
  let drive sim cycle = Fir_netlist.drive fir sim stimulus.(cycle) in
  let batch = Fault_sim.run circuit ~output:"y" ~drive ~samples:32 ~faults in
  let seen = Array.make (Array.length faults) false in
  let good =
    Fault_sim.run_fold circuit ~output:"y" ~drive ~samples:32 ~faults
      ~on_fault:(fun i fault stream ->
        if not (Fault.equal fault faults.(i)) then Alcotest.fail "fault order";
        if stream <> batch.Fault_sim.fault_streams.(i) then Alcotest.fail "stream mismatch";
        seen.(i) <- true)
  in
  Alcotest.(check (array int)) "good stream" batch.Fault_sim.good_stream good;
  Alcotest.(check bool) "all callbacks fired" true (Array.for_all (fun x -> x) seen)

let test_run_empty_faults () =
  (* Regression: [run ~faults:[||]] used to skip the fault-free machine
     entirely and return an all-zero good_stream. *)
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let g = Prng.create 23 in
  let stimulus = Array.init 48 (fun _ -> Prng.int g 63 - 31) in
  let drive sim cycle = Fir_netlist.drive fir sim stimulus.(cycle) in
  let empty = Fault_sim.run circuit ~output:"y" ~drive ~samples:48 ~faults:[||] in
  Alcotest.(check int) "no fault streams" 0 (Array.length empty.Fault_sim.fault_streams);
  Alcotest.(check (array int)) "good stream = behavioural response"
    (Fir_netlist.response fir stimulus) empty.Fault_sim.good_stream;
  let one_fault = Array.sub (Fault.universe circuit) 0 1 in
  let one = Fault_sim.run circuit ~output:"y" ~drive ~samples:48 ~faults:one_fault in
  Alcotest.(check (array int)) "good stream = 1-fault run's good stream"
    one.Fault_sim.good_stream empty.Fault_sim.good_stream

let test_detect_cycles_consistency () =
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let g = Prng.create 29 in
  let stimulus = Array.init 80 (fun _ -> Prng.int g 63 - 31) in
  let faults = Fault.collapse circuit (Fault.universe circuit) in
  let drive sim cycle = Fir_netlist.drive fir sim stimulus.(cycle) in
  let flags = Fault_sim.detect_exact circuit ~output:"y" ~drive ~samples:80 ~faults in
  let cycles = Fault_sim.detect_cycles circuit ~output:"y" ~drive ~samples:80 ~faults in
  Array.iteri
    (fun i c ->
      if flags.(i) <> (c >= 0) then Alcotest.failf "flag/cycle disagree on fault %d" i;
      if c >= 80 then Alcotest.failf "first cycle out of range on fault %d" i)
    cycles;
  (* Pattern compaction: truncating the sweep to the last useful cycle
     detects exactly the same fault set. *)
  let last_useful = 1 + Array.fold_left max (-1) cycles in
  Alcotest.(check bool) "something detected" true (last_useful > 0);
  let truncated =
    Fault_sim.detect_exact circuit ~output:"y" ~drive ~samples:last_useful ~faults
  in
  Alcotest.(check (array bool)) "truncated sweep detects the same set" flags truncated

let prop_dropped_faults_never_undetect =
  (* Dropping is sound: a fault detected at a shorter sweep stays detected —
     with the same first-detect cycle — at every longer sweep. *)
  QCheck.Test.make ~name:"dropped faults never un-detect" ~count:8
    (QCheck.pair (QCheck.int_range 1 1000) (QCheck.int_range 33 96))
    (fun (seed, s2) ->
      let s1 = s2 / 2 in
      let fir = small_fir () in
      let circuit = fir.Fir_netlist.circuit in
      let g = Prng.create seed in
      let stimulus = Array.init s2 (fun _ -> Prng.int g 63 - 31) in
      let faults = Fault.collapse circuit (Fault.universe circuit) in
      let drive sim cycle = Fir_netlist.drive fir sim stimulus.(cycle) in
      let short = Fault_sim.detect_cycles circuit ~output:"y" ~drive ~samples:s1 ~faults in
      let long = Fault_sim.detect_cycles circuit ~output:"y" ~drive ~samples:s2 ~faults in
      Array.for_all (fun ok -> ok)
        (Array.mapi (fun i c1 -> c1 < 0 || long.(i) = c1) short))

(* ---- FIR datapath ---- *)

let test_fir_netlist_exactness () =
  let design = Msoc_dsp.Fir.lowpass ~taps:9 ~cutoff:0.15 () in
  let codes, scale = Msoc_dsp.Fir.quantize design.Msoc_dsp.Fir.taps ~bits:8 in
  let fir = Fir_netlist.create ~coeffs:codes ~width_in:10 ~scale () in
  let g = Prng.create 15 in
  let xs = Array.init 200 (fun _ -> Prng.int g 1023 - 511) in
  let golden = Fir_netlist.response fir xs in
  let sim = Logic_sim.create fir.Fir_netlist.circuit in
  let ybus = Fir_netlist.output_bus fir in
  Array.iteri
    (fun n x ->
      Fir_netlist.drive fir sim x;
      Logic_sim.eval sim;
      let y = Logic_sim.read_bus_lane sim ybus ~lane:0 in
      if y <> golden.(n) then Alcotest.failf "mismatch at sample %d" n;
      Logic_sim.tick sim)
    xs

let prop_fir_netlist_random_configs =
  QCheck.Test.make ~name:"random FIR netlists match integer golden model" ~count:12
    (QCheck.triple (QCheck.int_range 2 8) (QCheck.int_range 4 8) (QCheck.int_range 5 9))
    (fun (taps, coeff_bits, width_in) ->
      let design = Msoc_dsp.Fir.lowpass ~taps ~cutoff:0.2 () in
      let codes, scale = Msoc_dsp.Fir.quantize design.Msoc_dsp.Fir.taps ~bits:coeff_bits in
      let fir = Fir_netlist.create ~coeffs:codes ~width_in ~scale () in
      let g = Prng.create (taps + (coeff_bits * 100) + (width_in * 7)) in
      let range = (1 lsl width_in) - 1 in
      let xs = Array.init 50 (fun _ -> Prng.int g range - (range / 2)) in
      let golden = Fir_netlist.response fir xs in
      let sim = Logic_sim.create fir.Fir_netlist.circuit in
      let ybus = Fir_netlist.output_bus fir in
      Array.for_all (fun b -> b)
        (Array.mapi
           (fun n x ->
             Fir_netlist.drive fir sim x;
             Logic_sim.eval sim;
             let y = Logic_sim.read_bus_lane sim ybus ~lane:0 in
             Logic_sim.tick sim;
             y = golden.(n))
           xs))

let test_fir_regions () =
  let fir = small_fir () in
  let site = Fir_netlist.fault_site fir ~tap:2 ~role:Fir_netlist.Adder in
  (match Fir_netlist.region_of_node fir site.Fault.node with
  | Some r ->
    Alcotest.(check int) "tap" 2 r.Fir_netlist.tap;
    Alcotest.(check bool) "role" true (r.Fir_netlist.role = Fir_netlist.Adder)
  | None -> Alcotest.fail "fault site not inside its region");
  Alcotest.(check bool) "has multiplier regions" true
    (List.exists (fun r -> r.Fir_netlist.role = Fir_netlist.Multiplier) fir.Fir_netlist.regions);
  Alcotest.(check bool) "has register regions" true
    (List.exists (fun r -> r.Fir_netlist.role = Fir_netlist.Register) fir.Fir_netlist.regions)

let test_fir_input_clamping () =
  let fir = small_fir () in
  (* width 6 -> range [-32, 31] *)
  Alcotest.(check int) "quantize clamps +" 31 (Fir_netlist.quantize_input fir ~full_scale:1.0 2.0);
  Alcotest.(check int) "quantize clamps -" (-32)
    (Fir_netlist.quantize_input fir ~full_scale:1.0 (-2.0));
  Alcotest.(check int) "zero maps to zero" 0 (Fir_netlist.quantize_input fir ~full_scale:1.0 0.0)

let test_fir_dc_gain_via_netlist () =
  (* Constant input: steady-state output = sum of coeffs * input. *)
  let fir = small_fir () in
  let xs = Array.make 40 13 in
  let golden = Fir_netlist.response fir xs in
  let expected = Array.fold_left (fun acc c -> acc + (c * 13)) 0 fir.Fir_netlist.coeffs in
  Alcotest.(check int) "steady state dc" expected golden.(39)

(* ---- Direct-form architecture ---- *)

let test_direct_form_matches_golden () =
  let design = Msoc_dsp.Fir.lowpass ~taps:7 ~cutoff:0.15 () in
  let codes, scale = Msoc_dsp.Fir.quantize design.Msoc_dsp.Fir.taps ~bits:7 in
  let fir =
    Fir_netlist.create ~coeffs:codes ~width_in:9 ~scale ~architecture:Fir_netlist.Direct ()
  in
  let g = Prng.create 77 in
  let xs = Array.init 120 (fun _ -> Prng.int g 511 - 255) in
  let golden = Fir_netlist.response fir xs in
  let sim = Logic_sim.create fir.Fir_netlist.circuit in
  let ybus = Fir_netlist.output_bus fir in
  Array.iteri
    (fun n x ->
      Fir_netlist.drive fir sim x;
      Logic_sim.eval sim;
      if Logic_sim.read_bus_lane sim ybus ~lane:0 <> golden.(n) then
        Alcotest.failf "direct form mismatch at %d" n;
      Logic_sim.tick sim)
    xs

let test_architectures_agree () =
  let design = Msoc_dsp.Fir.lowpass ~taps:6 ~cutoff:0.2 () in
  let codes, scale = Msoc_dsp.Fir.quantize design.Msoc_dsp.Fir.taps ~bits:6 in
  let make architecture = Fir_netlist.create ~coeffs:codes ~width_in:8 ~scale ~architecture () in
  let run fir xs =
    let sim = Logic_sim.create fir.Fir_netlist.circuit in
    let ybus = Fir_netlist.output_bus fir in
    Array.map
      (fun x ->
        Fir_netlist.drive fir sim x;
        Logic_sim.eval sim;
        let y = Logic_sim.read_bus_lane sim ybus ~lane:0 in
        Logic_sim.tick sim;
        y)
      xs
  in
  let g = Prng.create 3 in
  let xs = Array.init 80 (fun _ -> Prng.int g 255 - 127) in
  Alcotest.(check (array int)) "transposed = direct"
    (run (make Fir_netlist.Transposed) xs)
    (run (make Fir_netlist.Direct) xs)

(* ---- Netlist_io ---- *)

let test_io_roundtrip_exact () =
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let back = Netlist_io.of_string (Netlist_io.to_string circuit) in
  Alcotest.(check int) "node count" (Netlist.node_count circuit) (Netlist.node_count back);
  for node = 0 to Netlist.node_count circuit - 1 do
    if Netlist.kind circuit node <> Netlist.kind back node then
      Alcotest.failf "kind mismatch at node %d" node;
    if Netlist.fanin circuit node <> Netlist.fanin back node then
      Alcotest.failf "fanin mismatch at node %d" node
  done;
  Alcotest.(check int) "outputs preserved"
    (Array.length (Netlist.outputs circuit))
    (Array.length (Netlist.outputs back))

let test_io_roundtrip_behaviour () =
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let back = Netlist_io.of_string (Netlist_io.to_string circuit) in
  let g = Prng.create 5 in
  let xs = Array.init 60 (fun _ -> Prng.int g 63 - 31) in
  let run c =
    let sim = Logic_sim.create c in
    let xbus = Netlist.find_output c "x" and ybus = Netlist.find_output c "y" in
    Array.map
      (fun x ->
        Logic_sim.drive_bus sim xbus x;
        Logic_sim.eval sim;
        let y = Logic_sim.read_bus_lane sim ybus ~lane:0 in
        Logic_sim.tick sim;
        y)
      xs
  in
  Alcotest.(check (array int)) "same behaviour" (run circuit) (run back)

let test_io_rejects_garbage () =
  Alcotest.(check bool) "undefined node" true
    (try ignore (Netlist_io.of_string "n1 = AND(n0, n0)\n"); false with Failure _ -> true);
  Alcotest.(check bool) "unknown gate" true
    (try ignore (Netlist_io.of_string "INPUT(a n0)\nn1 = FROB(n0)\n"); false
     with Failure _ -> true);
  Alcotest.(check bool) "wrong arity" true
    (try ignore (Netlist_io.of_string "INPUT(a n0)\nn1 = NOT(n0, n0)\n"); false
     with Failure _ -> true)

(* ---- Transition faults ---- *)

let test_transition_universe_size () =
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  Alcotest.(check int) "same size as stuck-at universe"
    (Array.length (Fault.universe circuit))
    (Array.length (Transition.universe circuit))

let test_transition_coverage_bounds () =
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let faults = Transition.universe circuit in
  let g = Prng.create 31 in
  let stimulus = Array.init 256 (fun _ -> Prng.int g 63 - 31) in
  let drive sim cycle = Fir_netlist.drive fir sim stimulus.(cycle) in
  let r = Transition.coverage circuit ~output:"y" ~drive ~samples:256 ~faults in
  Alcotest.(check int) "partition" r.Transition.total
    (r.Transition.covered + r.Transition.untoggled + r.Transition.unobserved);
  Alcotest.(check bool) "meaningful coverage" true (r.Transition.coverage > 0.5);
  (* transition coverage can never exceed the stuck-at coverage of the
     corresponding capture faults *)
  let stuck = Fault.universe circuit in
  let detected = Fault_sim.detect_exact circuit ~output:"y" ~drive ~samples:256 ~faults:stuck in
  let stuck_detected = Array.fold_left (fun a f -> if f then a + 1 else a) 0 detected in
  Alcotest.(check bool) "bounded by stuck-at detection" true
    (r.Transition.covered <= stuck_detected)

let test_transition_constant_node_untoggled () =
  (* a net that never toggles cannot have its transition fault covered *)
  let b = B.create () in
  let a = B.input b "a" in
  let k = B.const b true in
  let frozen = B.gate2 b Netlist.Or2 a k in (* always 1: never falls *)
  let y = B.gate2 b Netlist.And2 frozen a in
  B.output b "y" [| y |];
  let circuit = Netlist.freeze b in
  let faults = [| { Transition.node = frozen; polarity = Transition.Slow_to_fall } |] in
  let g = Prng.create 1 in
  let drive sim _ = Logic_sim.drive_node sim a (if Prng.float g < 0.5 then -1 else 0) in
  let r = Transition.coverage circuit ~output:"y" ~drive ~samples:64 ~faults in
  Alcotest.(check int) "untoggled" 1 r.Transition.untoggled

(* ---- Atpg_lite ---- *)

let test_atpg_grading_reasonable () =
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let faults = Fault.collapse circuit (Fault.universe circuit) in
  let r = Atpg_lite.grade circuit ~output:"y" ~faults Atpg_lite.default_config in
  Alcotest.(check bool) "good coverage from random patterns" true (r.Atpg_lite.coverage > 0.8);
  Alcotest.(check int) "flags length" (Array.length faults)
    (Array.length r.Atpg_lite.detected_flags);
  Alcotest.(check int) "detected consistent" r.Atpg_lite.detected
    (Array.fold_left (fun a f -> if f then a + 1 else a) 0 r.Atpg_lite.detected_flags)

let test_atpg_deterministic () =
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let faults = Fault.collapse circuit (Fault.universe circuit) in
  let config = { Atpg_lite.default_config with Atpg_lite.patterns = 128 } in
  let a = Atpg_lite.grade circuit ~output:"y" ~faults config in
  let b = Atpg_lite.grade circuit ~output:"y" ~faults config in
  Alcotest.(check int) "same detection" a.Atpg_lite.detected b.Atpg_lite.detected

let test_atpg_grade_until_monotone () =
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let faults = Fault.collapse circuit (Fault.universe circuit) in
  let base = { Atpg_lite.default_config with Atpg_lite.patterns = 32 } in
  let small = Atpg_lite.grade circuit ~output:"y" ~faults base in
  let grown =
    Atpg_lite.grade_until circuit ~output:"y" ~faults base ~target_coverage:0.99
      ~max_patterns:512
  in
  Alcotest.(check bool) "more patterns never hurt" true
    (grown.Atpg_lite.coverage >= small.Atpg_lite.coverage);
  Alcotest.(check bool) "budget respected" true (grown.Atpg_lite.patterns_used <= 512)

let test_atpg_union () =
  let a = [| true; false; false |] and b = [| false; false; true |] in
  Alcotest.(check int) "union" 2 (Atpg_lite.union_coverage [ a; b ])

let test_atpg_union_mismatch_raises () =
  let a = [| true; false; false |] and b = [| false; true |] in
  Alcotest.check_raises "length mismatch rejected"
    (Invalid_argument
       "Atpg_lite.union_coverage: grading 1 has 2 flags, expected 3 (all gradings must \
        come from the same fault array)") (fun () ->
      ignore (Atpg_lite.union_coverage [ a; b ]))

let test_atpg_prefix_stability () =
  (* The stimulus table is prefix-stable, so a grading at p patterns must
     agree with the first-detect cycles of a grading at 2p patterns — the
     property grade_until's resume-from-remainder optimisation rests on. *)
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let faults = Fault.collapse circuit (Fault.universe circuit) in
  let small =
    Atpg_lite.grade circuit ~output:"y" ~faults
      { Atpg_lite.default_config with Atpg_lite.patterns = 64 }
  in
  let large =
    Atpg_lite.grade circuit ~output:"y" ~faults
      { Atpg_lite.default_config with Atpg_lite.patterns = 128 }
  in
  Array.iteri
    (fun i f ->
      if f && not large.Atpg_lite.detected_flags.(i) then
        Alcotest.failf "fault %d detected at 64 patterns but not at 128" i)
    small.Atpg_lite.detected_flags;
  Alcotest.(check bool) "last useful pattern within sweep" true
    (small.Atpg_lite.last_useful_pattern <= 64
    && large.Atpg_lite.last_useful_pattern <= 128)

let test_atpg_grade_until_resume_matches_full () =
  (* grade_until resumes each doubling with only the undetected remainder;
     the merged flags must equal a from-scratch grading at the final
     pattern count. *)
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let faults = Fault.collapse circuit (Fault.universe circuit) in
  let base = { Atpg_lite.default_config with Atpg_lite.patterns = 16 } in
  let resumed =
    Atpg_lite.grade_until circuit ~output:"y" ~faults base ~target_coverage:2.0
      ~max_patterns:256
  in
  let full =
    Atpg_lite.grade circuit ~output:"y" ~faults
      { base with Atpg_lite.patterns = resumed.Atpg_lite.patterns_used }
  in
  Alcotest.(check (array bool)) "resumed flags = full regrade"
    full.Atpg_lite.detected_flags resumed.Atpg_lite.detected_flags;
  Alcotest.(check int) "same detected count" full.Atpg_lite.detected
    resumed.Atpg_lite.detected

let test_atpg_last_useful_pattern_compacts () =
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let faults = Fault.collapse circuit (Fault.universe circuit) in
  let config = { Atpg_lite.default_config with Atpg_lite.patterns = 128 } in
  let r = Atpg_lite.grade circuit ~output:"y" ~faults config in
  Alcotest.(check bool) "prefix non-trivial" true
    (r.Atpg_lite.last_useful_pattern > 0 && r.Atpg_lite.last_useful_pattern <= 128);
  let compacted =
    Atpg_lite.grade circuit ~output:"y" ~faults
      { config with Atpg_lite.patterns = r.Atpg_lite.last_useful_pattern }
  in
  Alcotest.(check (array bool)) "compacted sweep detects the same set"
    r.Atpg_lite.detected_flags compacted.Atpg_lite.detected_flags

(* ---- Stream capture: every fault against a single-fault reference ---- *)

module Pool = Msoc_util.Pool

let capture_pools = [ 1; 2; 4 ]

(* What the capture engine must reproduce: a dedicated full-netlist
   simulation with only [fault] injected, or none. *)
let reference_stream circuit ~output ~drive ~samples fault =
  let sim = Logic_sim.create circuit in
  Option.iter
    (fun (f : Fault.t) -> Logic_sim.inject sim ~node:f.Fault.node ~lane:0 ~stuck:f.Fault.stuck)
    fault;
  let bus = Netlist.find_output circuit output in
  Array.init samples (fun cycle ->
      drive sim cycle;
      Logic_sim.eval sim;
      let y = Logic_sim.read_bus_lane sim bus ~lane:0 in
      Logic_sim.tick sim;
      y)

let faults_of_kinds circuit kinds =
  List.concat_map
    (fun node ->
      if List.mem (Netlist.kind circuit node) kinds then
        [ { Fault.node; stuck = false }; { Fault.node; stuck = true } ]
      else [])
    (List.init (Netlist.node_count circuit) Fun.id)
  |> Array.of_list

(* A random sequential circuit: gates, inverters and DFFs over earlier
   nodes (inputs and constants included), a 6-bit output bus, and logic
   that reaches no output, whose faults are unobservable. *)
let random_sequential seed =
  let g = Prng.create seed in
  let b = B.create () in
  let x = Array.init 4 (fun i -> B.input b (Printf.sprintf "x%d" i)) in
  let nodes = ref (Array.append x [| B.const b false; B.const b true |]) in
  let pick () = !nodes.(Prng.int g (Array.length !nodes)) in
  let kinds = Netlist.[| And2; Or2; Nand2; Nor2; Xor2; Xnor2 |] in
  for _ = 1 to 60 do
    let node =
      match Prng.int g 6 with
      | 0 -> B.dff b (pick ())
      | 1 -> B.not_ b (pick ())
      | _ -> B.gate2 b kinds.(Prng.int g 6) (pick ()) (pick ())
    in
    nodes := Array.append !nodes [| node |]
  done;
  let y = Array.init 6 (fun _ -> pick ()) in
  let dangling = B.gate2 b Netlist.And2 (pick ()) (B.dff b (pick ())) in
  B.output b "y" y;
  (Netlist.freeze b, x, dangling)

(* Run [Fault_sim.run] at every pool size and check every fault's stream,
   and the fault-free one, against the single-fault reference. *)
let check_every_stream circuit ~drive ~samples ~faults =
  let reference = reference_stream circuit ~output:"y" ~drive ~samples in
  let good = reference None in
  let expected = Array.map (fun f -> reference (Some f)) faults in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let r = Fault_sim.run ~pool circuit ~output:"y" ~drive ~samples ~faults in
          Alcotest.(check (array int))
            (Printf.sprintf "pool %d good stream" size)
            good r.Fault_sim.good_stream;
          Array.iteri
            (fun i want ->
              if r.Fault_sim.fault_streams.(i) <> want then
                Alcotest.failf "pool %d: fault %d (%a) stream differs from the reference" size
                  i Fault.pp faults.(i))
            expected))
    capture_pools

let test_capture_fir_every_fault () =
  (* every fault of the FIR — collapsed faults plus every Input and DFF
     fault, over several batches — at a sample count that is not a
     multiple of the 32-cycle chunk *)
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let faults =
    Array.append
      (Fault.collapse circuit (Fault.universe circuit))
      (faults_of_kinds circuit [ Netlist.Input; Netlist.Dff ])
  in
  let output = Netlist.find_output circuit "y" in
  let observable = Cone.observable circuit ~output in
  let simulated =
    Array.fold_left (fun n (f : Fault.t) -> if observable.(f.Fault.node) then n + 1 else n)
      0 faults
  in
  Alcotest.(check bool) "at least 3 batches" true (simulated > 2 * Logic_sim.lanes);
  let g = Prng.create 77 in
  let samples = 77 in
  let stimulus = Array.init samples (fun _ -> Prng.int g 63 - 31) in
  let drive sim cycle = Fir_netlist.drive fir sim stimulus.(cycle) in
  check_every_stream circuit ~drive ~samples ~faults

let test_capture_random_every_fault () =
  (* random sequential circuits: faults on inputs, constants, DFFs and
     logic that reaches no output *)
  List.iter
    (fun seed ->
      let circuit, x, dangling = random_sequential seed in
      let faults =
        Array.concat
          [ Fault.universe circuit;
            faults_of_kinds circuit [ Netlist.Const0; Netlist.Const1 ] ]
      in
      let observable = Cone.observable circuit ~output:(Netlist.find_output circuit "y") in
      Alcotest.(check bool) "dangling logic is unobservable" false observable.(dangling);
      let g = Prng.create (seed + 1) in
      let samples = 77 in
      let stimulus = Array.init samples (fun _ -> Prng.int g 16) in
      let drive sim cycle = Logic_sim.drive_bus sim x stimulus.(cycle) in
      check_every_stream circuit ~drive ~samples ~faults)
    [ 1; 2; 3; 4 ]

let test_capture_unobservable_fresh () =
  let circuit, x, dangling = random_sequential 5 in
  let faults =
    [| { Fault.node = dangling; stuck = true }; { Fault.node = dangling; stuck = false } |]
  in
  let drive sim cycle = Logic_sim.drive_bus sim x (cycle land 15) in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let r = Fault_sim.run ~pool circuit ~output:"y" ~drive ~samples:40 ~faults in
          Array.iter
            (fun s ->
              Alcotest.(check (array int)) "fault-free stream" r.Fault_sim.good_stream s;
              if s == r.Fault_sim.good_stream then Alcotest.fail "aliases the good stream")
            r.Fault_sim.fault_streams;
          if r.Fault_sim.fault_streams.(0) == r.Fault_sim.fault_streams.(1) then
            Alcotest.fail "two faults share one stream array"))
    capture_pools

let test_capture_empty_faults () =
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let stimulus = Array.init 77 (fun i -> ((i * 13) mod 63) - 31) in
  let drive sim cycle = Fir_netlist.drive fir sim stimulus.(cycle) in
  let good = Fir_netlist.response fir stimulus in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let r = Fault_sim.run ~pool circuit ~output:"y" ~drive ~samples:77 ~faults:[||] in
          Alcotest.(check (array int)) "good stream" good r.Fault_sim.good_stream;
          Alcotest.(check int) "no streams" 0 (Array.length r.Fault_sim.fault_streams);
          let calls = ref 0 in
          let g =
            Fault_sim.run_batches ~pool circuit ~output:"y" ~drive ~samples:77 ~faults:[||]
              ~on_batch:(fun _ _ -> incr calls)
          in
          Alcotest.(check (array int)) "run_batches good stream" good g;
          Alcotest.(check int) "no batch" 0 !calls))
    capture_pools;
  let g =
    Fault_sim.run_fold circuit ~output:"y" ~drive ~samples:77 ~faults:[||]
      ~on_fault:(fun _ _ _ -> Alcotest.fail "no fault to report")
  in
  Alcotest.(check (array int)) "run_fold good stream" good g

let test_capture_fold_and_batches () =
  (* run_fold reports every fault in order, unobservable ones included;
     run_batches reports each simulated fault exactly once, by index *)
  let circuit, x, dangling = random_sequential 6 in
  let faults =
    Array.append [| { Fault.node = dangling; stuck = true } |] (Fault.universe circuit)
  in
  let drive sim cycle = Logic_sim.drive_bus sim x ((cycle * 7) land 15) in
  let samples = 77 in
  let r = Fault_sim.run circuit ~output:"y" ~drive ~samples ~faults in
  let next = ref 0 in
  let good =
    Fault_sim.run_fold circuit ~output:"y" ~drive ~samples ~faults
      ~on_fault:(fun i f stream ->
        Alcotest.(check int) "fault order" !next i;
        if not (Fault.equal f faults.(i)) then Alcotest.fail "fault mismatch";
        if stream <> r.Fault_sim.fault_streams.(i) then Alcotest.failf "fault %d stream" i;
        incr next)
  in
  Alcotest.(check int) "every fault reported" (Array.length faults) !next;
  Alcotest.(check (array int)) "good stream" r.Fault_sim.good_stream good;
  let observable = Cone.observable circuit ~output:(Netlist.find_output circuit "y") in
  Pool.with_pool ~size:2 (fun pool ->
      let seen = Array.make (Array.length faults) 0 in
      let mutex = Mutex.create () in
      let (_ : int array) =
        Fault_sim.run_batches ~pool circuit ~output:"y" ~drive ~samples ~faults
          ~on_batch:(fun idx streams ->
            Mutex.protect mutex (fun () ->
                Array.iteri
                  (fun lane i ->
                    seen.(i) <- seen.(i) + 1;
                    if streams.(lane) <> r.Fault_sim.fault_streams.(i) then
                      Alcotest.failf "batch stream of fault %d" i)
                  idx))
      in
      Array.iteri
        (fun i (f : Fault.t) ->
          Alcotest.(check int)
            (Printf.sprintf "fault %d reported once iff observable" i)
            (if observable.(f.Fault.node) then 1 else 0)
            seen.(i))
        faults)

let test_capture_spectral_coverage_telemetry () =
  (* one spectral_coverage call is one capture run at every pool size,
     and the judging heartbeat advances once per fault even though
     identical streams share one verdict *)
  let module Digital_test = Msoc_synth.Digital_test in
  let module Obs = Msoc_obs.Obs in
  let module Progress = Msoc_obs.Progress in
  let config =
    { Digital_test.default_config with Digital_test.taps = 5; input_bits = 8; coeff_bits = 6 }
  in
  let fir = Digital_test.build config in
  let faults = Digital_test.collapsed_faults fir in
  let nf = Array.length faults in
  let fs = 1e6 and samples = 128 in
  let tone = Digital_test.coherent_tone ~sample_rate:fs ~samples ~target:90e3 in
  let codes =
    Digital_test.ideal_codes config ~sample_rate:fs ~samples ~freqs:[ tone ] ~amplitude_fs:0.9
  in
  let coverage pool =
    Digital_test.spectral_coverage ~pool config fir ~sample_rate:fs ~input_codes:codes
      ~reference_codes:codes ~tone_freqs:[ tone ] ~faults
  in
  let serial = Pool.with_pool ~size:1 coverage in
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ();
      Progress.disable ();
      Progress.reset ())
    (fun () ->
      Obs.enable ();
      Progress.enable ();
      List.iter
        (fun size ->
          Obs.reset ();
          Progress.reset ();
          let det = Pool.with_pool ~size coverage in
          if det <> serial then Alcotest.failf "pool %d detection differs" size;
          let cell name = Progress.value (Progress.cell name) in
          Alcotest.(check int) "one run" 1 (Obs.counter_total "fault_sim.runs");
          Alcotest.(check int) "every fault counted" nf (Obs.counter_total "fault_sim.faults");
          Alcotest.(check (float 0.0)) "judged once per fault" (float_of_int nf)
            (cell "coverage.judged");
          Alcotest.(check (float 0.0)) "detected heartbeat"
            (float_of_int det.Digital_test.detected)
            (cell "coverage.detected"))
        capture_pools)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "msoc_netlist"
    [ ( "ir",
        [ Alcotest.test_case "gate truth tables" `Quick test_gate_truth_tables;
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "dff timing" `Quick test_dff_delays_one_cycle;
          Alcotest.test_case "dangling ref rejected" `Quick test_combinational_cycle_rejected;
          Alcotest.test_case "topological order" `Quick test_eval_order_topological;
          Alcotest.test_case "fanout counts" `Quick test_fanout_counts;
          Alcotest.test_case "gate counts/stats" `Quick test_gate_counts_and_stats ] );
      ( "arith",
        Alcotest.test_case "ripple adder exhaustive" `Quick test_ripple_adder_exhaustive
        :: Alcotest.test_case "scale const known" `Quick test_scale_const_known_coeffs
        :: Alcotest.test_case "width helpers" `Quick test_width_helpers
        :: Alcotest.test_case "negate" `Quick test_negate_and_sub
        :: Alcotest.test_case "const bus" `Quick test_const_bus
        :: Alcotest.test_case "array multiplier exhaustive" `Quick
             test_multiply_signed_exhaustive
        :: qcheck
             [ prop_scale_const_random; prop_csd_properties; prop_multiply_signed_random ] );
      ( "fault",
        [ Alcotest.test_case "universe size" `Quick test_fault_universe_size;
          Alcotest.test_case "collapse through inverter chain" `Quick
            test_fault_collapse_not_chain;
          Alcotest.test_case "fanout blocks collapse" `Quick test_fault_no_collapse_on_fanout;
          Alcotest.test_case "injection behaviour" `Quick test_injected_fault_behaviour ] );
      ( "fault-sim",
        [ Alcotest.test_case "parallel matches serial" `Quick
            test_parallel_fault_sim_matches_serial;
          Alcotest.test_case "good stream = golden" `Quick test_good_stream_matches_response;
          Alcotest.test_case "detect_exact consistency" `Quick test_detect_exact_subset_of_run;
          Alcotest.test_case "run_fold streaming" `Quick test_run_fold_streaming_equivalence;
          Alcotest.test_case "empty fault list still simulates good machine" `Quick
            test_run_empty_faults;
          Alcotest.test_case "detect_cycles consistency + compaction" `Quick
            test_detect_cycles_consistency ]
        @ qcheck [ prop_dropped_faults_never_undetect ] );
      ( "fir-netlist",
        Alcotest.test_case "exactness vs golden" `Quick test_fir_netlist_exactness
        :: Alcotest.test_case "regions" `Quick test_fir_regions
        :: Alcotest.test_case "input clamping" `Quick test_fir_input_clamping
        :: Alcotest.test_case "dc gain" `Quick test_fir_dc_gain_via_netlist
        :: Alcotest.test_case "direct form vs golden" `Quick test_direct_form_matches_golden
        :: Alcotest.test_case "architectures agree" `Quick test_architectures_agree
        :: qcheck [ prop_fir_netlist_random_configs ] );
      ( "netlist-io",
        [ Alcotest.test_case "roundtrip structure" `Quick test_io_roundtrip_exact;
          Alcotest.test_case "roundtrip behaviour" `Quick test_io_roundtrip_behaviour;
          Alcotest.test_case "rejects garbage" `Quick test_io_rejects_garbage ] );
      ( "transition",
        [ Alcotest.test_case "universe size" `Quick test_transition_universe_size;
          Alcotest.test_case "coverage bounds" `Quick test_transition_coverage_bounds;
          Alcotest.test_case "untoggled net" `Quick test_transition_constant_node_untoggled ] );
      ( "atpg-lite",
        [ Alcotest.test_case "grading reasonable" `Quick test_atpg_grading_reasonable;
          Alcotest.test_case "deterministic" `Quick test_atpg_deterministic;
          Alcotest.test_case "grade_until monotone" `Quick test_atpg_grade_until_monotone;
          Alcotest.test_case "union" `Quick test_atpg_union;
          Alcotest.test_case "union length mismatch raises" `Quick
            test_atpg_union_mismatch_raises;
          Alcotest.test_case "stimulus prefix stability" `Quick test_atpg_prefix_stability;
          Alcotest.test_case "grade_until resume = full regrade" `Quick
            test_atpg_grade_until_resume_matches_full;
          Alcotest.test_case "last useful pattern compacts" `Quick
            test_atpg_last_useful_pattern_compacts ] );
      ( "capture",
        [ Alcotest.test_case "FIR: every fault = single-fault sim" `Quick
            test_capture_fir_every_fault;
          Alcotest.test_case "random circuits: every fault" `Quick
            test_capture_random_every_fault;
          Alcotest.test_case "unobservable: fresh fault-free copy" `Quick
            test_capture_unobservable_fresh;
          Alcotest.test_case "no faults" `Quick test_capture_empty_faults;
          Alcotest.test_case "run_fold and run_batches" `Quick
            test_capture_fold_and_batches;
          Alcotest.test_case "spectral_coverage: one run" `Quick
            test_capture_spectral_coverage_telemetry ] ) ]
