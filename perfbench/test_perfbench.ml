(* Tests of the benchmark's own parts: seeded generators, the percentile
   rule, the reply matcher and the /proc reader. *)

open Msoc_perfbench

let workloads = [ Gen.Sweep; Gen.Interactive; Gen.Contended ]

let test_same_seed () =
  List.iter
    (fun w ->
      Alcotest.(check string)
        (Gen.workload_name w ^ " is byte-identical for one seed")
        (Gen.request_list w ~seed:7 200)
        (Gen.request_list w ~seed:7 200))
    workloads

let test_other_seed () =
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Gen.workload_name w ^ " differs for another seed")
        false
        (String.equal (Gen.request_list w ~seed:7 200) (Gen.request_list w ~seed:8 200)))
    workloads

let test_sweep_keys_distinct () =
  let items = Gen.take 500 (Gen.sweep ~seed:3) in
  let keys = List.filter_map (fun (i : Gen.item) -> Msoc_serve.Protocol.cache_key i.req) items in
  Alcotest.(check int) "every heavy key is distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  let warm = List.filter_map Msoc_serve.Protocol.cache_key (Gen.warmup Gen.Sweep ~seed:3) in
  Alcotest.(check bool) "no warm-up key is measured" false
    (List.exists (fun k -> List.mem k keys) warm)

let test_no_trace_field () =
  List.iter
    (fun w ->
      let l = Gen.request_list w ~seed:5 300 in
      Alcotest.(check bool) (Gen.workload_name w ^ " never asks for a trace") false
        (Load.contains l "\"trace\""))
    workloads

let ok = function Ok v -> Some v | Error _ -> None

let test_percentile_rule () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option (float 0.0))) "p50 of 20 samples" (Some 10.0)
    (ok (Stats.percentile ~p:0.5 (xs 20)));
  Alcotest.(check (option (float 0.0))) "p50 of 19 samples is refused" None
    (ok (Stats.percentile ~p:0.5 (xs 19)));
  Alcotest.(check (option (float 0.0))) "p90 of 100 samples" (Some 90.0)
    (ok (Stats.percentile ~p:0.9 (xs 100)));
  Alcotest.(check (option (float 0.0))) "p90 of 99 samples is refused" None
    (ok (Stats.percentile ~p:0.9 (xs 99)));
  Alcotest.(check (option (float 0.0))) "p99 of 1000 samples" (Some 990.0)
    (ok (Stats.percentile ~p:0.99 (xs 1000)));
  Alcotest.(check (option (float 0.0))) "p99 of 999 samples is refused" None
    (ok (Stats.percentile ~p:0.99 (xs 999)))

let test_matcher_out_of_order () =
  let m = Matcher.create () in
  let d s = Digest.string s in
  Matcher.add m ~verb:"faultsim" "heavy";
  Matcher.add m ~verb:"plan" ~expected:(d "A") "plan-a-1";
  Matcher.add m ~verb:"plan" ~expected:(d "B") "plan-b";
  Matcher.add m ~verb:"plan" ~expected:(d "A") "plan-a-2";
  Matcher.add m ~verb:"ping" "ping";
  let take verb body = Matcher.take m ~verb ~digest:(d body) in
  Alcotest.(check (option string)) "plan B overtakes" (Some "plan-b") (take "plan" "B");
  Alcotest.(check (option string)) "ping overtakes" (Some "ping") (take "ping" "pong");
  Alcotest.(check (option string)) "identical requests FIFO" (Some "plan-a-1") (take "plan" "A");
  Alcotest.(check (option string)) "a wrong body matches nothing" None (take "plan" "C");
  Alcotest.(check (option string)) "second identical" (Some "plan-a-2") (take "plan" "A");
  Alcotest.(check (option string)) "unknown body by verb" (Some "heavy") (take "faultsim" "x");
  Alcotest.(check bool) "drained" true (Matcher.is_empty m)

let test_vmhwm () =
  let status = "Name:\tmsoc_cli.exe\nVmPeak:\t  612340 kB\nVmHWM:\t  234512 kB\nVmRSS:\t  200000 kB\n" in
  Alcotest.(check (option int)) "VmHWM in kB" (Some 234512) (Proc.parse_vmhwm status);
  Alcotest.(check (option int)) "absent" None (Proc.parse_vmhwm "VmRSS:\t 1 kB\n");
  match Proc.parse_vmhwm (Proc.read_file "/proc/self/status") with
  | Some kb -> Alcotest.(check bool) "own VmHWM is positive" true (kb > 0)
  | None -> Alcotest.fail "no VmHWM in /proc/self/status"

let () =
  Alcotest.run "perfbench"
    [ ( "generators",
        [ Alcotest.test_case "same seed, same requests" `Quick test_same_seed;
          Alcotest.test_case "other seed, other requests" `Quick test_other_seed;
          Alcotest.test_case "sweep keys distinct" `Quick test_sweep_keys_distinct;
          Alcotest.test_case "no trace field" `Quick test_no_trace_field ] );
      ("stats", [ Alcotest.test_case "percentile sample rule" `Quick test_percentile_rule ]);
      ("matcher", [ Alcotest.test_case "out-of-order replies" `Quick test_matcher_out_of_order ]);
      ("proc", [ Alcotest.test_case "VmHWM parser" `Quick test_vmhwm ]) ]
