(* Daemon tests: the bounded work queue's semantics (including
   multi-consumer delivery and accept/reject accounting under
   contention), the wire-protocol round trip, queue-full and class-cap
   backpressure (a structured "overloaded" response, never a dropped
   connection), byte-identity of daemon answers with the offline CLI
   across pool and executor counts — cold, cached and joined — the
   single-flight cache's sharing, failure and class-cap rules, the
   metrics verb's Prometheus families, and the per-request trace export
   round-tripping through the offline trace analyses. *)

module Workq = Msoc_util.Workq
module Pool = Msoc_util.Pool
module Trace = Msoc_obs.Trace
module Protocol = Msoc_serve.Protocol
module Server = Msoc_serve.Server
module Client = Msoc_serve.Client
module Verbs = Msoc_serve.Verbs
module Topology = Msoc_analog.Topology
open Msoc_synth

let contains_sub text needle =
  let nl = String.length needle and tl = String.length text in
  let rec scan i =
    i + nl <= tl && (String.equal (String.sub text i nl) needle || scan (i + 1))
  in
  scan 0

let check_contains text needles =
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "output contains %S" needle) true
        (contains_sub text needle))
    needles

let socket_counter = ref 0

let temp_socket () =
  incr socket_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "msoc-test-%d-%d.sock" (Unix.getpid ()) !socket_counter)

(* ---- bounded work queue ---- *)

let test_workq_bounds () =
  (match Workq.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must be rejected");
  let q = Workq.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (Workq.capacity q);
  Alcotest.(check bool) "push 1" true (Workq.try_push q 1);
  Alcotest.(check bool) "push 2" true (Workq.try_push q 2);
  Alcotest.(check int) "length" 2 (Workq.length q);
  Alcotest.(check bool) "push to a full queue refused" false (Workq.try_push q 3);
  Alcotest.(check (option int)) "fifo head" (Some 1) (Workq.pop_opt q);
  Alcotest.(check bool) "pop frees the slot" true (Workq.try_push q 3);
  Alcotest.(check (option int)) "fifo order kept" (Some 2) (Workq.pop_opt q);
  Alcotest.(check (option int)) "late push delivered" (Some 3) (Workq.pop_opt q);
  Alcotest.(check (option int)) "empty" None (Workq.pop_opt q)

let test_workq_close () =
  let q = Workq.create ~capacity:4 in
  Alcotest.(check bool) "push before close" true (Workq.try_push q 7);
  Workq.close q;
  Workq.close q (* idempotent *);
  Alcotest.(check bool) "closed" true (Workq.is_closed q);
  Alcotest.(check bool) "push after close refused" false (Workq.try_push q 8);
  (* close is end-of-stream, not abort: queued work still drains *)
  Alcotest.(check (option int)) "drains after close" (Some 7) (Workq.pop q);
  Alcotest.(check (option int)) "then end of stream" None (Workq.pop q)

let test_workq_cross_domain () =
  (* a blocked consumer is woken by a push from another domain, and by
     close when no more work is coming *)
  let q = Workq.create ~capacity:2 in
  let consumer =
    Domain.spawn (fun () ->
        let rec drain acc =
          match Workq.pop q with Some v -> drain (v :: acc) | None -> List.rev acc
        in
        drain [])
  in
  List.iter
    (fun v ->
      let rec push () = if not (Workq.try_push q v) then push () in
      push ())
    [ 1; 2; 3; 4; 5 ];
  Workq.close q;
  Alcotest.(check (list int)) "all items in order" [ 1; 2; 3; 4; 5 ]
    (Domain.join consumer)

(* Drain the queue from [n_consumers] domains until close; returns the
   per-consumer item lists (each in that consumer's pop order). *)
let drain_with q n_consumers =
  List.init n_consumers (fun _ ->
      Domain.spawn (fun () ->
          let rec drain acc =
            match Workq.pop q with Some v -> drain (v :: acc) | None -> List.rev acc
          in
          drain []))

let push_all_with_retry q items =
  List.iter
    (fun v ->
      let rec push () =
        if not (Workq.try_push q v) then begin
          Domain.cpu_relax ();
          push ()
        end
      in
      push ())
    items

let test_workq_multi_consumer () =
  (* K consumers draining one producer: every item is delivered exactly
     once regardless of K, and with K = 1 the FIFO order survives *)
  List.iter
    (fun n_consumers ->
      let q = Workq.create ~capacity:4 in
      let items = List.init 500 (fun i -> i) in
      let consumers = drain_with q n_consumers in
      push_all_with_retry q items;
      Workq.close q;
      let per_consumer = List.map Domain.join consumers in
      let consumed = List.concat per_consumer in
      Alcotest.(check (list int))
        (Printf.sprintf "no item lost or duplicated at %d consumer(s)" n_consumers)
        items
        (List.sort compare consumed);
      Alcotest.(check int)
        (Printf.sprintf "accepted matches deliveries at %d consumer(s)" n_consumers)
        (List.length items) (Workq.accepted q);
      if n_consumers = 1 then
        Alcotest.(check (list int)) "single consumer preserves FIFO order" items
          consumed)
    [ 1; 2; 4 ]

let test_workq_overload_accounting () =
  (* two producer domains hammering a capacity-2 queue with two consumers:
     accepted + rejected equals the exact number of try_push calls, and
     every accepted item is consumed exactly once *)
  let q = Workq.create ~capacity:2 in
  let per_producer = 400 in
  let consumers = drain_with q 2 in
  let producers =
    List.init 2 (fun p ->
        Domain.spawn (fun () ->
            let attempts = ref 0 in
            for v = 0 to per_producer - 1 do
              let item = (p * per_producer) + v in
              let rec push () =
                incr attempts;
                if not (Workq.try_push q item) then begin
                  Domain.cpu_relax ();
                  push ()
                end
              in
              push ()
            done;
            !attempts))
  in
  let attempts = List.fold_left ( + ) 0 (List.map Domain.join producers) in
  Workq.close q;
  let consumed = List.concat (List.map Domain.join consumers) in
  Alcotest.(check int) "every accepted item consumed once" (2 * per_producer)
    (List.length (List.sort_uniq compare consumed));
  Alcotest.(check int) "accepted counts the successes" (2 * per_producer)
    (Workq.accepted q);
  Alcotest.(check int) "accepted + rejected = attempts" attempts
    (Workq.accepted q + Workq.rejected q)

let prop_workq_exactly_once =
  QCheck.Test.make ~count:25
    ~name:"workq delivers every accepted item exactly once (any capacity/consumers)"
    QCheck.(triple (int_range 1 8) (int_range 0 120) (int_range 1 4))
    (fun (capacity, n_items, n_consumers) ->
      let q = Workq.create ~capacity in
      let items = List.init n_items (fun i -> i) in
      let consumers = drain_with q n_consumers in
      push_all_with_retry q items;
      Workq.close q;
      let consumed = List.concat (List.map Domain.join consumers) in
      List.sort compare consumed = items
      && Workq.accepted q = n_items
      && Workq.pop_opt q = None)

(* ---- wire protocol ---- *)

let test_protocol_roundtrip () =
  let req =
    Protocol.request ~topology:"default" ~strategy:"nominal" ~seed:3 ~taps:5
      ~samples:128 ~trace:Protocol.Trace_chrome Protocol.Faultsim
  in
  (match Protocol.request_of_json (Protocol.request_to_json req) with
  | Ok req' -> Alcotest.(check bool) "request round trips" true (req = req')
  | Error e -> Alcotest.failf "request rejected: %s" e);
  (* a bare verb is a complete request at the CLI defaults *)
  (match Protocol.request_of_json {|{"verb":"plan"}|} with
  | Ok req' ->
    Alcotest.(check bool) "bare plan equals the defaults" true
      (req' = Protocol.request Protocol.Plan)
  | Error e -> Alcotest.failf "minimal request rejected: %s" e);
  (* schedule carries its own fields through the wire *)
  let sched =
    Protocol.request ~soc:"narrow" ~restarts:3 ~iters:77 ~seed:9 Protocol.Schedule
  in
  (match Protocol.request_of_json (Protocol.request_to_json sched) with
  | Ok req' -> Alcotest.(check bool) "schedule request round trips" true (sched = req')
  | Error e -> Alcotest.failf "schedule request rejected: %s" e);
  (match Protocol.request_of_json {|{"verb":"schedule"}|} with
  | Ok req' ->
    Alcotest.(check bool) "bare schedule equals the defaults" true
      (req' = Protocol.request Protocol.Schedule)
  | Error e -> Alcotest.failf "minimal schedule request rejected: %s" e);
  (match Protocol.request_of_json {|{"verb":"frobnicate"}|} with
  | Ok _ -> Alcotest.fail "unknown verb must be rejected"
  | Error _ -> ());
  (match Protocol.request_of_json {|{"verb":"plan","trace":"interpretive-dance"}|} with
  | Ok _ -> Alcotest.fail "unknown trace format must be rejected"
  | Error _ -> ());
  let resp =
    { Protocol.status = Protocol.Overloaded;
      trace_id = "s-000001";
      verb = "plan";
      body = "server overloaded";
      queue_ns = 0;
      service_ns = 0;
      pool_size = 2;
      trace_export = None }
  in
  match Protocol.response_of_json (Protocol.response_to_json resp) with
  | Ok resp' -> Alcotest.(check bool) "response round trips" true (resp = resp')
  | Error e -> Alcotest.failf "response rejected: %s" e

let json_string s =
  let b = Buffer.create 16 in
  Msoc_obs.Json.escape_to b s;
  Buffer.contents b

let test_protocol_typed_fields () =
  let rejects line field =
    match Protocol.request_of_json line with
    | Ok _ -> Alcotest.failf "%s must be rejected" line
    | Error e ->
      Alcotest.(check bool) (Printf.sprintf "%s: error names %s" line field) true
        (contains_sub e (Printf.sprintf "field %S" field))
  in
  (* each of these was once answered as a different request than sent *)
  rejects {|{"verb":"faultsim","seed":"7"}|} "seed";
  rejects {|{"verb":"faultsim","taps":9.7}|} "taps";
  rejects {|{"verb":"faultsim","samples":1e400}|} "samples";
  rejects {|{"verb":"montecarlo","trials":9007199254740993}|} "trials";
  rejects {|{"verb":"plan","topology":5}|} "topology";
  rejects {|{"verb":"plan","strategy":null}|} "strategy";
  rejects {|{"verb":"schedule","restarts":true}|} "restarts";
  rejects {|{"verb":"schedule","soc":["narrow"]}|} "soc";
  let accepts line want =
    match Protocol.request_of_json line with
    | Ok r -> Alcotest.(check bool) (line ^ " parses as intended") true (r = want)
    | Error e -> Alcotest.failf "%s rejected: %s" line e
  in
  accepts {|{"verb":"faultsim","taps":9.0,"seed":-3}|}
    (Protocol.request ~taps:9 ~seed:(-3) Protocol.Faultsim);
  accepts {|{"verb":"faultsim","taps":7,"colour":"red","extra":{"n":1.5}}|}
    (Protocol.request ~taps:7 Protocol.Faultsim);
  accepts {|{"verb":"plan","topology":"no-such-topology"}|}
    (Protocol.request ~topology:"no-such-topology" Protocol.Plan)

let test_cache_key_injective () =
  let key ~topology ~strategy =
    Protocol.cache_key (Protocol.request ~topology ~strategy Protocol.Plan)
  in
  let distinct (t1, s1) (t2, s2) =
    Alcotest.(check bool)
      (Printf.sprintf "(%S, %S) and (%S, %S) key apart" t1 s1 t2 s2)
      false
      (key ~topology:t1 ~strategy:s1 = key ~topology:t2 ~strategy:s2)
  in
  distinct ("x|adaptive", "y") ("x", "adaptive|y");
  distinct ("1:x|1:y", "") ("1:x", "1:y|");
  distinct ("", "3:abc") ("3:abc", "")

let bump : type a. a Protocol.kind -> a -> a =
 fun kind v -> match kind with Protocol.Int -> v + 1 | Protocol.String _ -> v ^ "'"

let test_cache_key_read_set () =
  List.iter
    (fun (Protocol.Field f) ->
      Alcotest.(check bool) (f.name ^ " is read by some verb") true (f.verbs <> []))
    Protocol.fields;
  List.iter
    (fun verb ->
      let base = Protocol.request verb in
      let key0 = Protocol.cache_key base in
      Alcotest.(check bool) "the trace export is not part of the key" true
        (Protocol.cache_key { base with trace = Some Protocol.Trace_jsonl } = key0);
      List.iter
        (fun (Protocol.Field f as field) ->
          let key = Protocol.cache_key (f.set (bump f.kind (f.get base)) base) in
          let what = Printf.sprintf "%s/%s" (Protocol.verb_name verb) f.name in
          match verb with
          | Protocol.Metrics | Ping | Sleep ->
            Alcotest.(check (option string)) (what ^ ": never keyed") None key
          | _ ->
            Alcotest.(check bool) (what ^ ": key changes iff the verb reads it")
              (Protocol.reads verb field) (key <> key0))
        Protocol.fields)
    Protocol.all_verbs

let test_protocol_pinned_bytes () =
  Alcotest.(check string) "bare plan"
    {|{"verb":"plan","topology":"default","strategy":"adaptive","seed":0,"taps":9,"input_bits":10,"coeff_bits":8,"samples":1024,"tones":2,"soc":"reference","restarts":8,"iters":400,"trials":50000,"sleep_ms":50}|}
    (Protocol.request_to_json (Protocol.request Protocol.Plan));
  Alcotest.(check string) "non-default faultsim"
    {|{"verb":"faultsim","topology":"sigma-delta","strategy":"adaptive","seed":3,"taps":5,"input_bits":12,"coeff_bits":6,"samples":256,"tones":1,"soc":"reference","restarts":8,"iters":400,"trials":50000,"sleep_ms":50,"trace":"folded"}|}
    (Protocol.request_to_json
       (Protocol.request ~taps:5 ~input_bits:12 ~coeff_bits:6 ~samples:256 ~tones:1
          ~seed:3 ~topology:"sigma-delta" ~trace:Protocol.Trace_folded Protocol.Faultsim))

(* Generators for the table-wide properties: strings mix arbitrary bytes
   with delimiters, quotes, escapes, control characters and UTF-8; ints
   span the exact JSON range. *)
let max_exact_int = (1 lsl 53) - 1

let gen_field_string =
  QCheck.Gen.(
    map String.concat (return "")
    <*> list_size (0 -- 6)
          (oneof
             [ map (String.make 1) char;
               oneofl [ "|"; ":"; "\""; "\\"; "\n"; "\000"; "\031"; "é"; "日本"; "1:a|" ] ]))

let gen_field_int =
  QCheck.Gen.(
    oneof
      [ small_signed_int;
        int_range (-max_exact_int) max_exact_int;
        oneofl [ 0; max_exact_int; -max_exact_int ] ])

let gen_trace_format =
  QCheck.Gen.oneofl [ Protocol.Trace_jsonl; Protocol.Trace_chrome; Protocol.Trace_folded ]

let gen_request =
  let open QCheck.Gen in
  let set r (Protocol.Field f) =
    match f.kind with
    | Protocol.Int -> map (fun v -> f.set v r) gen_field_int
    | Protocol.String _ -> map (fun v -> f.set v r) gen_field_string
  in
  List.fold_left
    (fun acc field -> acc >>= fun r -> set r field)
    (map2 (fun verb trace -> Protocol.request ?trace verb) (oneofl Protocol.all_verbs)
       (opt gen_trace_format))
    Protocol.fields

let prop_protocol_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json round trip, every verb"
    (QCheck.make ~print:Protocol.request_to_json gen_request)
    (fun r -> Protocol.request_of_json (Protocol.request_to_json r) = Ok r)

(* [request_of_json] is total: an [Ok] re-emits to itself, anything else
   is an [Error], and nothing raises. *)
let parses_totally line =
  match Protocol.request_of_json line with
  | Error _ -> true
  | Ok r -> Protocol.request_of_json (Protocol.request_to_json r) = Ok r

let prop_parser_bytes =
  let gen =
    QCheck.Gen.(
      oneof
        [ string_size ~gen:char (0 -- 64);
          (* near misses: a valid line cut short or with one byte replaced *)
          map2
            (fun line (cut, c) ->
              let n = String.length line in
              let i = cut mod n in
              if c = '\000' then String.sub line 0 i
              else String.mapi (fun j x -> if j = i then c else x) line)
            (map Protocol.request_to_json gen_request)
            (pair nat char) ])
  in
  QCheck.Test.make ~count:1000 ~name:"parser total on byte strings"
    (QCheck.make ~print:String.escaped gen) parses_totally

let prop_parser_objects =
  let open QCheck.Gen in
  let field_names = List.map (fun (Protocol.Field f) -> f.name) Protocol.fields in
  let leaf =
    oneof
      [ oneofl [ "null"; "true"; "false"; "9.0"; "-0"; "1e400"; "9007199254740993"; "0.5" ];
        map string_of_int gen_field_int;
        map (Printf.sprintf "%.17g") float;
        map json_string gen_field_string;
        map json_string (oneofl (List.map Protocol.verb_name Protocol.all_verbs)) ]
  in
  let obj members = "{" ^ String.concat "," members ^ "}" in
  let value =
    sized
    @@ fix (fun self n ->
           if n <= 1 then leaf
           else
             frequency
               [ (4, leaf);
                 (1, map (fun l -> "[" ^ String.concat "," l ^ "]")
                       (list_size (0 -- 3) (self (n / 4))));
                 (1, map obj (list_size (0 -- 3) (map2 (fun k v -> json_string k ^ ":" ^ v)
                                                    gen_field_string (self (n / 4))))) ])
  in
  let key = frequency [ (4, oneofl ("verb" :: "trace" :: field_names)); (1, gen_field_string) ] in
  let member = map2 (fun k v -> json_string k ^ ":" ^ v) key value in
  let verb =
    map (fun v -> {|"verb":|} ^ json_string (Protocol.verb_name v)) (oneofl Protocol.all_verbs)
  in
  let gen = map2 (fun v rest -> obj (v :: rest)) verb (list_size (0 -- 8) member) in
  QCheck.Test.make ~count:1000 ~name:"parser total on json objects"
    (QCheck.make ~print:(fun s -> s) gen) parses_totally

(* ---- backpressure ---- *)

let read_lines fd want =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let count () =
    String.fold_left (fun a c -> if c = '\n' then a + 1 else a) 0 (Buffer.contents buf)
  in
  let rec go () =
    if count () < want then
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  List.filter (fun s -> String.length s > 0) (String.split_on_char '\n' (Buffer.contents buf))

let test_backpressure () =
  (* capacity 1, one executor and three pipelined sleep requests: the
     executor can hold at most one running and one queued, so at least
     one (deterministically the third) is rejected with a structured
     "overloaded" response while the connection stays up and the
     accepted requests still complete *)
  let socket_path = temp_socket () in
  let handle = Server.start (Server.config ~queue_capacity:1 ~executors:1 socket_path) in
  Fun.protect ~finally:(fun () -> Server.stop handle) @@ fun () ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let line = Protocol.request_to_json (Protocol.request ~sleep_ms:300 Protocol.Sleep) ^ "\n" in
  let payload = line ^ line ^ line in
  let n = Unix.write_substring fd payload 0 (String.length payload) in
  Alcotest.(check int) "whole pipeline written at once" (String.length payload) n;
  let responses =
    List.map
      (fun l ->
        match Protocol.response_of_json l with
        | Ok r -> r
        | Error e -> Alcotest.failf "bad response line: %s" e)
      (read_lines fd 3)
  in
  Alcotest.(check int) "every request answered" 3 (List.length responses);
  let by_status st = List.filter (fun r -> r.Protocol.status = st) responses in
  Alcotest.(check bool) "at least one executed" true (List.length (by_status Protocol.Ok_) >= 1);
  let rejected = by_status Protocol.Overloaded in
  Alcotest.(check bool) "at least one rejected" true (List.length rejected >= 1);
  List.iter
    (fun r ->
      check_contains r.Protocol.body [ "overloaded"; "capacity 1" ];
      Alcotest.(check string) "rejection names the verb" "sleep" r.Protocol.verb;
      Alcotest.(check int) "rejected without executing" 0 r.Protocol.service_ns)
    rejected

(* ---- byte-identity with the offline CLI ---- *)

let expected_plan () =
  let path = match Topology.build "default" with Some p -> p | None -> assert false in
  Format.asprintf "%a@." Plan.pp_summary (Plan.synthesize ~strategy:Propagate.Adaptive path)

let test_plan_byte_identity () =
  (* executors default to the pool size, so this sweep exercises 1, 2
     and 4 concurrent executor domains; the second request is served
     from the result cache (the default config enables it) and must
     still be byte-identical to the offline CLI *)
  let expected = expected_plan () in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let socket_path = temp_socket () in
          let handle = Server.start (Server.config ~pool socket_path) in
          Fun.protect ~finally:(fun () -> Server.stop handle) @@ fun () ->
          Client.with_connection ~socket_path (fun c ->
              List.iter
                (fun pass ->
                  match Client.request c (Protocol.request Protocol.Plan) with
                  | Error e -> Alcotest.failf "pool %d (%s): %s" size pass e
                  | Ok resp ->
                    Alcotest.(check string)
                      (Printf.sprintf "status at pool %d (%s)" size pass)
                      "ok"
                      (Protocol.status_name resp.Protocol.status);
                    Alcotest.(check string)
                      (Printf.sprintf "plan body byte-identical at pool %d (%s)" size
                         pass)
                      expected resp.Protocol.body;
                    Alcotest.(check int) "pool size reported" size
                      resp.Protocol.pool_size)
                [ "cold"; "cached" ])))
    [ 1; 2; 4 ]

(* ---- result cache ---- *)

let test_cache_hit_counters () =
  let socket_path = temp_socket () in
  let handle =
    Server.start (Server.config ~executors:1 ~cache_size:8 socket_path)
  in
  Fun.protect ~finally:(fun () -> Server.stop handle) @@ fun () ->
  let expected = expected_plan () in
  Client.with_connection ~socket_path (fun c ->
      let plan pass =
        match Client.request c (Protocol.request Protocol.Plan) with
        | Ok r when r.Protocol.status = Protocol.Ok_ -> r
        | Ok r -> Alcotest.failf "%s plan rejected: %s" pass r.Protocol.body
        | Error e -> Alcotest.failf "%s plan failed: %s" pass e
      in
      let cold = plan "cold" in
      let hit = plan "hit" in
      Alcotest.(check string) "cached body byte-identical to cold" cold.Protocol.body
        hit.Protocol.body;
      Alcotest.(check string) "cached body byte-identical to the CLI" expected
        hit.Protocol.body;
      (* the hit is served by the acceptor, without a queue pass *)
      Alcotest.(check int) "cache hit never queued" 0 hit.Protocol.queue_ns;
      (* a trace-carrying request bypasses the cache so its export
         reflects a real execution *)
      (match
         Client.request c
           (Protocol.request ~trace:Protocol.Trace_jsonl Protocol.Plan)
       with
      | Ok r ->
        Alcotest.(check string) "traced body still byte-identical" expected
          r.Protocol.body;
        Alcotest.(check bool) "traced request carries an export" true
          (r.Protocol.trace_export <> None)
      | Error e -> Alcotest.failf "traced plan failed: %s" e);
      match Client.request c (Protocol.request Protocol.Metrics) with
      | Error e -> Alcotest.failf "metrics failed: %s" e
      | Ok r ->
        check_contains r.Protocol.body
          [ "msoc_serve_cache_hits_total 1";
            "msoc_serve_cache_misses_total";
            "msoc_serve_cache_evictions_total 0";
            "msoc_serve_executors 1" ])

(* ---- single-flight sharing ---- *)

(* The value of an unlabelled series in a Prometheus body. *)
let metric_value body name =
  String.split_on_char '\n' body
  |> List.find_map (fun line ->
         match String.index_opt line ' ' with
         | Some i when String.sub line 0 i = name ->
           int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
         | _ -> None)
  |> function
  | Some v -> v
  | None -> Alcotest.failf "%s missing from metrics" name

let scrape c =
  match Client.request c (Protocol.request Protocol.Metrics) with
  | Ok r -> r.Protocol.body
  | Error e -> Alcotest.failf "metrics failed: %s" e

let connect socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  fd

let send_requests fd reqs =
  let payload =
    String.concat "" (List.map (fun r -> Protocol.request_to_json r ^ "\n") reqs)
  in
  let n = Unix.write_substring fd payload 0 (String.length payload) in
  Alcotest.(check int) "whole pipeline written at once" (String.length payload) n

let read_responses fd want =
  List.map
    (fun l ->
      match Protocol.response_of_json l with
      | Ok r -> r
      | Error e -> Alcotest.failf "bad response line: %s" e)
    (read_lines fd want)

let test_coalescing () =
  (* cache off, so the duplicate pair can only share by joining the one
     execution in flight: the second request arrives while the first is
     still queued or running *)
  let socket_path = temp_socket () in
  let handle = Server.start (Server.config ~executors:2 ~cache_size:0 socket_path) in
  Fun.protect ~finally:(fun () -> Server.stop handle) @@ fun () ->
  let req = Protocol.request ~taps:5 ~samples:256 ~seed:11 Protocol.Faultsim in
  let cold =
    Client.with_connection ~socket_path (fun c ->
        match Client.request c req with
        | Ok r when r.Protocol.status = Protocol.Ok_ -> r.Protocol.body
        | Ok r -> Alcotest.failf "faultsim rejected: %s" r.Protocol.body
        | Error e -> Alcotest.failf "faultsim failed: %s" e)
  in
  let fds = List.init 2 (fun _ -> connect socket_path) in
  Fun.protect ~finally:(fun () -> List.iter Unix.close fds) @@ fun () ->
  List.iter (fun fd -> send_requests fd [ req ]) fds;
  List.iter
    (fun fd ->
      match read_responses fd 1 with
      | [ r ] ->
        Alcotest.(check string) "joined body byte-identical to a private run" cold
          r.Protocol.body
      | _ -> Alcotest.fail "expected one reply")
    fds;
  Client.with_connection ~socket_path (fun c ->
      let n = metric_value (scrape c) "msoc_serve_batched_total" in
      Alcotest.(check bool)
        (Printf.sprintf "concurrent duplicates were batched (batched=%d)" n)
        true (n >= 2))

let test_late_joiner () =
  (* a duplicate sent while the first request is already executing joins
     it: same bytes, no second queue slot, and a queue/service split that
     fits inside what its client observed *)
  let socket_path = temp_socket () in
  let handle = Server.start (Server.config ~executors:2 ~cache_size:0 socket_path) in
  Fun.protect ~finally:(fun () -> Server.stop handle) @@ fun () ->
  let req = Protocol.request ~taps:5 ~samples:256 ~seed:23 Protocol.Faultsim in
  let expected = Pool.with_pool ~size:1 (fun pool -> Verbs.run ~pool req) in
  Client.with_connection ~socket_path (fun probe ->
      let accepted_before = metric_value (scrape probe) "msoc_serve_queue_accepted_total" in
      let leader_fd = connect socket_path in
      Fun.protect ~finally:(fun () -> Unix.close leader_fd) @@ fun () ->
      send_requests leader_fd [ req ];
      (* the scrape runs on the other executor and counts itself, so two
         in flight means the leader is executing *)
      let rec wait_running polls =
        if polls > 5000 then Alcotest.fail "the leader never started executing";
        if metric_value (scrape probe) "msoc_serve_inflight" = 2 then polls
        else begin
          Unix.sleepf 0.001;
          wait_running (polls + 1)
        end
      in
      let polls = wait_running 1 in
      let joiner, observed_ns =
        Client.with_connection ~socket_path (fun c ->
            let t0 = Msoc_obs.Obs.now_ns () in
            let r = Client.request c req in
            (r, Int64.to_int (Int64.sub (Msoc_obs.Obs.now_ns ()) t0)))
      in
      let leader =
        match read_responses leader_fd 1 with
        | [ r ] -> r
        | _ -> Alcotest.fail "expected the leader's reply"
      in
      let joiner =
        match joiner with
        | Ok r when r.Protocol.status = Protocol.Ok_ -> r
        | Ok r -> Alcotest.failf "joiner rejected: %s" r.Protocol.body
        | Error e -> Alcotest.failf "joiner failed: %s" e
      in
      Alcotest.(check string) "leader matches an in-process run" expected
        leader.Protocol.body;
      Alcotest.(check string) "joiner byte-identical to the leader" leader.Protocol.body
        joiner.Protocol.body;
      Alcotest.(check string) "joiner matches an in-process run" expected
        joiner.Protocol.body;
      Alcotest.(check int) "joined after the claim: no queue wait" 0
        joiner.Protocol.queue_ns;
      Alcotest.(check bool)
        (Printf.sprintf "queue + service (%d ns) within the client latency (%d ns)"
           (joiner.Protocol.queue_ns + joiner.Protocol.service_ns)
           observed_ns)
        true
        (joiner.Protocol.queue_ns + joiner.Protocol.service_ns <= observed_ns);
      (* every scrape is a queued job too: the [polls] waits and the
         final one come off the difference *)
      let accepted_after = metric_value (scrape probe) "msoc_serve_queue_accepted_total" in
      Alcotest.(check int) "the pair took one queue slot" 1
        (accepted_after - accepted_before - polls - 1))

let test_failed_flight () =
  (* one executor busy with a sleep holds the failing plan queued, so its
     pipelined duplicates join it deterministically *)
  let socket_path = temp_socket () in
  let handle = Server.start (Server.config ~executors:1 ~cache_size:8 socket_path) in
  Fun.protect ~finally:(fun () -> Server.stop handle) @@ fun () ->
  let bad = Protocol.request ~topology:"no-such-topology" Protocol.Plan in
  let fd = connect socket_path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  send_requests fd [ Protocol.request ~sleep_ms:300 Protocol.Sleep; bad; bad; bad ];
  let plans =
    List.filter (fun r -> r.Protocol.verb = "plan") (read_responses fd 4)
  in
  Alcotest.(check int) "every duplicate answered" 3 (List.length plans);
  List.iter
    (fun r ->
      Alcotest.(check string) "every waiter receives the error" "error"
        (Protocol.status_name r.Protocol.status);
      check_contains r.Protocol.body [ "unknown topology" ])
    plans;
  Client.with_connection ~socket_path (fun c ->
      let before = scrape c in
      Alcotest.(check int) "the three shared one execution" 3
        (metric_value before "msoc_serve_batched_total");
      (match Client.request c bad with
      | Ok r ->
        Alcotest.(check string) "a later identical request fails again" "error"
          (Protocol.status_name r.Protocol.status)
      | Error e -> Alcotest.failf "plan failed: %s" e);
      let after = scrape c in
      Alcotest.(check int) "nothing was cached" 0
        (metric_value after "msoc_serve_cache_hits_total");
      (* the later request and this scrape each took a queue slot *)
      Alcotest.(check int) "the later request executed again" 2
        (metric_value after "msoc_serve_queue_accepted_total"
        - metric_value before "msoc_serve_queue_accepted_total"))

let test_heavy_cap_join () =
  (* heavy cap 1 and one executor: with [first] executing, a distinct
     heavy job fills the class cap, yet a duplicate of [first] is still
     admitted — it joins and takes no slot — while the next distinct
     heavy request is rejected *)
  let socket_path = temp_socket () in
  let handle =
    Server.start (Server.config ~queue_capacity:8 ~executors:1 ~heavy_cap:1 socket_path)
  in
  Fun.protect ~finally:(fun () -> Server.stop handle) @@ fun () ->
  let first = Protocol.request ~taps:5 ~samples:256 ~seed:31 Protocol.Faultsim in
  let other = Protocol.request ~taps:5 ~samples:256 ~seed:32 Protocol.Faultsim in
  let first_fd = connect socket_path in
  let fd = connect socket_path in
  Fun.protect ~finally:(fun () -> Unix.close first_fd; Unix.close fd) @@ fun () ->
  send_requests first_fd [ first ];
  Unix.sleepf 0.05;
  send_requests fd [ Protocol.request ~sleep_ms:50 Protocol.Sleep; first; other ];
  let replies = read_responses fd 3 in
  let faultsim status =
    List.filter
      (fun r -> r.Protocol.verb = "faultsim" && r.Protocol.status = status)
      replies
  in
  let leader =
    match read_responses first_fd 1 with [ r ] -> r | _ -> Alcotest.fail "no leader reply"
  in
  (match faultsim Protocol.Ok_ with
  | [ dup ] ->
    Alcotest.(check string) "the admitted duplicate shares the leader's bytes"
      leader.Protocol.body dup.Protocol.body
  | _ -> Alcotest.fail "the duplicate was not admitted and answered");
  match faultsim Protocol.Overloaded with
  | [ r ] -> check_contains r.Protocol.body [ "overloaded"; "heavy"; "class cap 1" ]
  | _ -> Alcotest.fail "the distinct heavy request was not rejected"

(* Exactly once: whatever the interleaving of duplicates over 4 client
   domains, every body equals an in-process run, and with the cache on
   each distinct key is executed (queued) exactly once. *)
let flight_keys =
  [| Protocol.request Protocol.Plan;
     Protocol.request ~topology:"sigma-delta" ~strategy:"nominal" Protocol.Plan;
     Protocol.request ~topology:"amp-bypass" Protocol.Plan;
     Protocol.request ~trials:300 ~seed:1 ~strategy:"nominal" Protocol.Montecarlo;
     Protocol.request ~trials:300 ~seed:2 Protocol.Montecarlo;
     Protocol.request ~trials:600 ~seed:1 Protocol.Montecarlo |]

let flight_expected =
  lazy
    (Pool.with_pool ~size:1 (fun pool -> Array.map (fun r -> Verbs.run ~pool r) flight_keys))

let prop_single_flight_exactly_once =
  QCheck.Test.make ~count:12
    ~name:"single flight: every body equals Verbs.run, each key executes once when cached"
    QCheck.(
      pair bool
        (list_of_size Gen.(int_range 4 16) (int_bound (Array.length flight_keys - 1))))
    (fun (cached, picks) ->
      let expected = Lazy.force flight_expected in
      let socket_path = temp_socket () in
      let cache_size = if cached then Array.length flight_keys else 0 in
      let handle = Server.start (Server.config ~executors:2 ~cache_size socket_path) in
      Fun.protect ~finally:(fun () -> Server.stop handle) @@ fun () ->
      let picks = Array.of_list picks in
      let clients =
        List.init 4 (fun d ->
            Domain.spawn (fun () ->
                Client.with_connection ~socket_path (fun c ->
                    List.filter_map
                      (fun i ->
                        if i mod 4 <> d then None
                        else
                          let k = picks.(i) in
                          match Client.request c flight_keys.(k) with
                          | Ok r when r.Protocol.status = Protocol.Ok_ ->
                            Some (String.equal r.Protocol.body expected.(k))
                          | Ok _ | Error _ -> Some false)
                      (List.init (Array.length picks) Fun.id))))
      in
      let all_equal = List.for_all (List.for_all Fun.id) (List.map Domain.join clients) in
      let distinct = List.length (List.sort_uniq compare (Array.to_list picks)) in
      (* the scrape is admitted to the queue before it reads the counter *)
      let executed =
        Client.with_connection ~socket_path (fun c ->
            metric_value (scrape c) "msoc_serve_queue_accepted_total" - 1)
      in
      all_equal && ((not cached) || executed = distinct))

(* ---- montecarlo: daemon == CLI ---- *)

let test_montecarlo_identity () =
  let req =
    Protocol.request ~strategy:"nominal" ~trials:500 ~seed:0 Protocol.Montecarlo
  in
  let expected = Pool.with_pool ~size:1 (fun pool -> Verbs.run ~pool req) in
  (* seed 0 resolves to the canonical study seed in the rendered header *)
  check_contains expected
    [ Printf.sprintf "seed %d" Verbs.montecarlo_canonical_seed; "500 trials" ];
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let socket_path = temp_socket () in
          let handle = Server.start (Server.config ~pool socket_path) in
          Fun.protect ~finally:(fun () -> Server.stop handle) @@ fun () ->
          Client.with_connection ~socket_path (fun c ->
              match Client.request c req with
              | Error e -> Alcotest.failf "pool %d: %s" size e
              | Ok resp ->
                Alcotest.(check string)
                  (Printf.sprintf "montecarlo body byte-identical at pool %d" size)
                  expected resp.Protocol.body)))
    [ 1; 2 ]

(* ---- class-cap admission ---- *)

let test_heavy_cap_admission () =
  (* heavy cap 1 under an 8-slot queue: pipelined sleeps trip the class
     cap while the queue itself still has room, and the rejection names
     both limits; a cheap ping is admitted throughout *)
  let socket_path = temp_socket () in
  let handle =
    Server.start
      (Server.config ~queue_capacity:8 ~executors:1 ~heavy_cap:1 socket_path)
  in
  Fun.protect ~finally:(fun () -> Server.stop handle) @@ fun () ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let line =
    Protocol.request_to_json (Protocol.request ~sleep_ms:300 Protocol.Sleep) ^ "\n"
  in
  let payload = line ^ line ^ line in
  ignore (Unix.write_substring fd payload 0 (String.length payload));
  (* while the heavy class is saturated, a cheap probe on a second
     connection still gets in (and eventually answered) *)
  Client.with_connection ~socket_path (fun c ->
      match Client.request c (Protocol.request Protocol.Ping) with
      | Ok r ->
        Alcotest.(check string) "ping admitted while heavy class is capped" "ok"
          (Protocol.status_name r.Protocol.status)
      | Error e -> Alcotest.failf "ping failed: %s" e);
  let responses = read_responses fd 3 in
  let by_status st = List.filter (fun r -> r.Protocol.status = st) responses in
  Alcotest.(check bool) "at least one sleep executed" true
    (List.length (by_status Protocol.Ok_) >= 1);
  let rejected = by_status Protocol.Overloaded in
  Alcotest.(check bool) "at least one sleep rejected" true (List.length rejected >= 1);
  List.iter
    (fun r ->
      check_contains r.Protocol.body
        [ "overloaded"; "heavy"; "class cap 1"; "queue capacity 8" ])
    rejected

(* ---- metrics verb ---- *)

let test_metrics_families () =
  let socket_path = temp_socket () in
  let handle = Server.start (Server.config socket_path) in
  Fun.protect ~finally:(fun () -> Server.stop handle) @@ fun () ->
  Client.with_connection ~socket_path (fun c ->
      (match Client.request c (Protocol.request Protocol.Ping) with
      | Ok r -> check_contains r.Protocol.body [ "pong" ]
      | Error e -> Alcotest.failf "ping failed: %s" e);
      match Client.request c (Protocol.request Protocol.Metrics) with
      | Error e -> Alcotest.failf "metrics failed: %s" e
      | Ok r ->
        check_contains r.Protocol.body
          [ "msoc_serve_requests_total{verb=\"ping\",status=\"ok\"} 1";
            "msoc_serve_latency_ns_bucket";
            "msoc_serve_queue_wait_ns";
            "msoc_serve_inflight";
            "msoc_serve_queue_capacity";
            "msoc_obs_timeline_overwritten_total";
            "msoc_build_info" ])

(* ---- per-request trace export round trip ---- *)

let test_trace_roundtrip () =
  let socket_path = temp_socket () in
  let handle = Server.start (Server.config socket_path) in
  Fun.protect ~finally:(fun () -> Server.stop handle) @@ fun () ->
  Client.with_connection ~socket_path (fun c ->
      let req =
        Protocol.request ~taps:5 ~samples:128 ~trace:Protocol.Trace_jsonl
          Protocol.Faultsim
      in
      match Client.request c req with
      | Error e -> Alcotest.failf "faultsim failed: %s" e
      | Ok resp ->
        let export =
          match resp.Protocol.trace_export with
          | Some e -> e
          | None -> Alcotest.fail "response carries no trace export"
        in
        let file = Filename.temp_file "msoc_serve_trace" ".jsonl" in
        Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
        let oc = open_out file in
        output_string oc export;
        close_out oc;
        (match Trace.load file with
        | Error e -> Alcotest.failf "daemon export does not load: %s" e
        | Ok t ->
          let names = List.map (fun sp -> sp.Trace.sp_name) t.Trace.spans in
          List.iter
            (fun n ->
              Alcotest.(check bool) (Printf.sprintf "span %s exported" n) true
                (List.mem n names))
            [ "serve.request"; "serve.queue_wait"; "serve.execute"; "serve.serialize" ];
          (* the offline analyses accept the daemon's export as-is *)
          check_contains (Trace.summary t) [ "serve.request"; "serve.execute" ];
          check_contains (Trace.to_folded t) [ "serve.request" ]))

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "msoc_serve"
    [ ( "workq",
        [ Alcotest.test_case "bounded fifo" `Quick test_workq_bounds;
          Alcotest.test_case "close drains then ends" `Quick test_workq_close;
          Alcotest.test_case "cross-domain hand-off" `Quick test_workq_cross_domain;
          Alcotest.test_case "multi-consumer exactly-once" `Quick
            test_workq_multi_consumer;
          Alcotest.test_case "overload accounting under contention" `Quick
            test_workq_overload_accounting ] );
      ("workq-properties", qcheck [ prop_workq_exactly_once ]);
      ( "protocol",
        [ Alcotest.test_case "request/response round trip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "typed fields are checked" `Quick test_protocol_typed_fields;
          Alcotest.test_case "cache key is injective" `Quick test_cache_key_injective;
          Alcotest.test_case "cache key is the read set" `Quick test_cache_key_read_set;
          Alcotest.test_case "emitted bytes are pinned" `Quick test_protocol_pinned_bytes ]
        @ qcheck [ prop_protocol_roundtrip; prop_parser_bytes; prop_parser_objects ] );
      ( "daemon",
        [ Alcotest.test_case "queue-full backpressure" `Quick test_backpressure;
          Alcotest.test_case "plan byte-identity across pool sizes" `Quick
            test_plan_byte_identity;
          Alcotest.test_case "result cache hit counters" `Quick test_cache_hit_counters;
          Alcotest.test_case "duplicate requests coalesce" `Quick test_coalescing;
          Alcotest.test_case "montecarlo daemon matches CLI" `Quick
            test_montecarlo_identity;
          Alcotest.test_case "heavy-class admission cap" `Quick test_heavy_cap_admission;
          Alcotest.test_case "metrics families" `Quick test_metrics_families;
          Alcotest.test_case "trace export round trip" `Quick test_trace_roundtrip ] );
      ( "single-flight",
        [ Alcotest.test_case "late duplicate joins the running execution" `Quick
            test_late_joiner;
          Alcotest.test_case "failed execution answers every waiter" `Quick
            test_failed_flight;
          Alcotest.test_case "heavy-class cap admits joiners" `Quick test_heavy_cap_join ]
        @ qcheck [ prop_single_flight_exactly_once ] ) ]
