(* The repo benchmark: one workload against a real [msoc serve] process.

     bench.exe --workload sweep|interactive|contended --seed N --seconds S --trace 0|1

   run from the root of a checkout whose daemon is built (perfbench/run.py
   builds it).

   --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
   runs the same workload untraced and traced (side by side, so the
   tracing overhead shows), then the per-layer probes, and prints the
   per-layer table with its reconciliation verdict.  Either way every
   [ok] reply is checked against an in-process [Verbs.run]; any mismatch
   fails the run.  The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module P = Msoc_serve.Protocol
module Pool = Msoc_util.Pool
module Json = Msoc_obs.Json
open Msoc_perfbench

let run_dir = ".bench_run"

type opts = { workload : Gen.workload; seed : int; seconds : int; trace : bool }

let daemon_exe = "_build/default/bin/msoc_cli.exe"

(* daemon starts per session; setup_s is their median *)
let setups = 3

let usage () =
  prerr_endline
    "usage: bench.exe --workload sweep|interactive|contended --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = List.assoc_opt k kv in
  let int_arg k default =
    match get k with
    | None -> (match default with Some d -> d | None -> usage ())
    | Some v -> (match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let workload =
    match Option.bind (get "workload") Gen.workload_of_name with Some w -> w | None -> usage ()
  in
  let seconds = int_arg "seconds" None in
  if seconds < 1 then usage ();
  { workload;
    seed = int_arg "seed" None;
    seconds;
    trace = int_arg "trace" (Some 0) <> 0 }

let nproc = Domain.recommended_domain_count ()
let connections = 2

(* the generator's own thread count, from /proc *)
let threads_now () =
  String.split_on_char '\n' (Proc.read_file "/proc/self/status")
  |> List.find_map (fun l -> try Scanf.sscanf l "Threads: %d" Option.some with _ -> None)
  |> Option.value ~default:0

(* every daemon started is stopped on exit, whatever happens *)
let live : Proc.t list ref = ref []

let stop_daemon d =
  Proc.stop d;
  live := List.filter (fun x -> x != d) !live

let () = at_exit (fun () -> List.iter Proc.stop !live)

let fail_run ~attempted ~failed errors =
  List.iter (fun e -> Printf.printf "FAILED: %s\n" e) errors;
  Printf.printf "{\"correct\": false, \"attempted\": %d, \"failed\": %d, \"metrics\": {}}\n%!"
    (max 1 attempted) failed;
  exit 1

(* Start a daemon, wait for the first ping and the workload's warm-up
   replies; returns the daemon, its load generator, the warm-up bodies
   and the set-up time. *)
let start_daemon o =
  let socket = Filename.concat run_dir (Printf.sprintf "s%d.sock" (Unix.getpid ())) in
  let t_spawn = Msoc_obs.Obs.now_ns () in
  let d, fd0 = Proc.spawn ~exe:daemon_exe ~socket ~log:(Filename.concat run_dir "serve.log") in
  live := d :: !live;
  let fds = fd0 :: List.init (connections - 1) (fun _ -> Load.connect socket) in
  let warm = Load.create ~pool_size:0 ~known:(Hashtbl.create 1) fds in
  let replies = Load.batch warm (Gen.warmup o.workload ~seed:o.seed) ~timeout_s:120.0 in
  let setup_s = Int64.to_float (Int64.sub (Msoc_obs.Obs.now_ns ()) t_spawn) /. 1e9 in
  if warm.Load.errors <> [] then fail_run ~attempted:0 ~failed:0 warm.Load.errors;
  (d, fds, replies, setup_s)

let session o ~spans =
  let rec start k acc =
    let d, fds, replies, setup_s = start_daemon o in
    if k < setups then begin
      List.iter Unix.close fds;
      stop_daemon d;
      start (k + 1) (setup_s :: acc)
    end
    else (d, fds, replies, List.rev (setup_s :: acc))
  in
  let d, fds, replies, setup_s = start 1 [] in
  let pong = List.assoc (P.request P.Ping) replies in
  let pool_size, executors =
    Scanf.sscanf pong "pong: pool=%d executors=%d" (fun p e -> (p, e))
  in
  let known = Hashtbl.create 16 in
  List.iter
    (fun (req, body) ->
      Option.iter (fun k -> Hashtbl.replace known k (Digest.string body)) (P.cache_key req))
    replies;
  let dup_every = match o.workload with Gen.Contended -> Gen.contended_dup_every | _ -> 0 in
  let load = Load.create ~pool_size ~known ?spans ~dup_every fds in
  (match o.workload with
  | Gen.Sweep ->
    let next = Gen.sweep ~seed:o.seed in
    Array.iter (fun c -> c.Load.policy <- Load.Closed next) load.Load.conns
  | Gen.Interactive ->
    let next = Gen.interactive ~seed:o.seed in
    Array.iter (fun c -> c.Load.policy <- Load.Closed next) load.Load.conns
  | Gen.Contended ->
    load.Load.conns.(0).policy <- Load.Closed (Gen.heavy_stream ~seed:o.seed);
    load.Load.conns.(1).policy <-
      Load.Open
        { period_ns = Int64.of_float (1e9 /. Gen.contended_rate_hz);
          next_slot = Gen.contended_b ~seed:o.seed;
          due = 0L });
  let t0 = Load.run load ~window_ns:(Int64.mul (Int64.of_int o.seconds) 1_000_000_000L) ~drain_s:60.0 in
  let gen_threads = threads_now () in
  let final_scrape =
    match Load.batch load [ P.request P.Metrics ] ~timeout_s:60.0 with
    | [ (_, body) ] -> body
    | _ -> ""
  in
  let peak_rss_mb = Proc.peak_rss_mb d in
  Load.close load;
  stop_daemon d;
  { Report.workload = o.workload;
    seconds = float_of_int o.seconds;
    setup_s;
    pool_size;
    executors;
    load;
    t0;
    peak_rss_mb;
    final_scrape;
    gen_threads }

(* The correctness gate; [refs] carries references already computed for
   this seed, so a second session replays only requests it has not seen. *)
let verify (s : Report.session) ~spans refs =
  let reqs =
    Verify.distinct_requests s.load.records
    |> Array.to_list
    |> List.filter (fun r -> not (Hashtbl.mem refs (P.cache_key r)))
    |> Array.of_list
  in
  let fresh =
    Pool.with_pool ~size:s.pool_size (fun pool ->
        Verify.replay ~pool ~domains:s.executors ?spans reqs)
  in
  Array.iter (fun (r : Verify.reference) -> Hashtbl.replace refs (P.cache_key r.req) r) fresh;
  let all = Array.of_list (Hashtbl.fold (fun _ r acc -> r :: acc) refs []) in
  let errors = s.load.errors @ Verify.check s.load.records all in
  if errors <> [] then
    fail_run ~attempted:s.load.attempted ~failed:(Report.failed s) errors;
  all

(* The generator's self-check: at most [nproc] connections and threads,
   and (open loop) at p99 no later than two slot periods. *)
let lag_bound_ms = 2.0 *. 1e3 /. Gen.contended_rate_hz

let generator_check (s : Report.session) =
  let conns = Array.length s.load.conns in
  Printf.printf "generator: %d connection(s), %d thread(s), nproc %d\n" conns s.gen_threads nproc;
  let problems =
    (if conns > nproc then [ Printf.sprintf "%d connections exceed nproc %d" conns nproc ] else [])
    @ (if s.gen_threads > nproc then
         [ Printf.sprintf "%d generator threads exceed nproc %d" s.gen_threads nproc ]
       else [])
    @
    match Report.lag s with
    | None -> []
    | Some (p99, mx, n) ->
      let v = match p99 with Ok v -> v | Error _ -> mx in
      Printf.printf "generator lateness: p99 %.3f ms, max %.3f ms over %d slots (bound p99 <= %.1f ms): %s\n"
        v mx n lag_bound_ms
        (if v <= lag_bound_ms then "valid" else "INVALID");
      if v > lag_bound_ms then
        [ Printf.sprintf "open-loop generator fell behind: p99 lateness %.3f ms > %.1f ms" v
            lag_bound_ms ]
      else []
  in
  if problems <> [] then
    fail_run ~attempted:s.load.attempted ~failed:(Report.failed s) problems

let print_failures (s : Report.session) =
  if Report.failed s > 0 then
    Printf.printf "failed: %d overloaded, %d error, %d transport\n" (Report.overloaded s)
      (List.length
         (List.filter (fun (r : Load.record) -> r.status = P.Failed) s.load.records))
      s.load.transport_errors

(* The exact results of the first two references of each verb, by key. *)
let print_exact refs =
  let lines =
    Array.to_list refs
    |> List.sort (fun (a : Verify.reference) b -> compare (P.cache_key a.req) (P.cache_key b.req))
    |> List.filter_map Verify.exact_line
    |> List.fold_left
         (fun acc line ->
           let verb = List.hd (String.split_on_char '|' line) in
           if List.length (List.filter (fun (v, _) -> String.equal v verb) acc) < 2 then
             (verb, line) :: acc
           else acc)
         []
    |> List.rev_map snd
  in
  if lines <> [] then begin
    print_endline "exact results (repeat for this seed at any pool size):";
    List.iter (fun l -> Printf.printf "  %s\n" l) lines
  end

let header o (s : Report.session) =
  Printf.printf "workload %s, seed %d, %d s; daemon pool %d, executors %d\n"
    (Gen.workload_name o.workload) o.seed o.seconds s.pool_size s.executors

let stat_cells (st : Report.stat) = [ Report.value_string st.value; Printf.sprintf "n=%d" st.n ]

let json_line ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Json.obj_to b
    [ ("correct", Json.bool true);
      ("attempted", Json.int (max 1 attempted));
      ("failed", Json.int failed);
      ( "metrics",
        fun b ->
          Json.obj_to b
            (List.map
               (fun (name, unit_, v) ->
                 ( name,
                   fun b -> Json.obj_to b [ ("value", Json.num_exact v); ("unit", Json.str unit_) ]
                 ))
               metrics) ) ];
  print_endline (Buffer.contents b)

let gated_values (s : Report.session) =
  List.map
    (fun (st : Report.stat) ->
      match st.value with
      | Ok v -> (st.name, st.unit_, v)
      | Error msg ->
        fail_run ~attempted:s.load.attempted ~failed:(Report.failed s)
          [ Printf.sprintf "%s: %s" st.name msg ])
    (Report.gated s)

let untraced o =
  let s = session o ~spans:None in
  header o s;
  generator_check s;
  let refs = verify s ~spans:None (Hashtbl.create 64) in
  print_endline "end-to-end (tracing off):";
  Report.print_table ~columns:[ "value"; "samples" ]
    (List.map (fun (st : Report.stat) -> (st.name, st.unit_, stat_cells st)) (Report.class_metrics s));
  print_failures s;
  print_exact refs;
  let gated = gated_values s in
  json_line ~attempted:s.load.attempted ~failed:(Report.failed s) gated

let traced o =
  (* the engine probes run first, while this process's heap is small: the
     sessions' records would otherwise tax their allocation with major-GC
     work.  Their pool has the size the daemon picks with MSOC_DOMAINS
     unset; the check below compares it with the size the daemon reports. *)
  let sp = Spans.create () in
  let probe_pool = nproc in
  let eng = Layers.engine_probes sp ~pool_size:probe_pool ~seed:o.seed in
  if eng.errors <> [] then fail_run ~attempted:0 ~failed:0 eng.errors;
  let refs = Hashtbl.create 64 in
  let plain = session o ~spans:None in
  header o plain;
  generator_check plain;
  ignore (verify plain ~spans:None refs);
  let s = session o ~spans:(Some sp) in
  generator_check s;
  let all = verify s ~spans:(Some sp) refs in
  print_endline "end-to-end, untraced vs traced (the difference is the tracing overhead):";
  let traced_stats = Report.class_metrics s in
  Report.print_table ~columns:[ "untraced"; "traced"; "samples" ]
    (List.map
       (fun (st : Report.stat) ->
         let t =
           List.find_opt (fun (x : Report.stat) -> String.equal x.name st.name) traced_stats
         in
         ( st.name,
           st.unit_,
           [ Report.value_string st.value;
             (match t with Some t -> Report.value_string t.value | None -> "-");
             Printf.sprintf "n=%d/%d" st.n (match t with Some t -> t.n | None -> 0) ] ))
       (Report.class_metrics plain));
  print_exact all;
  let checks =
    { Layers.check = "in-process probe pool size / daemon pool size";
      ratio = float_of_int probe_pool /. float_of_int s.pool_size;
      ok = probe_pool = s.pool_size }
    :: (match o.workload with Gen.Sweep -> Layers.daemon_vs_replay s all | _ -> [])
    @ eng.checks
    @ [ Layers.transport_nonnegative s ]
  in
  let trustworthy = List.for_all (fun (c : Layers.reconcile) -> c.ok) checks in
  Printf.printf "layer reconciliation (bound %.0f%%):\n" (100.0 *. Layers.reconcile_bound);
  List.iter
    (fun (c : Layers.reconcile) ->
      Printf.printf "  %-4s %-62s %.3f\n" (if c.ok then "ok" else "FAIL") c.check c.ratio)
    checks;
  let metrics = Layers.serve_metrics s sp @ eng.metrics in
  Printf.printf "per-layer metrics%s:\n"
    (if trustworthy then "" else " -- UNTRUSTWORTHY: the layers do not reconcile (see above)");
  Report.print_table ~columns:[ "value"; "samples" ]
    (List.map
       (fun (x : Layers.metric) ->
         ( x.name,
           x.unit_,
           [ Printf.sprintf "%.4f" x.value;
             (match x.n with Some n -> Printf.sprintf "n=%d" n | None -> "") ] ))
       metrics);
  let file =
    Filename.concat run_dir
      (Printf.sprintf "spans-%s-%d.jsonl" (Gen.workload_name o.workload) o.seed)
  in
  Spans.write sp file;
  Printf.printf "spans: %s\n" file;
  json_line ~attempted:s.load.attempted ~failed:(Report.failed s)
    (List.map (fun (x : Layers.metric) -> (x.name, x.unit_, x.value)) metrics)

let () =
  let o = parse_args () in
  if not (Sys.file_exists daemon_exe) then begin
    Printf.eprintf "bench: %s not found (run perfbench/run.py)\n" daemon_exe;
    exit 2
  end;
  if nproc < connections then begin
    Printf.eprintf "bench: needs %d CPUs for %d connections (nproc %d)\n" connections connections
      nproc;
    exit 2
  end;
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* a terminated run still stops its daemon (at_exit) *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  if o.trace then traced o else untraced o
