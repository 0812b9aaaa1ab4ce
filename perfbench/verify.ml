(* The correctness gate: every [ok] reply body must equal, by digest, an
   in-process [Verbs.run] of the same request (the CLI = daemon
   identity).  The in-process replay runs the distinct requests on as
   many concurrent domains as the daemon has executors, over a pool of
   the daemon's size, with Obs enabled and reset per request the way the
   executors run — so its timings are comparable with the daemon's
   [service_ns]. *)

module P = Msoc_serve.Protocol
module Verbs = Msoc_serve.Verbs
module Pool = Msoc_util.Pool
module Obs = Msoc_obs.Obs

type reference = { req : P.request; body : string; digest : Digest.t; ms : float }

let replay ~pool ~domains ?spans (reqs : P.request array) =
  let n = Array.length reqs in
  let out = Array.make n None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        Obs.reset_domain ();
        let t0 = Obs.now_ns () in
        let body = Verbs.run ~pool reqs.(i) in
        let t1 = Obs.now_ns () in
        Option.iter
          (fun sp ->
            ignore
              (Spans.record sp ~req:(i + 1)
                 ~name:("replay." ^ P.verb_name reqs.(i).P.verb)
                 ~start_ns:t0 ~stop_ns:t1 ()))
          spans;
        out.(i) <-
          Some
            { req = reqs.(i);
              body;
              digest = Digest.string body;
              ms = Int64.to_float (Int64.sub t1 t0) /. 1e6 };
        loop ()
      end
    in
    loop ()
  in
  Obs.enable ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let others = List.init (max 0 (domains - 1)) (fun _ -> Domain.spawn worker) in
      worker ();
      List.iter Domain.join others);
  Array.map Option.get out

(* Distinct compute requests among the [ok] replies, in first-seen order. *)
let distinct_requests (records : Load.record list) =
  let seen = Hashtbl.create 64 in
  List.rev records
  |> List.filter_map (fun (r : Load.record) ->
         match r.key with
         | Some k when r.status = P.Ok_ && not (Hashtbl.mem seen k) ->
           Hashtbl.add seen k ();
           Some r.req
         | _ -> None)
  |> Array.of_list

(* Every failure of the gate, empty when each [ok] compute reply equals
   its reference. *)
let check (records : Load.record list) (refs : reference array) =
  let by_key = Hashtbl.create 64 in
  Array.iter (fun r -> Hashtbl.replace by_key (Option.get (P.cache_key r.req)) r) refs;
  List.filter_map
    (fun (r : Load.record) ->
      match r.key with
      | Some k when r.status = P.Ok_ ->
        (match Hashtbl.find_opt by_key k with
        | None -> Some ("no in-process reference for " ^ k)
        | Some ref_ when not (Digest.equal ref_.digest r.digest) ->
          Some (Printf.sprintf "daemon body differs from in-process Verbs.run for %s" k)
        | Some _ -> None)
      | _ -> None)
    records

(* ---- exact simulated statistics, parsed from rendered bodies ---- *)

let words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let find_line ~prefix body =
  String.split_on_char '\n' body |> List.find_opt (Load.starts_with ~prefix)

(* "coverage: 83.15% (2172/2612), ..." -> (coverage %, detected, total) *)
let faultsim_stats body =
  Option.bind (find_line ~prefix:"coverage:" body) (fun l ->
      try Scanf.sscanf l "coverage: %f%% (%d/%d)" (fun c d t -> Some (c, d, t))
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)

let makespan_cycles body =
  Option.bind (find_line ~prefix:"annealed makespan:" body) (fun l ->
      match words l with _ :: _ :: n :: _ -> int_of_string_opt n | _ -> None)

(* the single data row of the montecarlo table: strategy, budget, RMS *)
let mc_rms_db body =
  let row =
    match find_line ~prefix:"nominal" body with
    | Some l -> Some l
    | None -> find_line ~prefix:"adaptive" body
  in
  Option.bind row (fun l ->
      match words l with _ :: _ :: _ :: rms :: _ -> float_of_string_opt rms | _ -> None)

(* One line of exact results for a reference body. *)
let exact_line (r : reference) =
  let key = Option.get (P.cache_key r.req) in
  match r.req.P.verb with
  | P.Faultsim ->
    Option.map
      (fun (c, d, t) -> Printf.sprintf "%s  coverage %.2f%% detected %d/%d" key c d t)
      (faultsim_stats r.body)
  | P.Schedule ->
    Option.map (fun m -> Printf.sprintf "%s  makespan %d cycles" key m) (makespan_cycles r.body)
  | P.Montecarlo ->
    Option.map (fun v -> Printf.sprintf "%s  rms %.3f dB" key v) (mc_rms_db r.body)
  | _ -> None
