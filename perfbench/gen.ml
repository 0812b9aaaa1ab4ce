(* Seeded request generators for the three workloads.

   Every stream is a pure function of the workload seed: the same seed
   yields byte-identical request lines, a different seed different ones.
   The daemon sees only these generated requests.  No request sets the
   [trace] field (trace requests bypass the result cache and would change
   what is measured). *)

module P = Msoc_serve.Protocol
module Prng = Msoc_util.Prng

type workload = Sweep | Interactive | Contended

let workload_name = function
  | Sweep -> "sweep"
  | Interactive -> "interactive"
  | Contended -> "contended"

let workload_of_name = function
  | "sweep" -> Some Sweep
  | "interactive" -> Some Interactive
  | "contended" -> Some Contended
  | _ -> None

(* What a request is timed as.  [Heavy]: a compute verb that misses the
   cache; [Probe]: a ping or a cache-hit compute request; [Scrape]: the
   [metrics] verb; [Dup]: a copy of another connection's in-flight heavy
   request. *)
type cls = Heavy | Probe | Scrape | Dup

type item = { req : P.request; line : string; cls : cls }

let item cls req = { req; line = P.request_to_json req; cls }

let topologies = [ "default"; "sigma-delta"; "amp-bypass" ]
let strategies = [ "nominal"; "adaptive" ]
let socs = [ "reference"; "narrow" ]

let faultsim_shapes =
  List.concat_map
    (fun taps ->
      List.concat_map
        (fun samples ->
          List.map (fun tones seed -> P.request ~taps ~samples ~tones ~seed P.Faultsim) [ 1; 2 ])
        [ 256; 512 ])
    [ 5; 9; 13 ]

let measure_shapes =
  List.concat_map
    (fun topology ->
      List.map (fun strategy seed -> P.request ~topology ~strategy ~seed P.Measure) strategies)
    topologies

let montecarlo_shapes =
  List.concat_map
    (fun trials ->
      List.map (fun strategy seed -> P.request ~trials ~strategy ~seed P.Montecarlo) strategies)
    [ 20_000; 50_000; 100_000 ]

let schedule_shapes = List.map (fun soc seed -> P.request ~soc ~seed P.Schedule) socs

(* Spread several lists over one sequence in proportion to their
   lengths (stride scheduling), so every prefix of the result holds each
   list's share: item [k] of a list of [n] sits at virtual time
   [(k + 1/2) / n]; ties go to the earlier list. *)
let interleave lists =
  List.concat
    (List.mapi
       (fun c l ->
         let n = float_of_int (List.length l) in
         List.mapi (fun k x -> ((float_of_int k +. 0.5) /. n, c, k, x)) l)
       lists)
  |> List.stable_sort (fun (t1, c1, _, _) (t2, c2, _, _) -> compare (t1, c1) (t2, c2))
  |> List.map (fun (_, _, _, x) -> x)

(* [l] rotated left by [r] places *)
let rotate r l =
  let k = r mod List.length l in
  List.filteri (fun i _ -> i >= k) l @ List.filteri (fun i _ -> i < k) l

(* Round [r] of the heavy generator, each shape to be given a fresh
   request seed: every taps x samples faultsim shape once (one tone
   count, alternating by round), every montecarlo and schedule shape
   three times, and two of the six measure shapes (all six every three
   rounds).  Faultsim and sampled-part measures cost 10-100x a
   montecarlo or schedule request; this mix keeps enough requests in a
   run for a p90 while every shape recurs.  The verbs are interleaved in
   a fixed order, so the cost of any prefix of the stream is the same
   for every seed; the seed varies the requests themselves. *)
let heavy_round r =
  let measures = Array.of_list measure_shapes in
  let three l = List.concat [ l; l; l ] in
  interleave
    [ rotate r (List.filteri (fun i _ -> (i + r) mod 2 = 0) faultsim_shapes);
      [ measures.((2 * r) mod 6); measures.(((2 * r) + 1) mod 6) ];
      rotate r (three montecarlo_shapes);
      rotate r (three schedule_shapes) ]

(* An infinite stream of rounds. *)
let rounds (make_round : int -> 'a list) =
  let buf = ref [||] and pos = ref 0 and round = ref 0 in
  fun () ->
    if !pos >= Array.length !buf then begin
      buf := Array.of_list (make_round !round);
      incr round;
      pos := 0
    end;
    let x = !buf.(!pos) in
    incr pos;
    x

(* Request seeds: odd for measured requests, even for warm-up ones, and
   never repeated within a stream, so every heavy key is distinct and no
   warm-up key is ever measured. *)
let fresh_seed rng used ~parity =
  let rec draw () =
    let s = (2 * (1 + Prng.int rng (1 lsl 28))) + parity in
    if Hashtbl.mem used s then draw ()
    else begin
      Hashtbl.add used s ();
      s
    end
  in
  draw ()

let heavy_stream ~seed =
  let rng = Prng.create seed in
  let used = Hashtbl.create 256 in
  let next = rounds heavy_round in
  fun () -> item Heavy ((next ()) (fresh_seed rng used ~parity:1))

let metrics_item = item Scrape (P.request P.Metrics)
let ping_item = item Probe (P.request P.Ping)

(* [every]-th item of the stream is a [metrics] scrape. *)
let with_scrapes ~every next =
  let n = ref 0 in
  fun () ->
    incr n;
    if !n mod every = 0 then metrics_item else next ()

let sweep_scrape_every = 4

let sweep ~seed = with_scrapes ~every:sweep_scrape_every (heavy_stream ~seed)

(* The cheap keys of [interactive]: each one is computed once during the
   warm-up and answered from the result cache afterwards. *)
let plan_keys =
  List.concat_map
    (fun topology -> List.map (fun strategy -> P.request ~topology ~strategy P.Plan) strategies)
    topologies

let nominal_measure_keys =
  List.concat_map
    (fun topology ->
      List.map (fun strategy -> P.request ~topology ~strategy ~seed:0 P.Measure) strategies)
    topologies

let default_schedule_keys = List.map (fun soc -> P.request ~soc P.Schedule) socs
let interactive_keys = plan_keys @ nominal_measure_keys @ default_schedule_keys

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Rounds of four pings and every cheap key once, in a seeded order. *)
let interactive ~seed =
  let rng = Prng.create seed in
  let round _ =
    let a = Array.of_list (List.init 4 (fun _ -> ping_item) @ List.map (item Probe) interactive_keys) in
    shuffle rng a;
    Array.to_list a
  in
  with_scrapes ~every:10 (rounds round)

(* [contended], connection B: an open loop of slots at a fixed rate, in
   a fixed pattern: every [contended_scrape_every]-th slot a scrape,
   every fourth a ping (which queues for an executor), the rest
   cache-hit plans answered at the acceptor, their key drawn from the
   seed.  Every [contended_dup_every]-th request of connection A is
   duplicated: the first B slot after it is sent carries a copy instead
   (at most one copy outstanding).  At this mix the bounded queue never
   fills while both executors run heavy work. *)
let contended_rate_hz = 100.0
let contended_scrape_every = 50
let contended_dup_every = 3

let contended_b ~seed =
  let rng = Prng.create (seed lxor 0x5eed) in
  let plans = Array.of_list plan_keys in
  let n = ref 0 in
  fun () ->
    incr n;
    if !n mod contended_scrape_every = 0 then metrics_item
    else if !n mod 4 = 1 then ping_item
    else item Probe plans.(Prng.int rng (Array.length plans))

(* Warm-up requests: answered before timing starts, counted in setup. *)
let heavy_warmup ~seed =
  let rng = Prng.create (seed lxor 0x3a3a) in
  let used = Hashtbl.create 4 in
  [ P.request ~taps:5 ~samples:256 ~tones:2 ~seed:(fresh_seed rng used ~parity:0) P.Faultsim;
    P.request ~trials:20_000 ~seed:(fresh_seed rng used ~parity:0) P.Montecarlo;
    P.request ~topology:"amp-bypass" ~seed:(fresh_seed rng used ~parity:0) P.Measure;
    P.request ~soc:"narrow" ~seed:(fresh_seed rng used ~parity:0) P.Schedule ]

let warmup workload ~seed =
  P.request P.Ping
  ::
  (match workload with
  | Sweep -> heavy_warmup ~seed
  | Interactive -> interactive_keys
  | Contended -> plan_keys @ heavy_warmup ~seed)

let take n next = List.init n (fun _ -> next ())

(* The first [n] request lines of a workload ([contended]: connection
   A's, then connection B's scheduled slots). *)
let request_list workload ~seed n =
  let lines =
    match workload with
    | Sweep -> List.map (fun i -> i.line) (take n (sweep ~seed))
    | Interactive -> List.map (fun i -> i.line) (take n (interactive ~seed))
    | Contended ->
      List.map (fun i -> i.line) (take n (heavy_stream ~seed))
      @ List.map (fun i -> i.line) (take n (contended_b ~seed))
  in
  String.concat "\n" lines
