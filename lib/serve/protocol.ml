(* Wire protocol of the msoc daemon: newline-delimited JSON, one request
   object in, one response object out, over a Unix-domain socket.

   Requests name a verb plus the parameters declared once in [fields];
   every parameter has a default, so [{"verb":"plan"}] is a complete
   request.
   Responses always carry the status, the server-assigned trace id and
   the timing attribution (queue wait vs service), so every client sees
   the observability plane even when it asked for nothing special. *)

module Json = Msoc_obs.Json

type verb = Plan | Measure | Faultsim | Montecarlo | Schedule | Metrics | Ping | Sleep

let verb_name = function
  | Plan -> "plan"
  | Measure -> "measure"
  | Faultsim -> "faultsim"
  | Montecarlo -> "montecarlo"
  | Schedule -> "schedule"
  | Metrics -> "metrics"
  | Ping -> "ping"
  | Sleep -> "sleep"

let verb_of_name = function
  | "plan" -> Some Plan
  | "measure" -> Some Measure
  | "faultsim" -> Some Faultsim
  | "montecarlo" -> Some Montecarlo
  | "schedule" -> Some Schedule
  | "metrics" -> Some Metrics
  | "ping" -> Some Ping
  | "sleep" -> Some Sleep
  | _ -> None

let all_verbs = [ Plan; Measure; Faultsim; Montecarlo; Schedule; Metrics; Ping; Sleep ]

type trace_format = Trace_jsonl | Trace_chrome | Trace_folded

let trace_format_name = function
  | Trace_jsonl -> "jsonl"
  | Trace_chrome -> "chrome"
  | Trace_folded -> "folded"

let trace_format_of_name = function
  | "jsonl" -> Some Trace_jsonl
  | "chrome" -> Some Trace_chrome
  | "folded" -> Some Trace_folded
  | _ -> None

(* One field per computation parameter, declared in [fields] below, plus
   the verb and the per-request trace export echoed back in the response. *)
type request = {
  verb : verb;
  topology : string;
  strategy : string;
  seed : int;
  taps : int;
  input_bits : int;
  coeff_bits : int;
  samples : int;
  tones : int;
  soc : string;
  restarts : int;
  iters : int;
  trials : int;
  sleep_ms : int;
  trace : trace_format option;
}

(* ---- the request schema: one row per computation parameter ---- *)

type _ kind = Int : int kind | String : string list -> string kind

type field =
  | Field : {
      name : string;
      kind : 'a kind;
      default : 'a;
      verbs : verb list;
      doc : string;
      get : request -> 'a;
      set : 'a -> request -> request;
    }
      -> field

let int name verbs default doc get set =
  Field { name; kind = Int; default; verbs; doc; get; set }

let string ?(choices = []) name verbs default doc get set =
  Field { name; kind = String choices; default; verbs; doc; get; set }

let fields =
  [ string "topology" [ Plan; Measure ] "default" ~choices:Msoc_analog.Topology.names
      "Signal-path topology to synthesise or measure."
      (fun r -> r.topology) (fun v r -> { r with topology = v });
    string "strategy" [ Plan; Measure; Montecarlo ] "adaptive"
      ~choices:[ "nominal"; "adaptive" ] "De-embedding strategy."
      (fun r -> r.strategy) (fun v r -> { r with strategy = v });
    int "seed" [ Measure; Faultsim; Montecarlo; Schedule ] 0
      "Seed of the sampled part, stimulus phases, Monte-Carlo generator or annealer; \
       0 means the nominal part or the canonical seed."
      (fun r -> r.seed) (fun v r -> { r with seed = v });
    int "taps" [ Faultsim ] 9 "FIR tap count (at least 1)." (fun r -> r.taps)
      (fun v r -> { r with taps = v });
    int "input_bits" [ Faultsim ] 10 "FIR input bus width (at least 2)." (fun r -> r.input_bits)
      (fun v r -> { r with input_bits = v });
    int "coeff_bits" [ Faultsim ] 8 "FIR coefficient width (2 to 30)." (fun r -> r.coeff_bits)
      (fun v r -> { r with coeff_bits = v });
    int "samples" [ Faultsim ] 1024 "Test pattern count (at least 64)." (fun r -> r.samples)
      (fun v r -> { r with samples = v });
    int "tones" [ Faultsim ] 2 "Stimulus tone count (1 or 2)." (fun r -> r.tones)
      (fun v r -> { r with tones = v });
    string "soc" [ Schedule ] "reference" ~choices:Msoc_soc.Soc.names
      "SOC fixture to schedule." (fun r -> r.soc) (fun v r -> { r with soc = v });
    int "restarts" [ Schedule ] 8
      "Simulated-annealing restarts, fanned out over the domain pool."
      (fun r -> r.restarts) (fun v r -> { r with restarts = v });
    int "iters" [ Schedule ] 400 "Annealing moves per restart." (fun r -> r.iters)
      (fun v r -> { r with iters = v });
    int "trials" [ Montecarlo ] 50_000 "Monte-Carlo trial count." (fun r -> r.trials)
      (fun v r -> { r with trials = v });
    int "sleep_ms" [ Sleep ] 50 "Executor hold time in milliseconds." (fun r -> r.sleep_ms)
      (fun v r -> { r with sleep_ms = v }) ]

let reads verb (Field f) = List.mem verb f.verbs

let defaults =
  List.fold_left
    (fun r (Field f) -> f.set f.default r)
    { verb = Ping; topology = ""; strategy = ""; seed = 0; taps = 0; input_bits = 0;
      coeff_bits = 0; samples = 0; tones = 0; soc = ""; restarts = 0; iters = 0;
      trials = 0; sleep_ms = 0; trace = None }
    fields

let request ?(topology = defaults.topology) ?(strategy = defaults.strategy)
    ?(seed = defaults.seed) ?(taps = defaults.taps) ?(input_bits = defaults.input_bits)
    ?(coeff_bits = defaults.coeff_bits) ?(samples = defaults.samples)
    ?(tones = defaults.tones) ?(soc = defaults.soc) ?(restarts = defaults.restarts)
    ?(iters = defaults.iters) ?(trials = defaults.trials) ?(sleep_ms = defaults.sleep_ms)
    ?trace verb =
  { verb; topology; strategy; seed; taps; input_bits; coeff_bits; samples; tones;
    soc; restarts; iters; trials; sleep_ms; trace }

(* The canonical computation identity behind a request: the verb plus,
   in table order, exactly the fields that verb reads.  Projecting down to
   the read set makes equivalent requests share a key — a faultsim request
   with an exotic [soc] field shares its result with one that left it
   defaulted.  Strings are length-prefixed, so no value can forge a
   delimiter and the key is injective on the read set. *)
let cache_key r =
  match r.verb with
  | Metrics | Ping | Sleep -> None
  | verb ->
    let value (Field f) =
      match f.kind with
      | Int -> string_of_int (f.get r)
      | String _ -> Printf.sprintf "%d:%s" (String.length (f.get r)) (f.get r)
    in
    Some (String.concat "|" (verb_name verb :: List.map value (List.filter (reads verb) fields)))

let emit : type a. a kind -> a -> Buffer.t -> unit = function
  | Int -> Json.int
  | String _ -> Json.str

let request_to_json r =
  let b = Buffer.create 256 in
  Json.obj_to b
    ((("verb", Json.str (verb_name r.verb))
      :: List.map (fun (Field f) -> (f.name, emit f.kind (f.get r))) fields)
    @
    match r.trace with
    | None -> []
    | Some f -> [ ("trace", Json.str (trace_format_name f)) ]);
  Buffer.contents b

(* Integers travel as JSON numbers, which the parser reads as doubles;
   beyond 2^53 - 1 neighbouring integers collapse, so a larger magnitude
   could name a different request than the one sent and is refused. *)
let max_exact_int = 9007199254740991.0

let decode : type a. a kind -> Json.value -> (a, string) result =
 fun kind v ->
  match (kind, v) with
  | Int, Json.Number x when Float.is_integer x && Float.abs x <= max_exact_int ->
    Ok (int_of_float x)
  | Int, Json.Number x when Float.is_integer x -> Error "is out of range (|n| < 2^53)"
  | Int, _ -> Error "must be an integer"
  | String _, Json.String s -> Ok s
  | String _, _ -> Error "must be a string"

let rec decode_fields j r = function
  | [] -> Ok r
  | Field f :: rest ->
    (match Json.member f.name j with
    | None -> decode_fields j r rest
    | Some v ->
      (match decode f.kind v with
      | Ok x -> decode_fields j (f.set x r) rest
      | Error why -> Error (Printf.sprintf "field %S %s" f.name why)))

let member_string key j = Option.bind (Json.member key j) Json.to_string

let member_int ~default key j =
  match Option.bind (Json.member key j) Json.to_number with
  | Some v -> int_of_float v
  | None -> default

let request_of_json line =
  match Json.parse_result line with
  | Error msg -> Error ("invalid request JSON: " ^ msg)
  | Ok j ->
    (match member_string "verb" j with
    | None -> Error "request is missing the \"verb\" field"
    | Some name ->
      (match verb_of_name name with
      | None ->
        Error
          (Printf.sprintf "unknown verb %S (known: %s)" name
             (String.concat ", " (List.map verb_name all_verbs)))
      | Some verb ->
        (match member_string "trace" j with
        | Some t when trace_format_of_name t = None ->
          Error (Printf.sprintf "unknown trace format %S (jsonl|chrome|folded)" t)
        | trace_field ->
          let trace = Option.bind trace_field trace_format_of_name in
          decode_fields j { defaults with verb; trace } fields)))

type status = Ok_ | Overloaded | Failed

let status_name = function Ok_ -> "ok" | Overloaded -> "overloaded" | Failed -> "error"

let status_of_name = function
  | "ok" -> Some Ok_
  | "overloaded" -> Some Overloaded
  | "error" -> Some Failed
  | _ -> None

type response = {
  status : status;
  trace_id : string;
  verb : string;
  body : string;  (* rendered result text, or the error message *)
  queue_ns : int;
  service_ns : int;
  pool_size : int;
  trace_export : string option;
}

let response_to_json r =
  let b = Buffer.create (String.length r.body + 256) in
  Json.obj_to b
    ([ ("status", Json.str (status_name r.status));
       ("trace_id", Json.str r.trace_id);
       ("verb", Json.str r.verb);
       ("body", Json.str r.body);
       ("queue_ns", Json.int r.queue_ns);
       ("service_ns", Json.int r.service_ns);
       ("pool_size", Json.int r.pool_size) ]
    @
    match r.trace_export with
    | None -> []
    | Some text -> [ ("trace", Json.str text) ]);
  Buffer.contents b

let response_of_json line =
  match Json.parse_result line with
  | Error msg -> Error ("invalid response JSON: " ^ msg)
  | Ok j ->
    (match Option.bind (member_string "status" j) status_of_name with
    | None -> Error "response is missing a valid \"status\" field"
    | Some status ->
      Ok
        { status;
          trace_id = Option.value ~default:"" (member_string "trace_id" j);
          verb = Option.value ~default:"" (member_string "verb" j);
          body = Option.value ~default:"" (member_string "body" j);
          queue_ns = member_int ~default:0 "queue_ns" j;
          service_ns = member_int ~default:0 "service_ns" j;
          pool_size = member_int ~default:0 "pool_size" j;
          trace_export = member_string "trace" j })
