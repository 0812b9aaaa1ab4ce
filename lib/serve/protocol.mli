(** Wire protocol of the msoc daemon: newline-delimited JSON over a
    Unix-domain socket, one request object per line in, one response
    object per line out.

    Every request parameter has a default, shared with the msoc CLI flag
    through {!fields}, so [{"verb":"plan"}] is a complete request
    describing the same computation as a bare [msoc plan]. *)

type verb = Plan | Measure | Faultsim | Montecarlo | Schedule | Metrics | Ping | Sleep
(** [Montecarlo] runs the IIP3 de-embedding error study
    ([strategy]/[trials]/[seed]); [Schedule] solves an SOC test schedule
    ([soc]/[restarts]/[iters]); [Metrics] returns the Prometheus
    exposition ("GET /metrics" in spirit); [Ping] is a liveness probe;
    [Sleep] occupies an executor for a client-chosen time — a diagnostic
    for exercising queue backpressure. *)

val verb_name : verb -> string
val verb_of_name : string -> verb option
val all_verbs : verb list

type trace_format = Trace_jsonl | Trace_chrome | Trace_folded

val trace_format_name : trace_format -> string
val trace_format_of_name : string -> trace_format option

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
      (** When set, the response carries this request's span tree exported
          in the chosen format. *)
}

(** {2 Request schema}

    [fields] is the one place a request parameter is declared: its wire
    name, kind, default, the verbs that read it, a one-line doc and, for
    strings, the closed vocabulary the CLI accepts.  The constructor's
    defaults, {!request_to_json}, {!request_of_json}, {!cache_key} and
    every msoc flag that sets a request parameter are derived from it, so
    adding a parameter takes one record field and one row. *)

type _ kind =
  | Int : int kind
  | String : string list -> string kind
      (** The choice list (empty: any string) is enforced by the CLI
          only; the wire parser accepts any string and lets the verb
          report an unknown name as an [error] response. *)

type field =
  | Field : {
      name : string;  (** wire key; the CLI flag is [--name] with [_] as [-] *)
      kind : 'a kind;
      default : 'a;
      verbs : verb list;  (** the verbs whose result depends on the field *)
      doc : string;
      get : request -> 'a;
      set : 'a -> request -> request;
    }
      -> field

val fields : field list
(** One row per request parameter, in wire order. *)

val reads : verb -> field -> bool
(** [reads verb f]: [verb]'s result depends on [f]. *)

val request :
  ?topology:string -> ?strategy:string -> ?seed:int -> ?taps:int ->
  ?input_bits:int -> ?coeff_bits:int -> ?samples:int -> ?tones:int ->
  ?soc:string -> ?restarts:int -> ?iters:int -> ?trials:int ->
  ?sleep_ms:int -> ?trace:trace_format -> verb -> request
(** A request with every unspecified field at its {!fields} default. *)

val cache_key : request -> string option
(** Canonical identity of the computation a request describes: the verb
    plus, in {!fields} order, exactly the fields that verb reads (two
    requests differing only in fields the verb ignores share a key).
    String values are length-prefixed, so the key is injective: two
    requests share a key only when their verbs and read fields are equal.
    [None] for the verbs that read daemon state or wall-clock time
    (Metrics/Ping/Sleep) — those are never shared.  This key indexes the
    daemon's single-flight result cache: requests with equal keys are
    answered from one execution, whether it has finished (a cached body)
    or is still queued or running (the request joins it). *)

val request_to_json : request -> string
(** One line, no trailing newline: ["verb"], then every field in
    {!fields} order, then ["trace"] when set. *)

val request_of_json : string -> (request, string) result
(** Missing fields take their defaults and unknown fields are ignored.
    An unknown verb or trace format is an [Error], and so is a field of
    the wrong JSON type: a string field must be a string, an integer field
    an integral number ([9] or [9.0]) of magnitude below 2{^53}, the range
    a JSON number carries exactly.  The error names the field. *)

type status =
  | Ok_         (** executed; [body] is the rendered result *)
  | Overloaded  (** bounded queue full: rejected without executing *)
  | Failed      (** executed or parsed with an error; [body] explains *)

val status_name : status -> string
val status_of_name : string -> status option

type response = {
  status : status;
  trace_id : string;
  verb : string;
  body : string;
  queue_ns : int;    (** time spent waiting in the bounded queue *)
  service_ns : int;  (** dequeue-to-response-built execution time *)
  pool_size : int;
  trace_export : string option;
}

val response_to_json : response -> string
val response_of_json : string -> (response, string) result
