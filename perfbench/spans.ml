(* In-memory span recorder for the traced run.  Spans are recorded from
   the benchmark's own code around calls into each layer (nothing inside
   lib/ is instrumented), kept in memory, and written out as JSON lines
   when the run ends.  Safe to record from several domains. *)

type span = {
  id : int;
  name : string;
  start_ns : int64;
  stop_ns : int64;
  parent : int;  (** 0: a root span *)
  req : int;     (** the request the span belongs to; 0: none *)
}

type t = {
  m : Mutex.t;
  mutable spans : span list;
  mutable notes : (string * int * float) list;  (** counts: name, request, value *)
  mutable next : int;
}

let create () = { m = Mutex.create (); spans = []; notes = []; next = 1 }
let now = Msoc_obs.Obs.now_ns

let fresh_id t =
  Mutex.lock t.m;
  let id = t.next in
  t.next <- id + 1;
  Mutex.unlock t.m;
  id

let add t span =
  Mutex.lock t.m;
  t.spans <- span :: t.spans;
  Mutex.unlock t.m

(* Record a span whose times were measured elsewhere; returns its id. *)
let record t ?(parent = 0) ?(req = 0) ~name ~start_ns ~stop_ns () =
  let id = fresh_id t in
  add t { id; name; start_ns; stop_ns; parent; req };
  id

(* An open span: its id is known before it ends, so children can name
   it as their parent. *)
type open_span = { o_id : int; o_name : string; o_start : int64; o_parent : int; o_req : int }

let start t ?(parent = 0) ?(req = 0) name =
  { o_id = fresh_id t; o_name = name; o_start = now (); o_parent = parent; o_req = req }

let id o = o.o_id

(* Close an open span; returns its duration in ms. *)
let stop t o =
  let stop_ns = now () in
  add t
    { id = o.o_id; name = o.o_name; start_ns = o.o_start; stop_ns; parent = o.o_parent;
      req = o.o_req };
  Int64.to_float (Int64.sub stop_ns o.o_start) /. 1e6

(* Time [f] as a span; returns its result and its duration in ms. *)
let time t ?parent ?req name f =
  let o = start t ?parent ?req name in
  let v = f () in
  (v, stop t o)

(* Record a count at a layer boundary (faults simulated, moves
   accepted...), attached to a request like a span. *)
let note t ?(req = 0) name value =
  Mutex.lock t.m;
  t.notes <- (name, req, value) :: t.notes;
  Mutex.unlock t.m

let values t name =
  Mutex.lock t.m;
  let l = t.notes in
  Mutex.unlock t.m;
  List.rev l |> List.filter_map (fun (n, _, v) -> if String.equal n name then Some v else None)

let duration_ms s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e6

(* Durations (ms) of every span with this name, in recording order. *)
let durations t name =
  Mutex.lock t.m;
  let l = t.spans in
  Mutex.unlock t.m;
  List.rev l |> List.filter (fun s -> String.equal s.name name) |> List.map duration_ms

(* Total duration (ms) of the direct children of span [parent]. *)
let children_ms t parent =
  Mutex.lock t.m;
  let l = t.spans in
  Mutex.unlock t.m;
  List.fold_left (fun acc s -> if s.parent = parent then acc +. duration_ms s else acc) 0.0 l

let write t file =
  let oc = open_out file in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start_ns\":%Ld,\"stop_ns\":%Ld,\"parent\":%d,\"req\":%d}\n"
        s.id s.name s.start_ns s.stop_ns s.parent s.req)
    (List.rev t.spans);
  List.iter
    (fun (name, req, v) ->
      Printf.fprintf oc "{\"note\":%S,\"req\":%d,\"value\":%.17g}\n" name req v)
    (List.rev t.notes);
  close_out oc
