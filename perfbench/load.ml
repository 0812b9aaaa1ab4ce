(* The load generator: one thread driving at most [nproc] connections to
   the daemon through one select loop.

   A closed-loop connection sends its next request as soon as the
   previous reply arrives.  An open-loop connection sends on a fixed
   schedule, pipelined, whatever the replies do; each of its requests is
   timed from the moment it was due, and the generator records how late
   it actually sent it. *)

module P = Msoc_serve.Protocol

type record = {
  req : P.request;
  cls : Gen.cls;
  verb : string;
  key : string option;  (** canonical cache key of compute requests *)
  conn : int;
  due_ns : int64;
  sent_ns : int64;
  recv_ns : int64;
  status : P.status;
  queue_ns : int;
  service_ns : int;
  digest : Digest.t;
  reply_bytes : int;
}

let latency_ms r = Int64.to_float (Int64.sub r.recv_ns r.due_ns) /. 1e6

(* Client-observed time beyond what the daemon accounts for (socket
   read/parse/admission/reply write on both sides), measured from the
   actual send. *)
let transport_ms r =
  (Int64.to_float (Int64.sub r.recv_ns r.sent_ns) -. float_of_int (r.queue_ns + r.service_ns))
  /. 1e6

type pending = { item : Gen.item; due : int64; sent : int64 }

type policy =
  | Closed of (unit -> Gen.item)
  | Open of { period_ns : int64; next_slot : unit -> Gen.item; mutable due : int64 }
  | Idle

type conn = {
  idx : int;
  fd : Unix.file_descr;
  rbuf : Buffer.t;
  mutable scan : int;
  m : pending Matcher.t;
  mutable policy : policy;
}

type t = {
  conns : conn array;
  pool_size : int;
  known : (string, Digest.t) Hashtbl.t;  (** expected body digest by cache key *)
  mutable records : record list;
  mutable errors : string list;  (** correctness failures *)
  mutable transport_errors : int;
  mutable attempted : int;
  mutable lag_ms : float list;  (** open-loop lateness, one per slot *)
  mutable last_scrape : string;
  mutable sample_replies : P.response list;  (** kept for encode timing *)
  mutable n_sample : int;
  mutable sent_lines : string list;  (** kept for parse timing *)
  mutable n_lines : int;
  spans : Spans.t option;  (** the traced session records one span tree per reply *)
  dup_every : int;  (** duplicate every n-th request of connection 0 (0: never) *)
  mutable a_sent : int;  (** requests connection 0 has sent *)
  mutable a_duplicated : int;  (** the last of them copied by an open-loop slot *)
}

let sample_cap = 512

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let create ~pool_size ~known ?spans ?(dup_every = 0) fds =
  { conns =
      Array.of_list
        (List.mapi
           (fun idx fd ->
             { idx; fd; rbuf = Buffer.create 65536; scan = 0; m = Matcher.create (); policy = Idle })
           fds);
    pool_size;
    known;
    records = [];
    errors = [];
    transport_errors = 0;
    attempted = 0;
    lag_ms = [];
    last_scrape = "";
    sample_replies = [];
    n_sample = 0;
    sent_lines = [];
    n_lines = 0;
    spans;
    dup_every;
    a_sent = 0;
    a_duplicated = 0 }

let close t = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns
let now = Msoc_obs.Obs.now_ns
let fail t msg = t.errors <- msg :: t.errors

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

(* [due] defaults to the send time, taken before the write so that no
   part of the daemon's own accounting can fall outside it. *)
let send t c ?due (item : Gen.item) =
  let expected = Option.bind (P.cache_key item.req) (Hashtbl.find_opt t.known) in
  let sent = now () in
  let due = Option.value due ~default:sent in
  write_all c.fd (item.line ^ "\n");
  Matcher.add c.m ~verb:(P.verb_name item.req.verb) ?expected { item; due; sent };
  t.attempted <- t.attempted + 1;
  if c.idx = 0 then t.a_sent <- t.a_sent + 1;
  if t.n_lines < sample_cap then begin
    t.sent_lines <- item.line :: t.sent_lines;
    t.n_lines <- t.n_lines + 1
  end;
  sent

let pong_prefix t = Printf.sprintf "pong: pool=%d " t.pool_size

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

(* The traced session's span tree of one reply: the client request (from
   its due time) with the daemon's queue and service time and the
   remaining transport time as children.  The children's durations are
   measured; their placement inside the request span is nominal. *)
let trace_reply sp ~req (r : record) =
  let root =
    Spans.record sp ~req ~name:("client." ^ r.verb) ~start_ns:r.due_ns ~stop_ns:r.recv_ns ()
  in
  let q_end = Int64.add r.sent_ns (Int64.of_int r.queue_ns) in
  let s_end = Int64.add q_end (Int64.of_int r.service_ns) in
  ignore (Spans.record sp ~parent:root ~req ~name:"daemon.queue" ~start_ns:r.sent_ns ~stop_ns:q_end ());
  ignore (Spans.record sp ~parent:root ~req ~name:"daemon.service" ~start_ns:q_end ~stop_ns:s_end ());
  ignore
    (Spans.record sp ~parent:root ~req ~name:"client.transport" ~start_ns:s_end
       ~stop_ns:(Int64.max s_end r.recv_ns) ())

(* One reply line: match it to its request, check what can be checked on
   the spot, and record it. *)
let on_reply t c line ~recv_ns =
  match P.response_of_json line with
  | Error msg ->
    t.transport_errors <- t.transport_errors + 1;
    fail t ("malformed reply: " ^ msg)
  | Ok r ->
    let digest = Digest.string r.body in
    (match Matcher.take c.m ~verb:r.verb ~digest with
    | None ->
      fail t
        (Printf.sprintf "connection %d: %s reply matches no outstanding request (wrong body?)"
           c.idx r.verb)
    | Some p ->
      let req = p.item.req in
      if r.status = P.Ok_ then begin
        match req.verb with
        | P.Ping ->
          if not (starts_with ~prefix:(pong_prefix t) r.body) then
            fail t ("unexpected ping body: " ^ String.trim r.body)
        | P.Metrics ->
          if not (contains r.body "msoc_serve_requests_total") then
            fail t "metrics body lacks msoc_serve_requests_total";
          t.last_scrape <- r.body
        | _ -> ()
      end;
      if t.n_sample < sample_cap then begin
        t.sample_replies <- r :: t.sample_replies;
        t.n_sample <- t.n_sample + 1
      end;
      let record =
        { req;
          cls = p.item.cls;
          verb = r.verb;
          key = P.cache_key req;
          conn = c.idx;
          due_ns = p.due;
          sent_ns = p.sent;
          recv_ns;
          status = r.status;
          queue_ns = r.queue_ns;
          service_ns = r.service_ns;
          digest;
          reply_bytes = String.length line + 1 }
      in
      t.records <- record :: t.records;
      Option.iter (fun sp -> trace_reply sp ~req:(List.length t.records) record) t.spans)

let read_ready t c ~on_line =
  let chunk = Bytes.create 65536 in
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 ->
    t.transport_errors <- t.transport_errors + Matcher.outstanding c.m;
    fail t (Printf.sprintf "connection %d closed by the daemon" c.idx);
    c.policy <- Idle;
    c.m.Matcher.pending <- []
  | n ->
    Buffer.add_subbytes c.rbuf chunk 0 n;
    let recv_ns = now () in
    let data = Buffer.contents c.rbuf in
    let rec split start from =
      match String.index_from_opt data from '\n' with
      | Some i ->
        on_line c (String.sub data start (i - start)) ~recv_ns;
        split (i + 1) (i + 1)
      | None ->
        Buffer.clear c.rbuf;
        Buffer.add_substring c.rbuf data start (String.length data - start);
        c.scan <- String.length data - start
    in
    split 0 c.scan
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Wait up to [timeout] seconds and process every reply that arrived. *)
let pump t ~timeout ~on_line =
  let fds = Array.to_list (Array.map (fun c -> c.fd) t.conns) in
  let ready =
    match Unix.select fds [] [] timeout with
    | r, _, _ -> r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  Array.iter (fun c -> if List.memq c.fd ready then read_ready t c ~on_line) t.conns

let outstanding t = Array.fold_left (fun acc c -> acc + Matcher.outstanding c.m) 0 t.conns

(* Send [reqs] over the connections, one outstanding request per
   connection (so each reply is matched without a doubt), and wait for
   every reply (at most [timeout_s]).  Returns the requests with their
   reply bodies in arrival order; used for the warm-up and the final
   scrape, which are not timed. *)
let batch t reqs ~timeout_s =
  let todo = Queue.of_seq (List.to_seq reqs) in
  let replies = ref [] in
  let send_next c =
    if not (Queue.is_empty todo) then begin
      let req = Queue.pop todo in
      write_all c.fd (P.request_to_json req ^ "\n");
      Matcher.add c.m ~verb:(P.verb_name req.P.verb)
        { item = Gen.item Gen.Heavy req; due = 0L; sent = 0L }
    end
  in
  let on_line c line ~recv_ns:_ =
    match P.response_of_json line with
    | Error msg -> fail t ("malformed reply: " ^ msg)
    | Ok r ->
      (match Matcher.take c.m ~verb:r.verb ~digest:(Digest.string r.body) with
      | None -> fail t "unmatched reply"
      | Some p ->
        if r.status <> P.Ok_ then
          fail t (Printf.sprintf "%s failed: %s" r.verb (String.trim r.body))
        else replies := (p.item.req, r.body) :: !replies);
      send_next c
  in
  Array.iter send_next t.conns;
  let deadline = Unix.gettimeofday () +. timeout_s in
  while outstanding t > 0 && t.errors = [] do
    if Unix.gettimeofday () > deadline then fail t "no reply within the timeout";
    pump t ~timeout:0.05 ~on_line
  done;
  List.rev !replies

(* The copy an open-loop slot sends instead of its own request: connection
   A's in-flight request when it is a [dup_every]-th one not yet copied
   and no other copy is outstanding. *)
let dup_due t =
  let copy_outstanding () =
    Array.exists (fun c -> Matcher.exists c.m (fun p -> p.item.Gen.cls = Gen.Dup)) t.conns
  in
  if t.dup_every = 0 || t.a_sent mod t.dup_every <> 0 || t.a_duplicated = t.a_sent then None
  else
    match t.conns.(0).m.Matcher.pending with
    | { Matcher.data = { item = { cls = Gen.Heavy; _ } as it; _ }; _ } :: _
      when not (copy_outstanding ()) ->
      t.a_duplicated <- t.a_sent;
      Some { it with Gen.cls = Gen.Dup }
    | _ -> None

(* Drive the connections for [window_ns], then wait for the replies still
   outstanding (at most [drain_s]).  Returns the window start. *)
let run t ~window_ns ~drain_s =
  let t0 = now () in
  let deadline = Int64.add t0 window_ns in
  Array.iter
    (fun c ->
      match c.policy with
      | Closed next -> ignore (send t c (next ()))
      | Open o -> o.due <- t0
      | Idle -> ())
    t.conns;
  let on_line c line ~recv_ns =
    on_reply t c line ~recv_ns;
    match c.policy with
    | Closed next when Int64.compare recv_ns deadline < 0 -> ignore (send t c (next ()))
    | _ -> ()
  in
  let fire_open c =
    match c.policy with
    | Open o ->
      let n = now () in
      let rec go () =
        if Int64.compare o.due n <= 0 && Int64.compare o.due deadline < 0 then begin
          let scheduled = o.next_slot () in
          let item = Option.value (dup_due t) ~default:scheduled in
          let sent = send t c item ~due:o.due in
          t.lag_ms <- (Int64.to_float (Int64.sub sent o.due) /. 1e6) :: t.lag_ms;
          o.due <- Int64.add o.due o.period_ns;
          go ()
        end
      in
      go ()
    | _ -> ()
  in
  let next_due () =
    Array.fold_left
      (fun acc c ->
        match c.policy with
        | Open o when Int64.compare o.due deadline < 0 ->
          Some (match acc with Some a when Int64.compare a o.due <= 0 -> a | _ -> o.due)
        | _ -> acc)
      None t.conns
  in
  while Int64.compare (now ()) deadline < 0 && t.errors = [] do
    let timeout =
      match next_due () with
      | Some d -> Float.max 0.0 (Int64.to_float (Int64.sub d (now ())) /. 1e9)
      | None -> Float.min 0.05 (Int64.to_float (Int64.sub deadline (now ())) /. 1e9)
    in
    pump t ~timeout:(Float.max 0.0 timeout) ~on_line;
    Array.iter fire_open t.conns
  done;
  let drain_deadline = Unix.gettimeofday () +. drain_s in
  while outstanding t > 0 && t.errors = [] && Unix.gettimeofday () < drain_deadline do
    pump t ~timeout:0.05 ~on_line
  done;
  let left = outstanding t in
  if left > 0 then begin
    t.transport_errors <- t.transport_errors + left;
    Array.iter (fun c -> c.m.Matcher.pending <- []) t.conns
  end;
  t0
