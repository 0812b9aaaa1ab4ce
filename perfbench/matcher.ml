(* Reply matching on one pipelined connection.

   The protocol carries no client request id, and replies on one
   connection can come back out of order (a cache hit is answered at the
   acceptor while an earlier heavy request is still executing).  A reply
   is matched to the oldest outstanding request with the same verb whose
   expected body digest equals the reply's; failing that, to the oldest
   one with the same verb whose body is not known in advance.  Identical
   requests are therefore taken first-in first-out. *)

type 'a entry = { verb : string; expected : Digest.t option; data : 'a }

type 'a t = { mutable pending : 'a entry list (* oldest first *) }

let create () = { pending = [] }
let add t ~verb ?expected data = t.pending <- t.pending @ [ { verb; expected; data } ]
let outstanding t = List.length t.pending
let is_empty t = t.pending = []
let exists t f = List.exists (fun e -> f e.data) t.pending

let remove_first t pred =
  let rec go acc = function
    | [] -> None
    | e :: rest when pred e ->
      t.pending <- List.rev_append acc rest;
      Some e.data
    | e :: rest -> go (e :: acc) rest
  in
  go [] t.pending

(* [None]: no outstanding request can have produced this reply — a wrong
   body for a known request, or a reply nobody asked for. *)
let take t ~verb ~digest =
  match
    remove_first t (fun e -> String.equal e.verb verb && e.expected = Some digest)
  with
  | Some _ as hit -> hit
  | None -> remove_first t (fun e -> String.equal e.verb verb && e.expected = None)
