(** Bounded LRU cache with string keys, safe to share across domains.

    Built for the synthesis result cache of [msoc serve]: the acceptor
    domain probes it on admission, executor domains fill it after a
    cold computation, and the metrics exporter reads the hit / miss /
    eviction counters — all under one internal mutex, which is fine at
    request granularity (the values are whole rendered response bodies,
    not hot-path items).

    Recency is classic move-to-front on a doubly-linked list: {!find}
    bumps the entry, {!add} inserts at the front and evicts from the
    tail once more than {!capacity} entries are resident.  Entries a
    {!create_pinned} predicate marks as pinned are never evicted (the
    daemon pins the results still being computed), so the bound is soft:
    it is exceeded only while pinned entries fill it. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1] — a disabled cache is
    represented by not having one, not by a zero-capacity instance. *)

val create_pinned : pinned:('a -> bool) -> capacity:int -> 'a t
(** Like {!create}, but eviction skips the entries whose current value
    satisfies [pinned]. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Resident entries (a racy snapshot, suitable for a gauge). *)

val find : 'a t -> string -> 'a option
(** Lookup; bumps the entry to most-recently-used and counts a hit, or
    counts a miss. *)

val add : 'a t -> string -> 'a -> unit
(** Insert at most-recently-used.  Replacing an existing key is not an
    eviction; displacing the least-recently-used unpinned entry past
    capacity is. *)

val remove : 'a t -> string -> unit
(** Drop the key if present; neither an eviction nor a miss. *)

val hits : 'a t -> int
val misses : 'a t -> int
val evictions : 'a t -> int
(** Monotonic counters since {!create}, for the
    [msoc_serve_cache_{hits,misses,evictions}_total] metric family. *)
