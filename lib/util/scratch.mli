(** Per-domain scratch arrays.

    A kernel that needs a temporary array of the same length on every
    call (a capture's intermediate waveform, a windowed signal) takes it
    from a scratch pool instead of allocating one per call.  Each domain
    holds its own arrays, one per requested length, so pooled work never
    shares a buffer.  The caller must not keep the array past the call
    that took it, nor take the same pool twice in one computation. *)

type 'a t

val create : 'a -> 'a t
(** A new pool; fresh arrays are filled with the given value. *)

val get : 'a t -> int -> 'a array
(** This domain's array of exactly [n] elements.  Contents are whatever
    the previous user left. *)
