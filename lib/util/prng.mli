(** Deterministic pseudo-random number generation.

    Every stochastic component of the stack (noise injection, Monte-Carlo
    parameter sampling, fault sampling) draws from an explicit generator so
    that experiments are reproducible bit-for-bit.  The generator is
    xoshiro256** seeded through splitmix64.

    {b Representation.}  The four 64-bit state words live in a 32-byte
    [Bytes], read and written with the compiler's inline unboxed 64-bit
    bytes primitives; the one xoshiro256** step is inlined into every
    draw, so neither the state nor the raw output is ever boxed.

    {b Allocation contract.}  {!float}, {!uniform} and {!gaussian} allocate
    only their boxed float result (2 words) and {!int} nothing at all;
    {!bits64} and {!split_seed} allocate their boxed [int64] result;
    {!reseed} and {!reseed_at} allocate nothing.  This matters because
    OCaml 5 minor collections stop every domain: garbage made in one
    noise or Monte-Carlo loop stalls the whole pool. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. *)

val copy : t -> t
(** Independent copy with identical state. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    decorrelated from the remainder of [g]'s stream. *)

val split_seed : t -> int64
(** [split_seed g] advances [g] by one raw draw and names the stream that
    {!split} would have returned: [of_seed_bits (split_seed g)] equals
    [split g] bit-for-bit.  Storing seeds instead of generators lets a
    million-stream fan-out keep one flat [int64]-per-stream table instead
    of a million generator records. *)

val of_seed_bits : int64 -> t
(** Build the generator named by a {!split_seed} draw. *)

val reseed : t -> int64 -> unit
(** [reseed g bits] resets [g] in place to [of_seed_bits bits] without
    allocating — the replay primitive for scratch generators that iterate
    a seed table. *)

type seeds
(** A flat table of stream names: a million-stream fan-out stores one
    8-byte seed per stream instead of a million generator records. *)

val split_seeds : t -> int -> seeds
(** [split_seeds g n]: [n] successive {!split_seed} draws. *)

val reseed_at : t -> seeds -> int -> unit
(** [reseed_at g seeds i] is [reseed g] with the [i]-th seed: afterwards
    [g] replays the stream that the [i]-th {!split} of the same parent
    would have returned, bit for bit.

    @raise Invalid_argument if [i] is out of range. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)]. *)

val int : t -> int -> int
(** [int g n] is uniform in [\[0, n)].  Requires [n > 0].  Exactly uniform:
    non-power-of-two [n] uses power-of-two masking with rejection instead of
    a (biased) modulo reduction, so each draw may consume more than one raw
    output. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller, no caching). *)

val gaussian_scaled : t -> mean:float -> sigma:float -> float
(** Normal deviate with the given mean and standard deviation. *)
