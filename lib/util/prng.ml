(* xoshiro256** over a 32-byte [Bytes] holding the four state words.
   [%caml_bytes_get64u]/[%caml_bytes_set64u] compile to single inline
   loads and stores of an unboxed int64, and [step] is inlined into every
   draw, so the state words and the raw output never touch the heap:
   [int] allocates nothing and [float] and [gaussian] only their boxed
   result.  This matters because OCaml 5 minor collections stop every
   domain, so one noise-injection or Monte-Carlo loop's garbage stalls
   the whole pool.  (A record of [mutable int64] fields boxes on every
   store; a floatarray stores flat but goes through the
   [Int64.bits_of_float]/[float_of_bits] C calls.)  The algorithm and its
   output are bit-for-bit those of the reference xoshiro256**. *)

type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* splitmix64's output mix of its counter [z]. *)
let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Expand a 64-bit seed into the four state words through splitmix64 —
   shared by [create], [split] and [reseed] so every path that names a
   stream by one raw draw produces the identical stream. *)
let[@inline] expand g bits =
  let gamma = 0x9E3779B97F4A7C15L in
  let z0 = Int64.add bits gamma in
  let z1 = Int64.add z0 gamma in
  let z2 = Int64.add z1 gamma in
  let z3 = Int64.add z2 gamma in
  set g 0 (mix64 z0);
  set g 8 (mix64 z1);
  set g 16 (mix64 z2);
  set g 24 (mix64 z3)

let of_seed_bits bits =
  let g = Bytes.create 32 in
  expand g bits;
  g

let create seed = of_seed_bits (Int64.of_int seed)
let copy g = Bytes.copy g
let reseed g bits = expand g bits

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* The one xoshiro256** step.  Inlined into each draw below, so its int64
   result stays in a register. *)
let[@inline] step g =
  let open Int64 in
  let s0 = get g 0 and s1 = get g 8 and s2 = get g 16 and s3 = get g 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let t = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 t in
  let s3 = rotl s3 45 in
  set g 0 s0;
  set g 8 s1;
  set g 16 s2;
  set g 24 s3;
  result

let bits64 g = step g
let split_seed g = step g
let split g = of_seed_bits (step g)

(* A seed table: stream [i]'s name at bytes [8i, 8i + 8). *)
type seeds = Bytes.t

let split_seeds g n =
  let seeds = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    set seeds (8 * i) (step g)
  done;
  seeds

let reseed_at g seeds i =
  if i < 0 || i >= Bytes.length seeds / 8 then invalid_arg "Prng.reseed_at";
  expand g (get seeds (8 * i))

(* 53 high bits scaled into [0,1). *)
let[@inline] unit_float g = Int64.to_float (Int64.shift_right_logical (step g) 11) *. 0x1.0p-53

let float g = unit_float g
let uniform g ~lo ~hi = lo +. ((hi -. lo) *. unit_float g)

(* Unbiased bounded draw by power-of-two masking with rejection: draw the
   smallest number of bits that can represent [n - 1] and retry until the
   value lands below [n].  Every mask is below 2^62, so masking the low
   63 bits of the draw as a native int equals masking the int64. *)
let int g n =
  assert (n > 0);
  if n land (n - 1) = 0 then Int64.to_int (step g) land (n - 1)
  else begin
    let mask = ref 1 in
    while !mask < n - 1 do
      mask := (!mask lsl 1) lor 1
    done;
    let bits = ref (Int64.to_int (step g) land !mask) in
    while !bits >= n do
      bits := Int64.to_int (step g) land !mask
    done;
    !bits
  end

(* Box–Muller; reject a zero radius so that [log] stays finite. *)
let[@inline] box_muller g =
  let u1 = ref (unit_float g) in
  while !u1 <= 0.0 do
    u1 := unit_float g
  done;
  let u2 = unit_float g in
  sqrt (-2.0 *. log !u1) *. cos (Units.two_pi *. u2)

let gaussian g = box_muller g
let gaussian_scaled g ~mean ~sigma = mean +. (sigma *. box_muller g)
