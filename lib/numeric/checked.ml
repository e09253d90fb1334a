(* Overflow-checked native [int] arithmetic for the solver's machine-int
   lane.  Every operation either returns the mathematically exact result or
   raises [Overflow]; nothing ever wraps silently.  [min_int] is treated as
   out of range everywhere (its absolute value is not representable), which
   costs one value out of 2^63 and removes every negation corner case. *)

exception Overflow

type t = int

let zero = 0
let one = 1
let of_int n = if n = min_int then raise Overflow else n
let[@inline] sign a = if a > 0 then 1 else if a < 0 then -1 else 0
let compare = Int.compare
let[@inline] neg a = if a = min_int then raise Overflow else -a
let[@inline] abs a = if a < 0 then neg a else a

let[@inline] add a b =
  let s = a + b in
  (* a two's-complement sum overflows iff both operands share a sign the
     result does not *)
  if a >= 0 = (b >= 0) && s >= 0 <> (a >= 0) then raise Overflow else s

let[@inline] sub a b =
  let d = a - b in
  if a >= 0 <> (b >= 0) && d >= 0 <> (a >= 0) then raise Overflow else d

let mul a b =
  if a = 0 || b = 0 then 0
  else if a = min_int || b = min_int then raise Overflow
  else
    let p = a * b in
    if p / b <> a || p = min_int then raise Overflow
    else p

(* Truncated division (the native [/]) matches [Bigint.div]; the floor
   variants mirror [Bigint.fdiv]/[Bigint.fmod].  Divisors are never zero
   where the solver calls these (gcds of non-empty coefficient rows), and
   [min_int / -1] is unreachable because [min_int] is already rejected by
   the constructors above. *)
let[@inline] div a b = a / b

let[@inline] fdiv a b =
  let q = a / b in
  if a mod b <> 0 && a < 0 <> (b < 0) then q - 1 else q

let[@inline] fmod a b =
  let r = a mod b in
  if r <> 0 && r < 0 <> (b < 0) then r + b else r

let gcd a b =
  let rec go a b = if b = 0 then a else go b (a mod b) in
  go (abs a) (abs b)

let to_bigint = Bigint.of_int
