(** Arbitrary-precision signed integers.

    The Fourier--Motzkin elimination used by the constraint solver multiplies
    pairs of coefficients at every elimination step, so coefficient growth is
    exponential in the number of eliminated variables.  Working over a bignum
    type makes the solver's soundness independent of the size of the input
    constraints.  The representation is a sign and a little-endian array of
    base-2^30 limbs; all operations are purely functional. *)

type t

val zero : t
val one : t

val of_int : int -> t

val to_int : t -> int option
(** [to_int x] is [Some n] when [x] fits in a native [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit in a native [int]. *)

val of_string : string -> t
(** Accepts an optional leading [-] followed by decimal digits.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** Truncated division: [divmod a b] is [(q, r)] with [a = q*b + r],
    [|r| < |b|] and [r] having the sign of [a] (or zero).
    @raise Division_by_zero when [b] is zero. *)

val div : t -> t -> t
(** The quotient of {!divmod}. *)

val fdiv : t -> t -> t
(** Floor division, as in mathematics (rounds towards negative infinity). *)

val fmod : t -> t -> t
(** Floor remainder: [fmod a b] has the sign of [b] (or is zero). *)

val gcd : t -> t -> t
(** Non-negative greatest common divisor; [gcd zero zero = zero]. *)

val min : t -> t -> t
val max : t -> t -> t

val lt : t -> t -> bool
val gt : t -> t -> bool

val to_bigint : t -> t
(** The identity: with {!div}, makes [Bigint] a {!Number.S}. *)

val pp : Format.formatter -> t -> unit
