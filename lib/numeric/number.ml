(* The numeric signature the solver is written over.  Linear forms, the
   Fourier--Motzkin eliminator, the rational simplex and the rationals
   themselves are each one functor body over [S]; the solver instantiates
   them twice — with {!Checked} (the machine-int lane, every operation
   raising [Checked.Overflow] rather than wrapping) and with {!Bigint} (the
   arbitrary-precision lane it escalates to). *)

module type S = sig
  type t

  val zero : t
  val one : t
  val of_int : int -> t
  val sign : t -> int
  val compare : t -> t -> int
  val neg : t -> t
  val abs : t -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t

  val div : t -> t -> t
  (** Truncated division; the solver only divides exactly. *)

  val fdiv : t -> t -> t
  val fmod : t -> t -> t

  val gcd : t -> t -> t
  (** Non-negative; [gcd zero zero = zero]. *)

  val to_bigint : t -> Bigint.t
end
