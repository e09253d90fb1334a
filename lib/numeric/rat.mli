(** Exact rationals, written once over a {!Number.S} ({!Make}); this module
    itself is the {!Bigint} instance.

    Used wherever the solver must divide exactly: simplex pivoting and the
    rational counterexample walk.  Values are kept normalised: the
    denominator is positive and coprime with the numerator; zero is [0/1].
    Over {!Checked} every operation, {!S.compare} included, either returns
    the exact result or raises [Checked.Overflow]. *)

module type S = sig
  type num
  type t

  val zero : t
  val one : t
  val minus_one : t

  val make : num -> num -> t
  (** [make num den] normalises the fraction.
      @raise Division_by_zero when [den] is zero. *)

  val of_num : num -> t
  val of_int : int -> t
  val num : t -> num
  val den : t -> num

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val sign : t -> int
  val is_zero : t -> bool

  val neg : t -> t
  val abs : t -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t

  val div : t -> t -> t
  (** @raise Division_by_zero when the divisor is zero. *)

  val inv : t -> t
  (** @raise Division_by_zero on zero. *)

  val lt : t -> t -> bool
  val le : t -> t -> bool
  val gt : t -> t -> bool
  val ge : t -> t -> bool
  val min : t -> t -> t
  val max : t -> t -> t

  val floor : t -> num
  val ceil : t -> num
  val is_integer : t -> bool

  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
end

module Make (N : Number.S) : S with type num = N.t

include S with type num = Bigint.t
