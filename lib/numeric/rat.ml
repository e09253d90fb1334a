(* Normalised rationals: positive denominator, gcd(num, den) = 1. *)

module type S = sig
  type num
  type t

  val zero : t
  val one : t
  val minus_one : t
  val make : num -> num -> t
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
  val inv : t -> t
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

module Make (N : Number.S) = struct
  type num = N.t
  type t = { num : N.t; den : N.t }

  let normalise num den =
    if N.sign den = 0 then raise Division_by_zero
    else if N.sign num = 0 then { num = N.zero; den = N.one }
    else begin
      let g = N.gcd num den in
      let num = N.div num g and den = N.div den g in
      if N.sign den < 0 then { num = N.neg num; den = N.neg den } else { num; den }
    end

  let make num den = normalise num den
  let of_num n = { num = n; den = N.one }
  let of_int n = of_num (N.of_int n)

  let zero = of_int 0
  let one = of_int 1
  let minus_one = of_int (-1)

  let num x = x.num
  let den x = x.den

  let sign x = N.sign x.num
  let is_zero x = N.sign x.num = 0

  let compare x y = N.compare (N.mul x.num y.den) (N.mul y.num x.den)
  let equal x y = compare x y = 0

  let neg x = { x with num = N.neg x.num }
  let abs x = { x with num = N.abs x.num }

  let add x y = normalise (N.add (N.mul x.num y.den) (N.mul y.num x.den)) (N.mul x.den y.den)
  let sub x y = add x (neg y)
  let mul x y = normalise (N.mul x.num y.num) (N.mul x.den y.den)
  let inv x = normalise x.den x.num
  let div x y = mul x (inv y)

  let lt x y = compare x y < 0
  let le x y = compare x y <= 0
  let gt x y = compare x y > 0
  let ge x y = compare x y >= 0
  let min x y = if le x y then x else y
  let max x y = if ge x y then x else y

  let floor x = N.fdiv x.num x.den
  let ceil x = N.neg (N.fdiv (N.neg x.num) x.den)
  let is_integer x = N.compare x.den N.one = 0

  let to_string x =
    let s n = Bigint.to_string (N.to_bigint n) in
    if is_integer x then s x.num else s x.num ^ "/" ^ s x.den

  let pp fmt x = Format.pp_print_string fmt (to_string x)
end

include Make (Bigint)
