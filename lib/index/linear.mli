(** Linear forms and linear constraints, written once over a
    {!Dml_numeric.Number.S} ({!Make}); this module itself is the
    {!Dml_numeric.Bigint} instance.

    A linear form is [c + sum_i k_i * x_i]; a constraint is a form compared
    to zero.  Both lanes share one representation: the constant plus two
    parallel arrays, the variables sorted by ascending [Ivar.t] id and
    their non-zero coefficients.  Every iteration order below is therefore
    the ascending-id order, on either lane. *)

open Dml_numeric

type 'n form = { const : 'n; vars : Ivar.t array; coeffs : 'n array }
(** Invariant: [vars] strictly ascending by id, no coefficient zero. *)

type kind = Le  (** form <= 0 *) | Eq  (** form = 0 *)

type 'n cstr = { kind : kind; form : 'n form }

module type S = sig
  type num

  module N : Number.S with type t = num

  val of_int : int -> num form
  val var : Ivar.t -> num form
  val add : num form -> num form -> num form
  val sub : num form -> num form -> num form
  val neg : num form -> num form
  val scale : num -> num form -> num form

  val combine : num -> num form -> num -> num form -> num form
  (** [combine ka a kb b] is [ka*a + kb*b] in one merge of the two forms. *)

  val coeff : Ivar.t -> num form -> num
  val remove : Ivar.t -> num form -> num form

  val of_iexp : Idx.iexp -> num form option
  (** Affine translation; [None] when the expression mentions a non-affine
      construct ([div], [mod], [min], [max], [abs], [sgn], or a product of
      two non-constant sub-expressions).  Run {!Purify} first to remove
      those. *)

  val cstr_le : num form -> num cstr
  val cstr_eq : num form -> num cstr
  val is_trivially_false : num cstr -> bool

  val normalize : tighten:bool -> num cstr -> num cstr option
  (** Divides through by the gcd of the variable coefficients.  With
      [~tighten:true] applies the paper's integral tightening: [k.x <= a]
      becomes [k/g . x <= floor(a/g)] (Section 3.2), and an equality whose
      constant the gcd does not divide becomes the constant [1 = 0].
      Returns [None] when the constraint is trivially true (a constant that
      satisfies its relation); a trivially false constraint is returned
      unchanged so the caller can detect the contradiction. *)
end

module Make (N : Number.S) : S with type num = N.t

include S with type num = Bigint.t
