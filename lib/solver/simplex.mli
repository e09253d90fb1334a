(** Rational feasibility by two-phase dictionary simplex (Bland's rule),
    written once over a {!Dml_numeric.Rat.S} ({!Make}); this module itself
    is the bignum instance.

    Baseline solver for the ablation benchmark: complete over the rationals
    but blind to integrality, so it cannot refute the divisibility
    constraints that the tightened Fourier--Motzkin procedure handles
    (e.g. those from the optimised byte-copy function).  With exact
    arithmetic on both instances the pivot sequence is the same; over
    checked ints the first value that would leave the [int] range raises
    [Dml_numeric.Checked.Overflow]. *)

open Dml_numeric
open Dml_index

type verdict = Unsat | Sat

module type S = sig
  type num

  val check : ?budget:Budget.t -> num Linear.cstr list -> verdict
  (** [Unsat] iff the constraint system has no rational solution.  With
      [?budget], every pivot charges fuel proportional to the dictionary
      size.
      @raise Budget.Exhausted when the budget runs out. *)
end

module Make (R : Rat.S) : S with type num = R.num

include S with type num = Bigint.t
