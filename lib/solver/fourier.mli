(** Fourier--Motzkin variable elimination (Section 3.2), written once over
    a {!Linear.S} ({!Make}); this module itself is the bignum instance.

    The procedure decides unsatisfiability of a conjunction of linear
    constraints.  It is sound for integers (an [Unsat] answer is definitive)
    and, with the integral tightening rule enabled, refutes the divisibility
    style constraints arising from the optimised byte-copy function that pure
    rational reasoning cannot.  A [Sat] answer means "not refuted": complete
    over the rationals, conservative over the integers.

    Every choice the eliminator makes is a function of the constraint set
    and the variable ids alone, so the two instances take the same steps
    and record the same {!stats}; over {!Dml_numeric.Checked} the first
    step that would leave the [int] range raises
    [Dml_numeric.Checked.Overflow] instead. *)

open Dml_numeric
open Dml_index

type verdict = Unsat | Sat

type stats = {
  mutable eliminations : int;  (** variables eliminated *)
  mutable combinations : int;  (** upper/lower pairs combined *)
  mutable max_constraints : int;  (** high-water mark of the system size *)
  mutable max_coeff : Bigint.t;  (** largest absolute coefficient seen *)
  mutable pair_refuted : int;
      (** systems {!S.check} refuted by {!S.opposed_pair} before any
          elimination; they add nothing to the three counters above *)
}

val new_stats : unit -> stats

module type S = sig
  type num
  type rat

  val check : ?stats:stats -> ?budget:Budget.t -> tighten:bool -> num Linear.cstr list -> verdict
  (** [check ~tighten cs] normalises every constraint of [cs] once
      ({!Linear.S.normalize}; a constraint that normalises to a false
      constant refutes the system at once).  It then runs the opposed-pair
      pre-pass, {!opposed_pair}, on the normalised system: a pair found
      answers [Unsat] before any elimination state is built, and counts in
      [stats.pair_refuted] and the [solver.pair_refuted] registry counter.
      Otherwise it eliminates all variables from the normalised system.
      Equalities with a unit-coefficient variable are removed first by
      Gaussian substitution; the remaining equalities are split into
      inequality pairs.

      The pair is a rational refutation of the normalised system, and the
      elimination is complete over the rationals, so the pre-pass never
      changes a verdict reached with an unlimited budget.  It spends no
      fuel and no eliminations: under a limited budget a verdict can only
      move away from a [Timeout] (to [Valid], or to an open disjunct found
      further on), never towards one.

      With [?budget], each upper/lower combination costs one fuel unit and
      each eliminated variable counts against the budget's elimination
      limit.  [stats] updates made before an exception stand.
      @raise Budget.Exhausted when the budget runs out. *)

  val opposed_pair : num Linear.cstr list -> bool
  (** [opposed_pair cs] holds when two constraints of [cs] sum to a false
      constant bound: [f + a <= 0] and [-f + b <= 0] with [a + b > 0],
      where [f] is a non-empty variable part.  An equality [f + a = 0]
      stands for both [f + a <= 0] and [-f - a <= 0].  Pure and sound for
      any system; {!check} applies it to the normalised system, where
      bounds on one variable part share their coefficients. *)

  val rational_model : ?budget:Budget.t -> num Linear.cstr list -> rat Ivar.Map.t option
  (** Best-effort assignment satisfying the system, used for the
      counterexample hints in error messages.  It is reconstructed by
      walking the elimination trace backwards: each Gaussian substitution
      is replayed, and each pivot variable takes its tightest bound.  The
      first walk follows the tightened elimination and rounds bounds to
      integers (an integer witness is the strongest hint).  When that
      comes up empty — tightening refuted a rationally-satisfiable system,
      or rounding lost the witness — a second, untightened walk keeps the
      bounds exact, so fractional-only witnesses (e.g. [2x = 1]) are found
      instead of silently dropped.  [None] only when the system has no
      rational solution at all.
      @raise Budget.Exhausted when the budget runs out mid-walk: the caller
      must report a timeout, not "no counterexample". *)
end

module Make (L : Linear.S) (R : Rat.S with type num = L.num) :
  S with type num = L.num and type rat = R.t

include S with type num = Bigint.t and type rat = Rat.t
