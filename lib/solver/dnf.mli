(** Negation normal form and disjunctive normal form over purified boolean
    index formulas.

    The normal form uses only the literals
    - [i <= j] and [i = j] comparisons (strict and flipped relations are
      rewritten using integrality: [i < j] becomes [i + 1 <= j]),
    - positive and negative boolean index variables,
    - boolean constants.

    A disjunct is a conjunction of literals; the whole formula is the
    disjunction of the returned disjuncts. *)

open Dml_index

type literal =
  | Lle of Idx.iexp * Idx.iexp  (** i <= j *)
  | Leq of Idx.iexp * Idx.iexp  (** i = j *)
  | Lbool of bool * Ivar.t  (** polarity, variable *)

exception Too_large

val dnf : ?budget:Budget.t -> Idx.bexp -> literal list list
(** [dnf b] is the list of disjuncts of the DNF of [b].  An empty list means
    [b] is unsatisfiable (identically false); a disjunct with no literals is
    identically true.  With [?budget], every intermediate expansion charges
    its size in fuel units.
    @raise Too_large when the expansion exceeds 20,000 disjuncts.
    @raise Budget.Exhausted when the budget runs out first. *)
