(** Constraints of Section 3:
    {v phi ::= b | phi /\ phi | b => phi | exists a:g. phi | forall a:g. phi v}

    Elaboration produces one constraint per type-checked clause; the solver
    consumes the {!goal} form obtained after existential elimination. *)

open Dml_index

type t =
  | Top  (** the trivially true constraint *)
  | Pred of Idx.bexp
  | Conj of t * t
  | Impl of Idx.bexp * t
  | Forall of Ivar.t * Idx.sort * t
  | Exists of Ivar.t * Idx.sort * t

(** {1 Smart constructors} *)

val top : t
val pred : Idx.bexp -> t

val conj : t -> t -> t
(** Drops [Top] and absorbs trivially-true predicates. *)

val conj_list : t list -> t

val impl : Idx.bexp -> t -> t
(** [impl b phi] simplifies when [b] is constant or [phi] is [Top]. *)

val forall : Ivar.t -> Idx.sort -> t -> t
(** Drops the quantifier when the variable does not occur. *)

val exists : Ivar.t -> Idx.sort -> t -> t

val is_top : t -> bool

val occurs : Ivar.t -> t -> bool
(** [occurs a phi]: [a] occurs free in [phi], counting each quantifier's
    sort refinement (which names its binder) as free, exactly as the free
    variables of [phi] would.  Allocates nothing unless [a] binds a
    subset-sorted quantifier or appears in a subset sort's condition. *)

val subst : Idx.iexp Ivar.Map.t -> t -> t
(** Capture-avoiding substitution of the free variables: a quantifier's
    own binder is left alone under it, and bound variables are refreshed
    when they would capture a free variable of the image. *)

val size : t -> int
(** Number of atomic predicates, for reporting. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Existential elimination (Section 3.1)}

    An existential [exists a. phi] is proved by exhibiting a witness.  We
    search [phi] for an equation that determines [a] as a linear expression
    in the other variables (e.g. [M = 0], [a + 1 = n]) and substitute it.
    This is sound (witness instantiation) and, as the paper observes,
    suffices for all constraints generated from the example programs. *)

val eliminate_existentials : t -> t
(** Eliminates every solvable existential quantifier, innermost first.
    Unsolvable existentials are left in place; {!goals} reports them. *)

val solve_equation_for : Ivar.t -> Idx.bexp -> Idx.iexp option
(** [solve_equation_for a b] returns [Some e] when [b] is an equation linear
    in [a] with unit coefficient, solved as [a = e] with [a] not free in
    [e]. *)

(** {1 Goal extraction} *)

type goal = {
  goal_vars : (Ivar.t * Idx.sort) list;  (** universally quantified context *)
  goal_hyps : Idx.bexp list;  (** antecedents, including sort refinements *)
  goal_concl : Idx.bexp;  (** the predicate to validate *)
}

val goals : t -> (goal list, string) result
(** Decomposes a constraint into independent sequents.  Fails when a residual
    existential quantifier remains (the paper rejects such constraints rather
    than invoking a full Presburger procedure). *)

val pp_goal : Format.formatter -> goal -> unit
