(** Dependent types (Section 2.2):
    {v
    t ::= 'a | (t1,..,tn) d (i1,..,ik) | t1 * .. * tn | t1 -> t2
        | Pi a : g. t | Sigma a : g. t
    v}
    Index arguments are integer or boolean index expressions. *)

open Dml_index

type index = Iint of Idx.iexp | Ibool of Idx.bexp

type t =
  | Dvar of string  (** ML type variable ['a] *)
  | Dcon of string * t list * index list  (** indexed base family *)
  | Dtuple of t list  (** [Dtuple []] is [unit] *)
  | Darrow of t * t
  | Dpi of Ivar.t * Idx.sort * t
  | Dsigma of Ivar.t * Idx.sort * t

val int_ : Idx.iexp -> t

val bool_ : Idx.bexp -> t
val bool_any : t

(** {1 Substitution} *)

val subst : Idx.iexp Ivar.Map.t -> Idx.bexp Ivar.Map.t -> t -> t
(** [subst im bm t] replaces index variables at integer ([Ivar])
    occurrences from [im] and at boolean ([Bvar]) occurrences from [bm],
    simultaneously, in indices and in sorts ({!Idx.subst_sort}).  A
    [Pi]/[Sigma] binder hides its own variable from its body.  With both
    maps empty, [t] itself. *)

val subst_index : Idx.iexp Ivar.Map.t -> Idx.bexp Ivar.Map.t -> index -> index
(** {!subst} on one index argument. *)

val open_prefix :
  ?pi:(Ivar.t -> Idx.sort -> Ivar.t) -> ?sigma:(Ivar.t -> Idx.sort -> Ivar.t) -> t -> t
(** [open_prefix ?pi ?sigma t] opens the leading [Pi] binders (when [pi]
    is given) and [Sigma] binders (when [sigma] is given) of [t], in any
    interleaving, and returns the body.  Each binder [a : g] is replaced by
    the variable [fresh a g'], called in prefix order, where [fresh] is [pi]
    or [sigma] and [g'] is [g] under the renaming of the binders before it.
    The body is substituted once, at the end. *)

val subst_tyvars : (string * t) list -> t -> t
(** Substitution of dependent types for ML type variables ['a]. *)

(** {1 Inspection} *)

val occurs : Ivar.t -> t -> bool
(** [occurs a t]: the index variable [a] occurs free in [t]. *)

val open_sigmas : t -> (Ivar.t * Idx.sort) list * t
(** Replaces the top-level (and tuple-component) [Sigma] binders by fresh
    variables through {!open_prefix}, returning the fresh variables with
    their sorts.  The caller must add them to the universal context with
    their sort refinements as hypotheses. *)

val index_eq : index -> index -> Idx.bexp
(** The boolean index formula asserting equality of two index arguments
    (equality for integers, equivalence for booleans).
    @raise Invalid_argument when the kinds differ. *)

val to_string : t -> string
