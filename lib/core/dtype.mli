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
val unit_ : t

(** {1 Substitution} *)

val rename : Ivar.t -> Ivar.t -> t -> t
(** [rename v v' t] replaces the variable [v] by [v'] at both integer
    ([Ivar]) and boolean ([Bvar]) occurrences — used when opening a
    quantifier whose sort may be [bool]. *)

val subst_tyvars : (string * t) list -> t -> t
(** Substitution of dependent types for ML type variables ['a]. *)

(** {1 Inspection} *)

val occurs : Ivar.t -> t -> bool
(** [occurs a t]: the index variable [a] occurs free in [t]. *)

val strip_pis : t -> (Ivar.t * Idx.sort) list * t
(** Splits [Pi a1. ... Pi ak. t] into the quantifier prefix and body. *)

val open_sigmas : t -> (Ivar.t * Idx.sort) list * t
(** Replaces the top-level (and tuple-component) [Sigma] binders by fresh
    variables, returning the fresh variables with their sorts.  The caller
    must add them to the universal context with their sort refinements as
    hypotheses. *)

val index_eq : index -> index -> Idx.bexp
(** The boolean index formula asserting equality of two index arguments
    (equality for integers, equivalence for booleans).
    @raise Invalid_argument when the kinds differ. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val pp_index : Format.formatter -> index -> unit
