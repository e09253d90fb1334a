(** The index language of Section 2.2.

    Integer indices
    {v i, j ::= a | i+j | i-j | i*j | div(i,j) | mod(i,j)
              | min(i,j) | max(i,j) | abs(i) | sgn(i) v}
    boolean indices
    {v b ::= a | false | true | i<j | i<=j | i=j | i<>j | i>=j | i>j
           | ~b | b /\ b | b \/ b v}
    and index sorts [int], [bool] and subset sorts [{a : g | b}].

    Linearity is not enforced here: {!Linear.of_iexp} translates the
    affine fragment, and the solver's purification ({!Dml_solver.Purify})
    removes everything else first. *)

type iexp =
  | Ivar of Ivar.t
  | Iconst of int
  | Iadd of iexp * iexp
  | Isub of iexp * iexp
  | Ineg of iexp
  | Imul of iexp * iexp
  | Idiv of iexp * iexp
  | Imod of iexp * iexp
  | Imin of iexp * iexp
  | Imax of iexp * iexp
  | Iabs of iexp
  | Isgn of iexp

type rel = Rlt | Rle | Req | Rne | Rge | Rgt

type bexp =
  | Bvar of Ivar.t
  | Bconst of bool
  | Bcmp of rel * iexp * iexp
  | Bnot of bexp
  | Band of bexp * bexp
  | Bor of bexp * bexp

type sort = Sint | Sbool | Ssubset of Ivar.t * sort * bexp

(** {1 Smart constructors} *)

val iadd : iexp -> iexp -> iexp
(** Constant-folds when both sides are constants; [e+0 = e]. *)

val isub : iexp -> iexp -> iexp
val imul : iexp -> iexp -> iexp
val band : bexp -> bexp -> bexp
val bor : bexp -> bexp -> bexp
val bnot : bexp -> bexp
val cmp : rel -> iexp -> iexp -> bexp
val conj : bexp list -> bexp

val nat : sort
(** The subset sort [{a : int | a >= 0}]. *)

(** {1 Structure} *)

val base_sort : sort -> sort
(** Strips subset refinements down to [Sint] or [Sbool]. *)

val sort_refinement : Ivar.t -> sort -> bexp
(** [sort_refinement a g] is the boolean constraint membership of [a] in [g]
    implies; [Bconst true] for the base sorts. *)

val fv_iexp : iexp -> Ivar.Set.t
val fv_bexp : bexp -> Ivar.Set.t

val occurs_iexp : Ivar.t -> iexp -> bool
val occurs_bexp : Ivar.t -> bexp -> bool
(** [occurs_iexp a e] is [Ivar.Set.mem a (fv_iexp e)], decided by a walk
    that allocates nothing and stops at the first occurrence. *)

val occurs_sort : Ivar.t -> sort -> bool
(** [a] occurs free in a condition of the sort (each subset binder scopes
    over its own condition). *)

val occurs_refinement : Ivar.t -> Ivar.t -> sort -> bool
(** [occurs_refinement a b g] is [Ivar.Set.mem a (fv_bexp (sort_refinement b g))].
    It builds the refinement only when [a] is [b] or is mentioned in one of
    the sort's conditions. *)

val subst_iexp : iexp Ivar.Map.t -> iexp -> iexp
val subst_bexp : iexp Ivar.Map.t -> bexp -> bexp
(** Substitution of integer index expressions for integer index variables.
    Boolean index variables are never the target of substitution here. *)

val subst_bvar : bexp Ivar.Map.t -> bexp -> bexp
(** Substitution of boolean index expressions for boolean index variables
    ([Bvar] occurrences). *)

val subst_sort : iexp Ivar.Map.t -> bexp Ivar.Map.t -> sort -> sort
(** [subst_sort im bm g] substitutes in the sort's conditions, integer and
    boolean occurrences at once; a subset binder hides its own variable
    from its own condition only, not from its inner sort.  With both maps
    empty, [g] itself. *)

val equal_iexp : iexp -> iexp -> bool
val equal_bexp : bexp -> bexp -> bool

(** {1 Evaluation} *)

type value = Vint of int | Vbool of bool

val eval_iexp : value Ivar.Map.t -> iexp -> int
(** ML semantics of the arithmetic operations: [div]/[mod] follow floor
    division as in the paper's constraint interpretation.
    @raise Not_found on an unbound variable.
    @raise Division_by_zero accordingly. *)

val eval_bexp : value Ivar.Map.t -> bexp -> bool

(** {1 Printing} *)

val pp_iexp : Format.formatter -> iexp -> unit
val pp_bexp : Format.formatter -> bexp -> unit
val pp_sort : Format.formatter -> sort -> unit
val iexp_to_string : iexp -> string
val bexp_to_string : bexp -> string
