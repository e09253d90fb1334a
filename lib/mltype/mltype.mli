(** ML types for phase-1 inference (Section 3: "In the first phase, we
    ignore dependent type annotations and simply perform the type inference
    of ML").

    Unification variables use mutable links with Remy-style levels for
    efficient let-generalisation. *)

type t =
  | Tvar of tv ref
  | Tqvar of string  (** rigid (user-written or generalised) type variable *)
  | Tcon of string * t list  (** type constructor: [int], [bool], [array], datatypes *)
  | Ttuple of t list  (** n-ary product; [Ttuple []] is [unit] *)
  | Tarrow of t * t

and tv = Unbound of int * int  (** id, level *) | Link of t

val tint : t
val tbool : t
val tchar : t
val tstring : t
val tunit : t

val fresh_var : level:int -> t
val repr : t -> t
(** Follow links to the representative (path-compressing). *)

exception Unify_error of t * t

val unify : t -> t -> unit
(** @raise Unify_error on a constructor clash or occurs-check failure. *)

type scheme = { svars : string list; sbody : t }
(** Quantified type: the [svars] are [Tqvar] names bound in [sbody]. *)

val mono : t -> scheme

val generalize : level:int -> t -> scheme
(** Quantifies unbound variables of level greater than [level]. *)

val instantiate : level:int -> scheme -> t
(** Replaces quantified variables with fresh unification variables. *)

val instantiate_mapped : level:int -> scheme -> t * (string * t) list
(** Like {!instantiate} but also returns the variable-to-type mapping (used
    by the elaborator to recover type-argument instantiations). *)

val zonk : t -> t
(** Resolve all links, producing a [Tvar]-free type when fully determined;
    leftover unbound variables are frozen as [Tqvar "_weak<n>"]. *)

val to_string : t -> string
val pp_scheme : Format.formatter -> scheme -> unit
