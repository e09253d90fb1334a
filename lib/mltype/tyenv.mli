(** Type environments for phase-1 inference: datatype declarations,
    constructor signatures, type abbreviations, and the ML erasure of
    surface types. *)

open Dml_lang

module SMap : Map.S with type key = string

type con_info = {
  con_name : string;
  con_tycon : string;  (** owning datatype *)
  con_params : string list;  (** the datatype's type parameters *)
  con_arg : Mltype.t option;  (** argument type over [Tqvar] parameters *)
}

type dt_info = { dt_tycon : string; dt_params : string list; dt_cons : string list }

type t = {
  datatypes : dt_info SMap.t;
  cons : con_info SMap.t;
  abbrevs : Ast.stype SMap.t;  (** [type name = t] declarations *)
}

val builtin : t
(** Knows the built-in type families [int], [bool], [array] and [unit]
    (which are not datatypes but are recognised by {!erase}). *)

val find_con : t -> string -> con_info option
val find_datatype : t -> string -> dt_info option

val add_datatype : t -> Ast.datatype_def -> t
(** Registers the datatype and its constructors.
    @raise Error on duplicate names or unbound type variables. *)

val add_abbrev : t -> string -> Ast.stype -> t

val add_exception : t -> string -> Ast.stype option -> t
(** Registers an exception constructor on the extensible [exn] datatype.
    @raise Error on duplicates or polymorphic arguments. *)

val add_exception_erased : t -> string -> Mltype.t option -> t
(** Like {!add_exception} but from an already-erased argument type and
    idempotent; used by the elaborator to mirror local exception
    declarations into its environment. *)

exception Error of string

val erase : t -> Ast.stype -> Mltype.t
(** ML erasure of a surface type: indices and quantifiers are dropped,
    abbreviations are expanded, [STvar 'a] becomes [Tqvar a].
    @raise Error on an unknown type constructor or an arity mismatch. *)

val con_scheme : con_info -> Mltype.scheme
(** The constructor as a polymorphic value: [arg -> dt] or just [dt]. *)
