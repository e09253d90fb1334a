(** Elaboration environments: indexed type families, refined constructor
    signatures, dependent value signatures, and the resolution of surface
    types into dependent types. *)

open Dml_index
open Dml_lang
open Dml_mltype

module SMap : Map.S with type key = string

exception Error of string

type family = {
  fam_name : string;
  fam_tyarity : int;  (** number of ML type parameters *)
  fam_sorts : Idx.sort list;  (** index sorts; empty until a [typeref] refines it *)
}

type dscheme = { ds_tyvars : string list; ds_body : Dtype.t }

type t = {
  families : family SMap.t;
  con_types : Dtype.t SMap.t;  (** refined constructor signatures *)
  abbrevs : Ast.stype SMap.t;
  vals : dscheme SMap.t;
  mltyenv : Tyenv.t;
}

val builtin : Tyenv.t -> t
(** Knows [int : int], [bool : bool], ['a array : nat] and [unit]. *)

type iscope = (Ivar.t * Idx.sort) SMap.t
(** Index variables in scope during type resolution. *)

val resolve_bexp : iscope -> Ast.sindex -> Idx.bexp

val resolve_stype : t -> iscope -> Ast.stype -> Dtype.t
(** Resolution of a surface type: sorts out quantifier groups, attaches
    subset conditions, expands abbreviations, and interprets missing index
    arguments existentially (e.g. [int] as [[a:int] int(a)]).
    @raise Error on unknown names, arity or kind mismatches. *)

val add_quant : t -> iscope -> Ast.quant -> iscope * (Ivar.t * Idx.sort) list
(** Resolves one quantifier group, returning the extended scope and the
    resolved binders (the group condition becomes a subset sort on the last
    binder). *)

val add_datatype : t -> Ast.datatype_def -> t
val process_typeref : t -> Ast.typeref_def -> t
val add_abbrev : t -> string -> Ast.stype -> t
val add_assert : t -> string -> Ast.stype -> t
val add_val : t -> string -> dscheme -> t
val find_val : t -> string -> dscheme option

val con_dtype : t -> string -> Dtype.t
(** Dependent signature of a constructor: the [typeref]-declared type when
    refined, otherwise the embedding of its ML type.
    @raise Error on an unknown constructor. *)

val embed : t -> Mltype.t -> Dtype.t
(** Trivial embedding of an ML type: indexed families receive existentially
    quantified indices ([int] becomes [[a:int] int(a)]), so unannotated code
    elaborates conservatively (Section 2.4: "Indices may be omitted in
    types, in which case they are interpreted existentially"). *)

val instantiate : dscheme -> Tast.inst -> t -> Dtype.t
(** Instantiates the ML type variables of a dependent signature with the
    embeddings of the use site's ML instantiation. *)
