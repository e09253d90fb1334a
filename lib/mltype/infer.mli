(** Phase-1 Hindley--Milner inference over the surface AST.

    Ignores index annotations entirely (they are erased), performs ML type
    inference with let-polymorphism and the value restriction, resolves which
    names are constructors, and produces a typed AST for the dependent
    elaborator (phase 2). *)

open Dml_lang

exception Type_error of string * Loc.t

module SMap = Tyenv.SMap

type env = {
  tyenv : Tyenv.t;
  vals : Mltype.scheme SMap.t;
  level : int;
  warnings : (string * Loc.t) list ref;
      (** pattern-match exhaustiveness/redundancy warnings, most recent first *)
}

val initial : Tyenv.t -> (string * Mltype.scheme) list -> env

val bind : env -> (string * Mltype.scheme) list -> env
(** The environment with the given top-level schemes bound, in order: how
    the incremental checker inserts the stored bindings of a declaration it
    does not re-infer. *)

val infer_program : env -> Ast.program -> env * Tast.tprogram
(** Processes the whole program; the returned typed AST is fully zonked. *)

