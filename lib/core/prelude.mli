(** The standard basis ({!Basis.source}) parsed, ML-inferred and elaborated
    once per process.

    Every check starts from this prelude and runs phases 1 and 2 over the
    user program alone.  The result is the one a single pass over
    [basis @ user] gives: {!Dml_mltype.Infer.infer_program} is a left fold
    followed by one zonk, {!Elab.elaborate_tops} composes over any partition
    of a program, and the global fresh-id counters are never reset, so basis
    ids still precede every user id (the Fourier–Motzkin pivot order is
    unchanged). *)

open Dml_lang
open Dml_mltype

type t = private {
  tprog : Tast.tprogram;  (** the basis, typed and zonked *)
  mlenv : Infer.env;  (** the phase-1 environment after the basis *)
  ectx : Elab.ectx;  (** the phase-2 context after the basis *)
  obligations : Elab.obligation list;  (** the basis's own, in generation order *)
}

val get : unit -> t
(** The prelude, built on first use. *)

val env : t -> Infer.env
(** The post-basis phase-1 environment with a warnings list of its own, for
    front ends that run phase 1 a declaration at a time ({!Incr}). *)

val start : t -> Ast.program -> Infer.env * Tast.tprogram * Elab.ectx
(** Phase 1 over a user program from the post-basis environment: the
    whole-program environment, with a warnings list of its own so checks
    never see each other's warnings; the user program's typed AST; and the
    post-basis elaboration context to elaborate it in, resolving
    constructors against the whole program's type environment
    ({!Elab.with_tyenv}).
    @raise Infer.Type_error *)
