(** Phase-2 elaboration (Section 3): a bidirectional traversal of the typed
    AST that checks dependent annotations and collects index constraints.

    Synthesis returns an (extended) context together with an "opened" type:
    top-level existential indices are replaced by fresh universal variables
    whose sort refinements become hypotheses.  Checking pushes universal
    quantifiers and hypotheses (from conditional branches and pattern
    matching) into the context; every atomic obligation is emitted wrapped
    in its full context prefix, exactly as the sample constraints of
    Figure 4. *)

open Dml_lang
open Dml_constr
open Dml_mltype

exception Error of string * Loc.t

type obligation = {
  ob_constr : Constr.t;  (** closed constraint, quantifier prefix included *)
  ob_loc : Loc.t;
  ob_what : string;  (** human-readable provenance, e.g. "argument 2 of sub" *)
}

type result = {
  res_denv : Denv.t;  (** final environment (for further elaboration) *)
  res_obligations : obligation list;  (** in generation order *)
}

val elaborate : Denv.t -> Tast.tprogram -> result
(** @raise Error on a dependent-type error detectable without solving
    (arity/kind mismatches, non-matching type structure, unknown names). *)

(** {1 Staged elaboration}

    The same fold as {!elaborate}, resumable between top-level items: the
    declaration-grain incremental checker ({!Incr}) elaborates one item at
    a time to learn which obligations each declaration generates.  The
    carried {!ectx} is the {e whole} elaboration context, not just the
    environment — a top-level [val] whose type opens existential indices
    pushes universal entries that wrap every later obligation's quantifier
    prefix, so elaborating [p1 @ p2] in one call and elaborating [p1] then
    [p2] through a threaded {!ectx} produce identical obligations. *)

type ectx

val initial_ectx : Denv.t -> ectx

val elaborate_tops : ectx -> Tast.tprogram -> ectx * obligation list
(** Elaborate the items under the carried context, returning the extended
    context and the items' obligations in generation order.
    [elaborate denv p] = the composition of [elaborate_tops] over any
    partition of [p] started from [initial_ectx denv].
    @raise Error as {!elaborate}. *)

val bound_vals : ectx -> string list -> (string * Denv.dscheme) list
(** The top-level term bindings of the named values in the context (names
    the context does not bind are skipped). *)

val bind_vals : ectx -> (string * Denv.dscheme) list -> ectx
(** The context with the given top-level term bindings added, in order.
    For a [fun] declaration, [bind_vals ctx (bound_vals ctx' names)] where
    [ctx'] is [ctx] after elaborating it and [names] are its function names
    gives back [ctx'] exactly: elaborating a [fun] only binds its names.
    The incremental checker inserts a reused declaration's products this
    way instead of re-elaborating it. *)

val with_tyenv : ectx -> Tyenv.t -> ectx
(** The context with constructors resolved against [tyenv] — the ML type
    environment of the whole program, which {!elaborate}'s callers pass
    through {!Denv.builtin}.  Lets a context elaborated over a prefix (the
    basis, {!Prelude}) continue over a program inferred after it exactly as
    if the two had been elaborated in one call. *)

val export_denv : ectx -> Denv.t
(** The context's environment with the top-level term bindings folded in —
    what {!elaborate} returns as [res_denv]. *)
