(** Lowering: the one pass from the typed program to the resolved IR that
    both backends consume.  {!Compile} builds closures from it (the closure
    backend and the cost model) and {!Codegen} prints it as OCaml; neither
    reads [Tast].  The IR is {!Ir}.  Every decision the backends must agree on is made here:

    - {b Variables} resolve, with shadowing applied, to a frame slot
      [Local (depth, slot, name)], a top-level binding [Global (id, name)]
      or a primitive [Prim].  Each activation of a [fn] or of a [fun]'s
      clauses has one frame, with a slot per parameter and per binder of
      its body, so a slot is written at most once per activation.
      Top-level code runs at depth 1; top-level functions are defined at
      depth 0.  A [fun]'s parameters take its first slots: one per curried
      argument, or one per field when every clause takes one n-tuple
      ([spread = Some n]).  A variable parameter is its slot.
    - {b Primitive calls.}  A primitive applied to one operand (arity 1) or
      to a literal tuple of its arity becomes [Prim_call {prim; checked;
      args}], with [checked = (mode = Checked || degraded loc)] at the
      application's location.  Any other use of a primitive is first
      class, checked in [Checked] mode and whenever a degradation predicate
      is present.
    - {b Known calls.}  A call of a [fun] by the name its group bound is
      [Known_call] when the operands fit the callee's layout.  For a [fun]
      of one curried argument: a literal n-tuple for [spread = Some n],
      anything for [spread = None].  For a [fun] of k > 1 curried
      arguments: a saturated application [f a1 .. ak], whose k operands
      ([spread = None]) fill slots 0..k-1; the operands of an
      over-application after the k-th apply to its result, and a partial
      application stays [App].  A curried [Known_call] stands for the
      application chain {!Ir.app_chain}, which [Codegen] prints.  Every
      other call is [App].
    - {b Constructors} resolve to a {!Value.con} with an integer tag: a
      datatype constructor's position in its declaration, an exception's
      tag unique in the process ([Subscript] 0, [Div] 1, built in).
      Exception constructors ([exn = true]) are told apart from datatype
      constructors, and declaring an exception already in scope lowers to
      nothing.
    - {b Small cases.}  Type annotations are dropped.  A constructor used
      as a function value is [Con_fn], eta-expanded by the backends.

    Operands keep SML's order, function before argument and then left to
    right, and the backends run them in that order. *)

open Dml_lang
open Dml_mltype
open Ir

type env
(** The names in scope at top level, with the lowering's settings. *)

val init : Prims.mode -> ?degraded:(Loc.t -> bool) -> unit -> env

val top : env -> Tast.ttop -> env * top option
(** Lower one top-level declaration; [None] for those with no run-time
    content. *)

val resolve : env -> string -> var option
(** What a top-level name denotes. *)
