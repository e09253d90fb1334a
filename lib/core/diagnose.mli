(** Source-context rendering of checking failures.

    The paper's Section 6 notes that "unsolved constraints ... may provide
    some hints on where type errors originate, but they are often inaccurate
    and obscure" and calls for more informative error messages.  This module
    renders each unproven obligation with its source excerpt, the constraint
    itself, and the verified counterexample assignment when the solver
    reconstructed one. *)

val render_report : src:string -> Pipeline.report -> string
(** All unproven obligations of a report, or a one-line success summary. *)

val render_degradation : src:string -> Pipeline.report -> string
(** Degradation summary: one entry per unproven obligation, saying where the
    residual dynamic check sits and why the solver left it (refuted, outside
    the fragment, or budget exhausted). *)

val render_failure : src:string -> Pipeline.failure -> string
(** A static failure (lex/parse/ML/elaboration) with its source excerpt. *)
