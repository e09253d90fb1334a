(** Liquid-qualifier annotation inference.

    The engine checks a program that carries few or no dependent-type
    annotations by {e synthesizing} them: wherever elaboration would fall
    back to the conservative existential embedding (an unannotated
    [fun]), it attaches a dependent-type template whose index variables
    are {e liquid variables} — each refined by the conjunction of its
    whole qualifier vocabulary ({!Qualifier}) — and then weakens every
    conjunction to a fixpoint against the program's flow implications:

    + parse once; run the plain front end to learn every function's
      principal ML type;
    + build one template per eligible unannotated function (singleton
      indices for integer parameters and results, size indices for
      arrays/lists/strings, nothing under higher-order arrows);
    + per round: attach the current conjunctions as [where] annotations,
      re-run ML inference + elaboration ({!Dml_core.Pipeline.frontend_ast}),
      and test every {e flow goal} (an implication whose conclusion is a
      template conjunction, recognized by a sentinel conjunct) through the
      existing solver — budgets and the verdict cache apply per qualifier
      test; any conjunct that is not [Valid] (including [Timeout]) is
      dropped;
    + iterate until no conjunct is dropped (kept sets shrink
      monotonically, so this terminates), clear any function whose
      surviving conjunction is unsatisfiable (a never-called function
      would otherwise keep vacuous refinements that prove its dead code),
      and solve the final program normally.

    Weakening only ever {e removes} refinements, so inference never
    proves a site the same program would fail under hand annotations
    weaker than the inferred ones; unprovable sites surface as ordinary
    residual obligations and degrade exactly as without inference. *)

open Dml_core

type stats = {
  st_liquid_vars : int;  (** template index variables created *)
  st_iterations : int;  (** weakening rounds run (front-end re-elaborations) *)
  st_quals_tested : int;  (** solver calls made to test qualifiers *)
  st_quals_kept : int;  (** qualifiers surviving at the fixpoint *)
}

type var_solution = {
  vs_var : string;  (** liquid variable name (unique, contains ["%"]) *)
  vs_kept : string list;  (** its surviving qualifiers, rendered *)
}

type fun_solution = {
  fs_fun : string;  (** function name *)
  fs_type : string;  (** the final inferred dependent type, rendered *)
  fs_vars : var_solution list;
}

type outcome = {
  oc_report : Pipeline.report;
      (** the standard report for the final (inferred) program: verdicts,
          residual sites, timings — consumed exactly like a
          {!Pipeline.check_s} report *)
  oc_stats : stats;
  oc_solution : fun_solution list;  (** per templated function, in source order *)
  oc_abandoned : string option;
      (** [Some reason] when a synthesized template made a fixpoint round
          fail to elaborate (an engine limitation, not a user error): the
          program was then checked plainly, as without [--infer] *)
}

val check_s :
  ?vocab_keep:(string -> bool) -> Session.t -> string -> (outcome, Pipeline.failure) result
(** Infer and check one program under a session.  The session's solve
    config governs every qualifier test (fresh budget per test) and the
    final solve.  Both are always memoised: in the session's verdict cache
    when it has one, else in a cache private to this call.
    [?vocab_keep] filters the initial vocabulary by rendered qualifier
    (the fuzzing hook — inference from any sub-vocabulary must stay
    sound).  Runs as one {!Pipeline.run} check: the fixpoint is its front
    end, so the whole inference sits under the one root [check] span and
    counts once in [pipeline.runs].  Never raises; front-end failures of
    the {e original} program are returned as failures exactly like
    {!Pipeline.check_s}. *)

val check :
  Session.t -> string -> (Pipeline.report * outcome option, Pipeline.failure) result
(** The session's checker on one source: {!check_s} when the session's
    options set [op_infer] (the outcome is [Some]), the plain
    {!Dml_core.Pipeline.check_s} otherwise ([None]).  [dmlc check], every
    batch row and [dmld], inline or pooled, check through this one choice. *)

val check_json :
  ?extra:(string * Dml_obs.Json.t) list ->
  Session.t ->
  program:string ->
  (Pipeline.report * outcome option, Pipeline.failure) result ->
  Dml_obs.Json.t
(** The check document of a {!check} result under the same session:
    [dml-check/1] without [op_infer]; under it [dml-check/2], whose report
    form carries the [dml-infer/1] trace of the final solution (stats,
    per-function inferred types and kept qualifiers, residual sites) as
    ["inferred"].  [extra] fields ([dmlc]'s spans and metrics) follow. *)
