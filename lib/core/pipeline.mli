(** The end-to-end checking pipeline: parse, ML inference (phase 1),
    dependent elaboration (phase 2), constraint solving.

    The basis ({!Basis.source}) is processed through the same phases as
    user code, once per process ({!Prelude}); every check continues from
    there over the user program alone.

    Solving is *per-obligation and resource-governed*: each obligation runs
    under its own fresh {!Dml_solver.Budget.t} (built from the
    {!Session.solve_config}) behind the solver's isolation barrier, so one
    pathological constraint times out or faults alone — its verdict becomes
    [Timeout]/[Unsupported] — while every other obligation is still decided.
    Every check, whatever surface asks for it, runs through one driver,
    {!run}: the plain checker ({!check_s}), the incremental checker
    ({!Incr.check}) and the inference engine ({!Dml_infer.Engine.check_s})
    only supply its front end and its solving order.

    A report with residual (unproven) obligations supports two consumptions,
    chosen by the caller, not by the session: a strict caller rejects the
    program ({!check_valid_s}); a degrading one compiles it with dynamic
    checks at exactly the residual sites ({!degraded}, consumed by
    [Dml_eval.Compile] and [Dml_eval.Codegen]). *)

open Dml_lang
open Dml_solver
open Dml_mltype

type failure = {
  f_stage : [ `Lex | `Parse | `Mltype | `Elab | `Internal ];
  f_msg : string;
  f_loc : Loc.t;
}

type checked_obligation = {
  co_obligation : Elab.obligation;
  co_verdict : Solver.verdict;
  co_time : float;  (** wall-clock seconds spent deciding this obligation *)
}

type report = {
  rp_obligations : checked_obligation list;
  rp_valid : bool;  (** all obligations proved *)
  rp_constraints : int;  (** number of generated constraints *)
  rp_residual : int;  (** obligations left unproven (degraded sites) *)
  rp_timeouts : int;  (** of those, how many hit their budget *)
  rp_gen_time : float;  (** wall-clock seconds (monotonic): parse + phases 1/2 *)
  rp_solve_time : float;  (** wall-clock seconds (monotonic): constraint solving *)
  rp_solver_stats : Solver.stats;
  rp_annotations : int;  (** number of type annotations in the user program *)
  rp_annotation_lines : int;  (** distinct source lines they occupy *)
  rp_code_lines : int;  (** non-blank lines of the user program *)
  rp_tprog : Tast.tprogram;  (** basis + user program, typed (for evaluation) *)
  rp_user_tprog : Tast.tprogram;  (** the user program alone *)
  rp_warnings : (string * Loc.t) list;
      (** pattern-match warnings from phase 1, in source order *)
  rp_mlenv : Infer.env;
  rp_denv : Denv.t;
  rp_cache_stats : Dml_cache.Cache.snapshot option;
      (** verdict-cache counters for *this* check (a snapshot delta, so a
          cache shared across programs still reports per-program figures);
          [None] when no cache was supplied *)
}

(** {1 The check driver}

    {!run} is the one function that runs a check: {!check_s} passes it the
    whole-program front end, the incremental checker ({!Incr}) its
    declaration-grain one, and the inference engine ({!Dml_infer.Engine})
    its qualifier fixpoint.  Whatever the surface, a check installs the
    session's sink, reports the session cache's delta, opens one root
    [check] span and bumps the [pipeline.*] instruments, all here. *)

type frontend = {
  fe_obligations : Elab.obligation list;  (** in generation order *)
  fe_gen_time : float;  (** wall-clock seconds: parse + phases 1/2 *)
  fe_annotations : int;
  fe_annotation_lines : int;
  fe_code_lines : int;
  fe_tprog : Tast.tprogram;
  fe_user_tprog : Tast.tprogram;
  fe_warnings : (string * Loc.t) list;
  fe_mlenv : Infer.env;
  fe_denv : Denv.t;
}

val frontend : string -> (frontend, failure) result
(** Parse, ML inference, dependent elaboration — everything before solving.
    Never raises (same failure conversion as {!check_s}). *)

val parse : string -> Ast.program * (int * int) list
(** The user program and its annotation spans, under a [parse] span — the
    parse step of {!frontend}.  Raises the lexer's and parser's errors;
    inside a {!run} front end they become its failure. *)

val frontend_ast :
  src:string -> spans:(int * int) list -> Ast.program -> (frontend, failure) result
(** Like {!frontend}, but on an already-parsed (possibly rewritten) user
    program: the annotation-inference engine ({!Dml_infer.Engine}) parses
    once, attaches synthesized type templates to the AST, and re-runs ML
    inference + elaboration per fixpoint round through this entry.  [src]
    only feeds the code-line metric; [spans] are the annotation spans of the
    {e original} source, so synthesized templates never count as
    hand-written annotations. *)

val frontend_of :
  t0:float ->
  src:string ->
  spans:(int * int) list ->
  mlenv:Infer.env ->
  user_tprog:Tast.tprogram ->
  ectx:Elab.ectx ->
  Elab.obligation list ->
  frontend
(** The front-end record of a user program whose phases 1 and 2 ended in
    [mlenv] and [ectx] with these obligations (generation order, the
    basis's excluded: they are prepended), timed from [t0] — what
    {!frontend} builds, for a front end staged elsewhere ({!Incr}). *)

val failure_of_exn : exn -> failure
(** The pipeline's exception-to-failure conversion (staged front-end errors
    and the catch-all [`Internal] case). *)

val count_code_lines : string -> int
(** Non-blank source lines — the [code_lines] report metric. *)

type solve = stats:Solver.stats -> Elab.obligation -> checked_obligation
(** Decide one obligation under a fresh budget built from the session's
    solve config, against the session's verdict cache, adding the work to
    [stats].  Never raises: the solver's isolation barrier converts faults
    to verdicts. *)

val run :
  Session.t ->
  (unit -> (frontend * 'a, failure) result) ->
  (solve -> frontend -> 'a -> checked_obligation list * Solver.stats * 'b) ->
  (report * 'b, failure) result
(** [run session front solve] runs one check: [front ()], then [solve]
    with the session's per-obligation {!solve}, which returns the checked
    obligations in generation order and the solver work they took.  The
    report joins the front end, those verdicts, the solving time and the
    session cache's counters over the whole check.  Never raises but on
    [Sys.Break]: an exception from either half becomes a failure. *)

val solve_all : solve -> frontend -> 'a -> checked_obligation list * Solver.stats * 'a
(** Every obligation of the front end, in order, into one stats block:
    the solving half of {!check_s}. *)

val check_s : Session.t -> string -> (report, failure) result
(** Runs the full pipeline on a user program (after the basis) under
    a {!Session.t}: the session supplies the solve config, the shared
    verdict cache (so the basis and any repeated goals are solved once
    across every check of the session — {!Dml_cache.Cache} states the reuse
    rules) and an optional trace sink, installed for the duration of the
    call.  Never raises on any input: staged front-end errors are returned
    as failures, and an unexpected exception (including stack overflow) is
    reported as an [`Internal] failure rather than propagated. *)

val check_valid_s : Session.t -> string -> (report, string) result
(** Strict consumption: like {!check_s} but also turns unproven obligations
    (including timeouts) into an error message listing the failing
    constraints. *)

val unproven : report -> checked_obligation list
(** Obligations whose verdict is not [Valid], in generation order. *)

val degraded_sites : report -> Loc.t list
(** Source locations of the unproven obligations: the sites that must keep
    their dynamic checks under graceful degradation. *)

val degraded_pred : report -> Loc.t -> bool
(** Membership predicate over {!degraded_sites} (constant-false when the
    report is fully valid), in the shape the backends consume. *)

val degraded : report -> (Loc.t -> bool) option
(** What a degraded run passes the backends: [None] when the report is
    fully valid, else [Some] {!degraded_pred}. *)

val stage_name : [ `Lex | `Parse | `Mltype | `Elab | `Internal ] -> string
val pp_failure : Format.formatter -> failure -> unit
val failure_to_string : failure -> string
val pp_report : Format.formatter -> report -> unit
