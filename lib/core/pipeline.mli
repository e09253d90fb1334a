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
    A report with residual (unproven) obligations supports two consumptions:
    strict mode rejects the program ({!check_valid_s}); degraded mode compiles
    it with dynamic checks at exactly the residual sites
    ({!degraded_sites}/{!degraded_pred}, consumed by [Dml_eval.Compile] and
    [Dml_eval.Codegen]). *)

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

(** {1 The staged pipeline}

    {!check_s} is the one-call front door; the three stages below are exposed
    for engines that stage a check themselves: the incremental checker
    ({!Incr}) solves only the obligations of dirty declarations and
    reassembles the report from reused and fresh verdicts, and the
    inference engine ({!Dml_infer.Engine}) re-runs the front end per
    fixpoint round. *)

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

val frontend_ast :
  src:string -> spans:(int * int) list -> Ast.program -> (frontend, failure) result
(** Like {!frontend}, but on an already-parsed (possibly rewritten) user
    program: the annotation-inference engine ({!Dml_infer.Engine}) parses
    once, attaches synthesized type templates to the AST, and re-runs ML
    inference + elaboration per fixpoint round through this entry.  [src]
    only feeds the code-line metric; [spans] are the annotation spans of the
    {e original} source, so synthesized templates never count as
    hand-written annotations. *)

val failure_of_exn : exn -> failure
(** The pipeline's exception-to-failure conversion (staged front-end errors
    and the catch-all [`Internal] case), exposed for engines that stage
    front-end calls themselves. *)

val with_session_sink : Session.t -> (unit -> 'a) -> 'a
(** Run [f] with the session's trace sink installed (restoring whatever was
    active), as {!check_s} does — for engines ({!Dml_infer.Engine},
    {!Incr}) that stage pipeline calls themselves. *)

val count_code_lines : string -> int
(** Non-blank source lines — the [code_lines] report metric. *)

val annotation_metrics : (int * int) list -> int * int
(** [(annotations, annotation_lines)] from the parser's annotation spans —
    the Table 1 metrics, shared with staged front ends. *)

val solve_obligation_s :
  Session.t -> ?stats:Solver.stats -> Elab.obligation -> checked_obligation
(** Decide one obligation under a fresh budget built from the session's
    solve config, against the session's verdict cache and trace sink — what
    {!check_s} does for each obligation, exposed for {!Incr}, which
    re-solves only the obligations of dirty declarations.  Never raises:
    the solver's isolation barrier converts faults to verdicts. *)

val assemble :
  ?cache_stats:Dml_cache.Cache.snapshot ->
  stats:Solver.stats ->
  solve_time:float ->
  frontend ->
  checked_obligation list ->
  report
(** Rebuild a {!report} from a front end and its solved obligations, in
    generation order. *)

type cache_mark
(** The session's verdict-cache counters at the start of a check (empty
    when the session has no cache). *)

val cache_mark : Session.t -> cache_mark

val cache_delta : cache_mark -> Dml_cache.Cache.snapshot option
(** The cache counters since [mark]: a report's [rp_cache_stats]. *)

val solve_frontend : Session.t -> since:cache_mark -> frontend -> report
(** The solving half of {!check_s}: decide every obligation under the
    session's solve config and cache, then {!assemble} the report with the
    cache delta since [since].  Installs no trace sink: call it inside
    {!with_session_sink}.  [since] is the caller's, so an engine that
    solves in rounds ({!Dml_infer.Engine}) reports the delta over all of
    them. *)

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

val stage_name : [ `Lex | `Parse | `Mltype | `Elab | `Internal ] -> string
val pp_failure : Format.formatter -> failure -> unit
val failure_to_string : failure -> string
val pp_report : Format.formatter -> report -> unit
