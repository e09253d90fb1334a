(** The batch front-end: every [dml-batch] row, in process or from {!Pool}
    workers, is checked here.

    In process ([Sequential]), targets are checked in order against one
    session — the caller's when it passes one, so a [dmlc batch --repeat]
    or a warm [dmld] session amortizes across calls.  Under [Workers n],
    each task is one whole program: a worker runs the session's checker
    ({!Dml_infer.Engine.check}) on it against its own verdict cache (built
    lazily in the worker from the shared cache {e config}, so a
    [--cache-dir]'s verdict log is shared through its appends while the
    in-memory LRU stays per-worker).

    Worker loss maps onto a row error: a crashed or expired program task
    becomes that row's ["worker crashed"] / ["worker timed out"], never a
    lost batch.

    Determinism: {!check_targets_s} returns rows in input order whatever the
    scheduling, and {!rows_json}/{!batch_json} serialize only
    schedule-independent fields (verdict counts, not wall-clock times or
    cache hit rates), so the [dml-batch/1] document is byte-identical across
    in-process / [-j 1] / [-j N].  The volatile figures stay in {!summary};
    [~profile:true] adds them to the document, forfeiting that
    byte-stability. *)

type target = {
  tg_name : string;
  tg_source : (string, string) result;
      (** program text, or the error that prevented reading it *)
}

type obligation_row = {
  or_what : string;
  or_loc : string;
  or_verdict : string;  (** {!Dml_solver.Solver.verdict_slug} — no detail payload,
                            which keeps rows comparable across processes *)
}

type summary = {
  sm_valid : bool;
  sm_constraints : int;
  sm_residual : int;
  sm_timeouts : int;
  sm_goals : int;  (** solver goals decided, cache hits included *)
  sm_cache_hits : int;
  sm_cache_misses : int;
  sm_gen_s : float;
  sm_solve_s : float;  (** aggregate solver seconds *)
  sm_lookup_s : float;  (** seconds spent in verdict-cache lookups *)
  sm_obligations : obligation_row list;  (** in generation order *)
  sm_inferred : bool;
      (** the report came from the {!Dml_infer.Engine} fixpoint over an
          unannotated program, not from annotation-directed checking *)
}

type row = { row_name : string; row_result : (summary, string) result }

val worker_options : Dml_core.Session.options -> Dml_core.Session.options
(** The options an execution site checks under: the given ones with the
    parallelism shape ([op_jobs]) stripped, since a worker must not fork a
    nested pool. *)

type mode =
  | Sequential  (** in-process, no forking: the default, and the reference
                    the oracle tests compare against *)
  | Workers of int  (** a {!Pool} of this many forked workers *)

val mode_of : Dml_core.Session.options -> mode
(** Where {!check_targets_s} runs a batch under these options. *)

val jobs_label : Dml_core.Session.options -> string
(** How {!check_targets_s} runs a batch under these options, as the end of
    [dmlc batch]'s pass line: [""] in process, ["; jobs=N"] on a pool of
    [N] workers. *)

val check_targets_s :
  ?task_timeout_ms:int ->
  ?session:Dml_core.Session.t ->
  Dml_core.Session.options ->
  target list ->
  row list
(** One row per target, in target order, under unified session options:
    [op_jobs = None] checks in-process (sequentially), [Some 0] forks one
    worker per core, [Some n] forks [n].  In process, the targets are
    checked against [session] when given (its verdict cache stays warm
    across calls), else against a fresh session built from the options; a
    pooled run ignores [session].  Workers build their verdict cache from
    [op_cache] (the in-memory LRU stays per worker, a [dir] is shared
    through the filesystem).  [task_timeout_ms] is the pool watchdog for
    one whole-program task.

    Under [op_infer] each program is checked by the {!Dml_infer.Engine}
    fixpoint instead of the plain pipeline; a pooled inference batch runs
    one program's whole fixpoint per task. *)

type aggregate = {
  ag_programs : int;
  ag_failed : int;
  ag_constraints : int;
  ag_goals : int;
  ag_residual : int;
  ag_solver_calls : int;  (** goals that were not cache hits *)
  ag_cache_hits : int;
  ag_cache_misses : int;
  ag_solve_s : float;
  ag_lookup_s : float;
}

val aggregate : row list -> aggregate
(** Sums over one pass; failed rows count only in [ag_programs] and
    [ag_failed]. *)

val hit_rate_pct : aggregate -> float
(** Cache hits as a percentage of goals (0 for a pass without goals). *)

val rows_json : ?profile:bool -> row list -> Dml_obs.Json.t list
(** Per-program rows: [{"program", "valid", "constraints", "goals",
    "residual"}] or [{"program", "error"}]; rows checked under [--infer]
    additionally carry [{"inferred": true}] (never emitted otherwise, so
    pre-inference documents stay byte-identical).  [profile] (default
    [false]) appends the volatile [{"cache_hits", "cache_misses",
    "solve_s", "gen_s"}]. *)

val batch_json :
  ?profile:bool ->
  ?extra:(string * Dml_obs.Json.t) list ->
  options:Dml_core.Session.options ->
  passes:row list list ->
  unit ->
  Dml_obs.Json.t
(** The batch document [{schema, passes: [{pass, programs, aggregate}]}],
    with aggregate [{"programs", "failed", "constraints", "goals",
    "residual"}], for passes checked under [options].  The schema is
    ["dml-batch/1"], or ["dml-batch/2"] (whose rows may carry
    ["inferred"]) when [options] set [op_infer].  [profile] (default
    [false]) adds the volatile row
    fields of {!rows_json} and the aggregate's [{"solver_calls",
    "cache_hits", "cache_misses", "hit_rate_pct", "solve_s", "lookup_s"}];
    without it the document is deterministic.  [extra] fields (the
    caller's cache snapshot, spans, metrics) are appended last. *)

val test_injection : string -> unit
(** Test-only fault injection, shared by every fork-worker execution site
    (the batch pool and the [dmld] dispatcher): if [DML_PAR_TEST_CRASH]
    names the given task, the calling process exits with code 66; if
    [DML_PAR_TEST_HANG] names it, the call never returns.  A no-op
    otherwise.  The environment survives the fork, which is what lets the
    oracle tests and the load harness provoke a crash or hang on one
    specific task without touching the checker. *)
