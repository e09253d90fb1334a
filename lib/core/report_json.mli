(** The [dml-check/1] document builders, shared verbatim by [dmlc check
    --json] and the [dmld] check server — one producer, so the server's
    responses are byte-identical to one-shot CLI output (modulo the
    schedule-dependent fields listed in {!schedule_dependent_fields}).

    A check has two document shapes under the same schema: the full report
    ({!of_report}) and the failure form ({!of_failure}/{!of_io_failure}),
    emitted when the front end (or the input itself) fails — so a [--json]
    consumer always receives a well-formed [dml-check/1] document, never a
    bare stderr message. *)

open Dml_solver

val solver_stats_to_json : Solver.stats -> Dml_obs.Json.t
(** The ["solver"] object: goals, disjuncts, solve seconds, timeouts,
    cache hits/misses and the Fourier counters; the
    [overflow_escalations] and [fm.pair_refuted] keys appear only when
    non-zero. *)

val of_report :
  ?schema:string ->
  program:string ->
  ?extra:(string * Dml_obs.Json.t) list ->
  Pipeline.report ->
  Dml_obs.Json.t
(** The full [dml-check/1] document for a completed check.  [extra] fields
    ([spans], [metrics]) are appended at the end.  [schema] (default
    ["dml-check/1"]) is bumped to ["dml-check/2"] by callers checking under
    [--infer], whose documents additionally carry an ["inferred"] field —
    pre-inference consumers never see either change. *)

val stage_slug : [ `Lex | `Parse | `Mltype | `Elab | `Internal ] -> string
(** Machine-readable stage tag (["lex"], ["parse"], ["mltype"], ["elab"],
    ["internal"]) — the ["failure"."stage"] field;
    {!Pipeline.stage_name} remains the human-readable form
    (["failure"."stage_name"]). *)

val of_failure :
  ?schema:string ->
  program:string ->
  ?extra:(string * Dml_obs.Json.t) list ->
  Pipeline.failure ->
  Dml_obs.Json.t
(** The failure form: [{schema, program, valid: false,
    failure: {stage, stage_name, msg, loc}}].  Emitted for front-end
    failures (lex/parse/mltype/elab) and internal errors. *)

val of_io_failure :
  ?schema:string ->
  program:string ->
  ?extra:(string * Dml_obs.Json.t) list ->
  string ->
  Dml_obs.Json.t
(** The failure form for input that could not be read at all (missing
    file, unreadable path): stage ["io"]. *)

val schedule_dependent_fields : string list
(** The [dml-check/1] fields whose values depend on wall-clock timing or on
    the order in which a shared warm cache served other checks — durations,
    cache hit counts, span timings.  Scrubbing these (with
    {!Dml_obs.Json.scrub}) from two documents makes byte-comparison
    meaningful across schedules; everything else, verdicts included, is
    deterministic. *)
