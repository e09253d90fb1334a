(** The unified checking-session API.

    Every front end — [dmlc] one-shot runs, the [dmli] REPL, the parallel
    batch runner ({!Dml_par.Runner}) and the [dmld] check server — used to
    thread its own drifting combination of [?method_]/[?config]/[?cache]
    optional arguments and per-subcommand flag copies through the pipeline.
    A {!t} replaces all of them: one value holding the solver configuration,
    the verdict cache, the trace sink, the parallelism shape and the
    strict/degrade decision, created once and passed to
    {!Dml_core.Pipeline.check_s} (and friends) for every check it governs.

    {!options} is the plain-data half (marshallable, JSON-serializable,
    fingerprintable): what crosses a process boundary to worker pools, what
    a [dmld] client may override per request, and what keys program-level
    memoization.  {!t} is the stateful half: the options plus the
    long-lived warm resources built from them (the shared verdict cache, an
    optional trace sink). *)

open Dml_solver

(** {1 Solver configuration}

    The per-obligation solving policy. *)

type solve_config = {
  sc_method : Solver.method_;  (** the decision procedure run per goal *)
  sc_fuel : int option;  (** abstract work units per obligation *)
  sc_timeout_ms : int option;  (** wall-clock deadline per obligation *)
  sc_max_eliminations : int option;
      (** Fourier variable-elimination bound per obligation *)
}

val default_solve_config : solve_config
(** [Fm_tightened], unlimited budget — the seed behaviour. *)

val budget_of_solve_config : solve_config -> Budget.t option
(** A fresh budget for one obligation; [None] when the config sets no
    limit. *)

(** {1 Options} *)

type options = {
  op_solve : solve_config;
  op_cache : Dml_cache.Cache.config option;
      (** verdict-cache configuration; [None] disables caching.  Kept as a
          {e config} (not a built cache) so options stay plain data — each
          consumer builds or shares the actual cache object ({!create}). *)
  op_jobs : int option;
      (** [None]: check in-process; [Some 0]: one forked worker per core;
          [Some n]: [n] forked workers (batch fronts only) *)
  op_infer : bool;
      (** run the liquid-qualifier annotation-inference pass
          ({!Dml_infer.Engine}) before checking, so unannotated programs
          still get proven-safe accesses.  Folded into {!fingerprint} (and
          hence dmld's {!Dml_server.Server.memo_key} and the verdict-cache
          keying) only when set, so inferring and non-inferring checks
          never share memo entries while every pre-existing fingerprint
          stays stable. *)
  op_incremental : bool;
      (** declaration-grain incremental rechecking ([dmld serve
          --incremental]): the server keeps a per-declaration verdict store
          ({!Incr.state}) and answers [check_patch] requests by re-solving
          only the dirty cone of an edit.  Folded into {!fingerprint} only
          when set — the same conditional-emission rule as [op_infer] — so
          every pre-existing fingerprint, memo key and golden transcript
          stays byte-stable with the flag unset. *)
}

val default_options : options
(** Strict, no cache, in-process, {!default_solve_config}. *)

val options_to_json : options -> Dml_obs.Json.t
(** Canonical JSON image of the options (the [dmld status] ["options"]
    field and the fingerprint input). *)

val fingerprint : options -> string
(** Digest of {!options_to_json}: equal exactly when two option records
    would check programs identically. *)

(** {1 Sessions} *)

type t

val create : ?sink:Dml_obs.Trace.sink -> ?cache:Dml_cache.Cache.t -> ?options:options -> unit -> t
(** Build a session.  The verdict cache is constructed from
    [options.op_cache] unless an already-built [?cache] is supplied (the
    compatibility path for callers holding a cache object).  [?sink], when
    given, is installed for the duration of every check run through this
    session ({!Dml_core.Pipeline.check_s}). *)

val options : t -> options
val solve : t -> solve_config

val cache : t -> Dml_cache.Cache.t option
(** The session's verdict cache — shared across every check of the
    session, which is what amortizes the basis and repeated goals. *)

val sink : t -> Dml_obs.Trace.sink option

val with_options : t -> options -> t
(** A derived session: new options, same warm state (cache object, sink).
    This is the [dmld] per-request override path — a client may change the
    solving policy, and the derived session still shares the server's
    verdict cache (sound: cached verdicts are keyed by method and budget
    tier, see {!Dml_cache.Cache}). *)
