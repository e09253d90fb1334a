(** The [dmld] dispatcher: warm forked workers behind the [dml-server/1]
    request path.

    The long-lived policy over the {!Dml_par.Worker} core, which forks,
    frames, enforces deadlines and reaps.  Workers stay warm across
    requests: each holds a lazily built {!Dml_core.Session.t}; under
    [--cache-dir] its verdict cache persists between tasks, and the shared
    directory's verdict log crosses processes through its appends.  Jobs arrive one
    at a time from the serve loop, and every failure becomes a structured
    outcome rather than a torn-down pool:

    - a {e crash} or a {e hang} (the deadline expired and the worker was
      killed) earns the job one retry on a fresh worker after a short
      backoff; a second failure resolves to {!Lost} or {!Timed_out};
    - a worker {e exception} (the checker raised — deterministic) resolves
      to {!Failed} immediately, no retry;
    - past the admission bound, {!submit} sheds the job with [`Overloaded]
      instead of queueing without bound;
    - a dead worker is always replaced.

    The dispatcher is transport-free: the serve loop selects on {!fds},
    wakes by {!next_wake}, and calls {!step} with the readable pipes. *)

open Dml_obs

type task =
  | T_check of { program : string; source : string }
  | T_batch of { programs : (string * string) list }

val check_doc : Dml_core.Session.t -> program:string -> string -> Json.t
(** The check document for one source, {!Dml_infer.Engine.check_json} of
    {!Dml_infer.Engine.check}: the builder pool workers and the server's
    inline path share with [dmlc check --json], so [-j] responses are
    byte-identical to inline ones. *)

val batch_doc : Dml_core.Session.t -> (string * string) list -> Json.t
(** The [dml-batch] document for a named-program list, from
    {!Dml_par.Runner.check_targets_s}: in process against the given
    (warm) session, or pooled when the session's options ask for
    parallelism. *)

type outcome =
  | Done of Json.t  (** the result document *)
  | Failed of string  (** worker exception: deterministic, not retried *)
  | Timed_out of float
      (** hung through the deadline twice; seconds since submission *)
  | Lost of string  (** worker crashed on the retry as well *)

type t

val create : ?timeout_ms:int -> ?max_queue:int -> jobs:int -> Dml_core.Session.options -> t
(** Fork [max 1 jobs] warm workers checking under [options] with the
    parallelism shape stripped (a worker never forks a nested pool).
    [timeout_ms] is the per-attempt deadline enforced by the parent's
    watchdog ([None]: no deadline); [max_queue] (default 256) bounds
    admitted-but-unassigned jobs. *)

val submit :
  t -> now:float -> options:Dml_core.Session.options -> task -> (int, [ `Overloaded ]) result
(** Admit a job (running it immediately if a worker is idle) and return its
    id, or shed it when every worker is busy and the queue is full. *)

val step : t -> now:float -> ready:Unix.file_descr list -> (int * outcome) list
(** One dispatcher turn: collect replies from the [ready] pipes, enforce
    deadlines, refill idle workers.  Returns finished jobs
    as [(job id, outcome)].  Call with [ready = []] to drive deadlines and
    retries alone. *)

val fds : t -> Unix.file_descr list
(** The workers' reply pipes — the serve loop's extra read set. *)

val next_wake : t -> float option
(** Earliest monotonic instant {!step} must run without pipe activity: a
    deadline to enforce or a backed-off retry to launch. *)

val shutdown : t -> unit
(** Stop every worker and reap it, blocking; queued jobs are dropped. *)

val workers : t -> int
val timeout_ms : t -> int option
val queued : t -> int

val to_json : t -> Json.t
(** The [status] document's ["pool"] object: shape, occupancy and the
    fault counters ([retries]/[shed]/[workers_respawned]/[timeouts]/
    [worker_lost]). *)
