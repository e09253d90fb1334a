(** Run a list of tasks to completion on forked workers.

    The run-to-completion policy over the {!Worker} core: the core forks,
    frames, times out and reaps; this module owns the queue and the
    respawn budget.  Tasks are handed out one at a time, so a slow task
    never blocks the queue behind a fixed pre-partition.

    Isolation is per task: a worker that raises costs that task an
    [Error (Exception _)]; a worker that dies or outlives
    [task_timeout_ms] costs exactly the task it was running
    ([Crashed _] / [Timed_out _]) and is replaced for the remaining queue.
    Replacements are budgeted at [2 * workers]; once the budget is spent
    and no worker is left, every task still queued becomes [Crashed].  A
    lost task degrades its own result, never the batch.

    Results are returned in task order regardless of scheduling, which is
    what makes the batch front-end's [--json] output byte-stable across
    [-j N]. *)

type error =
  | Exception of string  (** the worker function raised; payload is the exception text *)
  | Crashed of string  (** the worker process died mid-task; payload describes its fate *)
  | Timed_out of float  (** the task outlived [task_timeout_ms]; payload is elapsed seconds *)

type 'r outcome = ('r, error) result

val error_to_string : error -> string

val cpu_count : unit -> int
(** Available cores as the runtime sees them (the [-j] default). *)

val run :
  ?jobs:int ->
  ?task_timeout_ms:int ->
  worker:('task -> 'result) ->
  'task list ->
  'result outcome list
(** [run ~jobs ~worker tasks] — one outcome per task, in task order.

    [jobs] defaults to {!cpu_count}; it is clamped to [1..length tasks].
    With [jobs = 1] the pool still forks (one worker): the execution model —
    and thus crash isolation and marshalling constraints — is identical at
    every [-j], which is what the sequential-vs-parallel oracle tests rely
    on.  [task_timeout_ms] is a per-task wall-clock watchdog enforced by the
    parent with [SIGKILL]; leave it unset for trusted task bodies that
    enforce their own budgets.

    Tasks and results must be marshallable plain data (no closures, no
    custom blocks).  The worker function runs in a forked child: mutations
    it makes to global state are invisible to the parent except through the
    metrics/trace channel {!Worker} describes. *)
