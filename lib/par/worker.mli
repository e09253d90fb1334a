(** The fork-worker core under every worker pool in the code base: the
    run-to-completion batch pool ({!Pool}) and the [dmld] dispatcher are
    two policies over it, and this is the only module that forks.

    A worker is a child process that reads task frames ({!Frame}) from a
    pipe, runs the worker function on each, and replies with the value (or
    the text of the exception it raised), the {!Dml_obs.Metrics} delta of
    exactly that task and its completed trace spans.  The parent absorbs
    the metrics and adopts the spans as replies arrive, so [--profile] and
    [--trace] account for work wherever it ran.

    The core is transport-free and policy-free.  It hands tasks to idle
    slots, reads replies from pipes the caller found readable, enforces a
    per-task deadline with [SIGKILL], and reports what happened to each
    task as an {!event}.  What to do next — the order of the queue,
    retries, when to give up, whether to replace a dead worker — belongs
    to the caller.  The core reaps only its own pids, never with a
    [wait(-1)], so pools can share a process. *)

type ('task, 'tag, 'r) t
(** Workers running ['task -> 'r]; ['tag] is the caller's handle on the
    task a slot is running. *)

type ('tag, 'r) event =
  | Reply of 'tag * ('r, string) result
      (** the task finished; [Error] carries the text of the exception the
          worker function raised *)
  | Died of 'tag * string
      (** the worker died mid-task; the payload describes its fate *)
  | Timed_out of 'tag * float
      (** the task outlived its deadline after this many seconds and the
          worker was killed *)

val create :
  ?timeout_ms:int ->
  respawn:(unit -> bool) ->
  jobs:int ->
  (unit -> 'task -> 'r) ->
  ('task, 'tag, 'r) t
(** Fork [max 1 jobs] workers.  The worker function is built by calling
    the given thunk in each child after the fork, so state it closes over
    (a lazily built session, say) is private to that worker and warm
    across its tasks.  [timeout_ms] is the per-task deadline ([None]: no
    deadline).  [respawn ()] is asked whenever a worker dies or is killed;
    [true] forks a replacement into its slot. *)

val size : ('task, 'tag, 'r) t -> int
(** Number of slots (the [jobs] the core was created with). *)

val busy : ('task, 'tag, 'r) t -> int
(** Workers running a task. *)

val assign :
  ('task, 'tag, 'r) t ->
  now:float ->
  take:(unit -> ('tag * 'task) option) ->
  requeue:('tag -> unit) ->
  int
(** Hand tasks from [take] to idle workers until either runs out; returns
    how many were sent.  A worker that turns out to have died while idle
    gives its task back through [requeue]: the task never reached a
    worker, so it is not an attempt. *)

val fds : ('task, 'tag, 'r) t -> Unix.file_descr list
(** Reply pipes of every live worker, idle ones included (an idle worker's
    EOF is how its death is noticed). *)

val next_deadline : ('task, 'tag, 'r) t -> float option
(** The earliest monotonic deadline among running tasks. *)

val collect :
  ('task, 'tag, 'r) t -> now:float -> ready:Unix.file_descr list -> ('tag, 'r) event list
(** Read replies from the [ready] pipes, then kill every worker whose task
    is past its deadline at [now].  Returns one event per finished or lost
    task, in slot order, replies and deaths before timeouts. *)

val shutdown : ('task, 'tag, 'r) t -> unit
(** Close every task pipe (idle workers exit on EOF), [SIGKILL] workers
    still mid-task, and reap everything, blocking. *)
