(** The [dmld] check server: one long-lived {!Dml_core.Session.t} behind the
    [dml-server/1] protocol ({!Protocol}).

    Warm state that makes the server worth running:
    - under [--cache-dir], the session's shared verdict cache, so repeated
      goals are solved once across every check of the server's lifetime
      (and of earlier servers on the same directory);
    - program-level memoization keyed by {!memo_key} (source digest ×
      options fingerprint × program-name digest): a repeated [check] of an
      unchanged program under unchanged options is answered from the memo —
      zero solver calls — with the stored result document verbatim and
      ["memo": true] in the envelope.  The memo always lives in the {e
      parent} process, including under a worker pool, and holds at most
      {!memo_capacity} documents, evicting the least recently used;
    - on a [--incremental] server, a per-declaration verdict store
      ({!Dml_core.Incr}) behind the [check_patch] op: an edited source is
      re-solved only over the units whose content-plus-dependency digest
      changed, and the memo is shared with plain [check], so patching back
      to an already-checked source restores its stored document verbatim.
      [check_patch] always runs in the parent process (the parent owns the
      store), even under a worker pool.

    Concurrency model.  Without a worker pool (no [op_jobs] in the
    options), the socket loop is a single-process non-blocking
    [Unix.select] multiplexer: frames are assembled incrementally
    per-connection and responses are buffered per-connection (a half-sent
    frame to a slow reader never stalls other clients), but check work runs
    inline and serially.  With [op_jobs] set, check/batch work is handed to
    a {!Dispatch} pool of warm forked workers: requests from many clients
    proceed concurrently, each under a per-request deadline, with a bounded
    admission queue ([overloaded] past the bound) and crash/hang recovery
    (one retry on a fresh worker, then a structured [worker-lost]/[timeout]
    error — never a dropped connection).  In pool mode responses to one
    connection may interleave across its pipelined requests (a memo hit or
    [status] overtakes an in-flight check); clients correlate by the
    envelope [id].  Identical concurrent checks (same memo key) coalesce
    onto one worker run. *)

open Dml_obs

type t

val memo_capacity : int
(** 128 — the most result documents the memo keeps, and the most checked
    sources the [check_patch] base registry keeps (least recently used
    evicted first; an evicted id answers ["unknown-base"]). *)

val memo_key : Dml_core.Session.options -> program:string -> string -> string
(** [memo_key opts ~program source] — the program-level memoization key:
    source digest × {!Dml_core.Session.fingerprint} × program-name digest,
    joined by [":"].  Two checks with the same key are guaranteed the same
    document, which is what lets the server answer a repeated [check] of
    an unchanged program with zero solver calls; options that check
    differently (inference on or off, another solver or budget) never share
    a key. *)

val default_request_timeout_ms : int
(** 30_000 — the default per-request deadline under a worker pool. *)

val create :
  ?options:Dml_core.Session.options ->
  ?request_timeout_ms:int ->
  ?max_queue:int ->
  unit ->
  t
(** A server over a fresh session built from [options] (default
    {!Dml_core.Session.default_options}).  When [options.op_jobs] is set, a
    {!Dispatch} worker pool is forked at creation ([Some 0]: one worker per
    core) and check/batch requests run on it; [request_timeout_ms] (default
    {!default_request_timeout_ms}; [<= 0] disables) bounds each attempt,
    and [max_queue] (default 256) bounds admitted-but-unassigned requests.
    Both are inert without a pool. *)

val session : t -> Dml_core.Session.t

val stopping : t -> bool
(** Set by a [shutdown] request; the serve loops exit after responding. *)

val handle : t -> Json.t -> Json.t
(** Decode one request document and produce its response envelope —
    transport-independent (the stdio loop and in-process tests call this).
    Never raises: malformed requests become [bad-request] responses.  Under
    a worker pool a check/batch request is dispatched and driven to
    completion synchronously, so deadlines and crash recovery apply here
    too. *)

val serve_stdio : ?input:Unix.file_descr -> ?output:Unix.file_descr -> t -> unit
(** One connection on stdin/stdout ([dmld --stdio]): read a frame, handle,
    write a frame, until EOF or [shutdown].  A bad-JSON payload gets an
    error response and the loop continues; a framing error gets an error
    response and the loop exits (the stream cannot be resynchronized). *)

val serve_unix : t -> path:string -> unit
(** Listen on a Unix-domain socket at [path] (an existing socket file is
    replaced), multiplex connections non-blockingly, and serve until a
    [shutdown] request.  After [shutdown] the loop drains: in-flight pool
    jobs resolve (bounded by their deadlines, 10 s grace cap) and buffered
    responses flush before the socket file is removed. *)

val client_request : socket:string -> Json.t -> (Json.t, string) result
(** One-shot client: connect to [socket], send one request frame, read one
    response frame.  Used by [dmld request]/[dmld check] and the tests. *)
