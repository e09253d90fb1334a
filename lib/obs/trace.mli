(** Structured tracing: nested spans with attributes, behind a nullable sink.

    A span covers one pipeline stage or one solver goal; spans started while
    another is open become its children, so a trace of a check is a tree
    [check → parse/infer/elaborate → obligation → solve].  Durations come
    from {!Clock.now} (the same monotonic clock as the solver's budgets), so
    span times, budget deadlines and the pipeline's aggregate timings are
    directly comparable.

    When no sink is installed (the default), {!start} returns a shared
    inert span and every other operation is a single pointer test: the
    disabled path allocates nothing, which is what keeps tracing free for
    the production/benchmark configuration.  Tracing is enabled by [dmlc
    --trace FILE] and [--json], which install a sink for the duration of the
    command.

    The serialized form (schema [dml-trace/1]) is
    [{ "schema": "dml-trace/1", "spans": [SPAN...] }] where SPAN is
    [{ "name", "start_s", "dur_s", "attrs": {..}, "children": [SPAN...] }]. *)

type span

type sink

val create_sink : unit -> sink

val set_sink : sink option -> unit
(** Install or remove the process-wide sink.  Spans started under a sink
    that has since been removed are dropped on [finish]. *)

val current_sink : unit -> sink option
(** The installed sink, if any: lets a scoped installer (e.g. a
    {!Dml_core.Session} check) save and restore whatever was active. *)

val enabled : unit -> bool

val real : span -> bool
(** [false] exactly on the inert span {!start} returns when tracing is
    disabled: guard for attribute computations that are themselves
    costly. *)

val start : string -> span
(** Open a span.  With no sink installed this is one branch and returns
    the inert span without allocating. *)

val set_str : span -> string -> string -> unit
(** Attach an attribute (last write to a key wins at serialization). *)

val set_int : span -> string -> int -> unit
val set_bool : span -> string -> bool -> unit

val finish : span -> unit
(** Close the span and attach it to its parent (or the sink's roots).  Any
    child spans left open — e.g. abandoned by an exception — are closed at
    the same instant, so the recorded nesting is always well-formed. *)

val with_span : string -> (span -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span, finishing it on any exit. *)

val roots : sink -> span list
(** Completed top-level spans, in start order. *)

val adopt : span -> unit
(** Attach an already-completed span subtree at the current nesting position
    (as a child of the innermost open span, or as a root).  Spans are plain
    data, so a completed tree survives [Marshal]: the worker pool collects
    the spans recorded inside a worker process and the parent adopts them,
    keeping [--trace]/[--json] complete under [-j N].  No-op without a sink
    or on the inert span. *)

val span_name : span -> string

val span_children : span -> span list
(** Completed children, in start order. *)

val span_attr : span -> string -> Json.t option
val span_dur : span -> float

val span_to_json : span -> Json.t
(** One completed span subtree in the [dml-trace/1] SPAN shape. *)

val to_json : sink -> Json.t
(** The whole sink as schema [dml-trace/1]. *)
