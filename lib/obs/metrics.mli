(** Process-wide metrics registry: named monotonic counters and histograms.

    Subsystems ({!Dml_solver.Solver}, {!Dml_cache.Cache}, the pipeline, the
    evaluation backends) register their instruments once at module
    initialization and bump them from the hot paths; an instrument is a bare
    mutable record, so an increment costs the same as the hand-rolled stat
    fields it replaces.  The registry is cumulative over the process; the
    per-run records ([Solver.stats], cache snapshots) remain as views scoped
    to one check.

    [dmlc --profile] prints {!pp}; [--json] embeds {!to_json}
    (schema [dml-metrics/1]). *)

type counter

val counter : string -> counter
(** Get or create the counter registered under this name.  Names are
    dot-separated, [subsystem.metric] (e.g. ["solver.goals"]). *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1); negative increments are a programming error and
    are ignored — registry counters are monotonic. *)

val value : counter -> int

type histogram

val histogram : ?bounds:float array -> string -> histogram
(** Get or create the histogram registered under this name.  [bounds] are
    increasing bucket upper bounds (a final overflow bucket is implicit);
    the default suits millisecond latencies, from 10µs to 10s.  [bounds] is
    only consulted on first creation. *)

val observe : histogram -> float -> unit

val h_count : histogram -> int
val h_sum : histogram -> float

val reset : unit -> unit
(** Zero every registered instrument (registrations survive).  For tests
    and for the [--repeat] front-ends that report per-pass deltas. *)

type export
(** A serializable image of the registry: plain data, safe to [Marshal]
    across a process boundary.  The worker pool ({!Dml_par.Pool}) ships one
    per task so the parent's registry accounts for all solver work done in
    worker processes. *)

val export : unit -> export
(** Snapshot every instrument with a non-zero value. *)

val absorb : export -> unit
(** Add an exported snapshot into this process's registry, creating any
    missing instruments (histograms keep the exporter's bucket bounds).
    Counters add; histogram counts, sums and buckets add; min/max widen.
    Total: a name registered under a different instrument kind is skipped
    rather than raised on. *)

val to_json : unit -> Json.t
(** [{ "schema": "dml-metrics/1", "counters": {name: value, ...},
      "histograms": {name: {count, sum, min, max, buckets}, ...} }],
    names sorted. *)

val pp : Format.formatter -> unit -> unit
(** Human-readable dump of every instrument, one per line. *)
