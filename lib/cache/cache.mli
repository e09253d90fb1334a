(** The constraint-verdict cache: canonicalized solver goals mapped to
    previously computed verdicts.

    A cache is keyed by [(digest, method, budget-tier)] where the digest is
    {!Canon.digest} of the goal and the tier is a size class of the budget
    the verdict was computed under ([Dml_solver.Budget.tier]).  Soundness
    rules:

    - [Valid] and [Not_valid] are definitive for their method and are
      reused unconditionally — neither depends on how much budget was
      available (budget exhaustion yields [Timeout], never these);
    - [Timeout] and [Unsupported] are circumstantial: they are reused only
      when the querying budget tier is equal or smaller than the cached
      one.  When the budget grew, the cached negative is discarded and the
      goal is re-solved (and the larger-tier outcome recorded);
    - a definitive verdict is never overwritten by a circumstantial one,
      and among circumstantial verdicts the one observed under the larger
      budget wins.

    Reusing a verdict can therefore never turn an unproven obligation into
    a proven one or vice versa beyond what re-running the solver with the
    same resources would produce; with unlimited budgets cache-on and
    cache-off verdicts are identical (the oracle property tested in
    [test_cache.ml]).

    The cache is an {!Lru} memo of 4,096 entries, in front of an optional
    verdict log: one append-only file per directory, every record carrying
    its length and an MD5 checksum.  One scan on [create] indexes the log,
    and a lookup that misses the index first reads whatever other
    processes appended since.  A torn, truncated, bit-flipped or foreign
    record is counted as corrupt and reads as a miss; the records after it
    still hit.  A damaged or unwritable directory degrades to a cold or
    memory-only cache, never to an exception. *)

open Dml_constr

type verdict =
  | Valid
  | Not_valid of string
  | Unsupported of string
  | Timeout of string
(** A solver verdict; the solver's own type ({!Dml_solver.Solver.verdict}
    re-exports this one and documents the constructors). *)

type config = { dir : string option  (** the verdict log's directory ([--cache-dir]) *) }

val default_config : config
(** No verdict log: a memory-only cache. *)

val log_cap : int
(** The verdict log's byte cap, 8 MiB.  A log found over it on [create]
    starts over, and so does the log that an append takes past it. *)

type snapshot = {
  s_hits : int;  (** lookups answered from the cache *)
  s_disk_hits : int;  (** of those, answered by the persistent layer *)
  s_misses : int;  (** lookups that fell through to the solver *)
  s_stores : int;  (** verdicts recorded *)
  s_evictions : int;  (** LRU evictions *)
  s_corrupt : int;  (** damaged log records, read as misses *)
  s_entries : int;  (** memo-table entries right now *)
  s_lookup_time : float;  (** seconds spent in cache lookups (incl. log reads) *)
  s_persist_time : float;  (** seconds spent reading and appending the log *)
}

type t

val create : ?config:config -> unit -> t

val find : t -> digest:string -> method_:string -> tier:int -> verdict option
(** Apply the reuse rules above; [None] counts as a miss. *)

val add : t -> digest:string -> method_:string -> tier:int -> verdict -> unit

val snapshot : t -> snapshot
(** Cumulative counters since [create] (a copy; safe to retain). *)

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier]: per-interval counters ([s_entries] is taken from
    [later]). *)

val pp_snapshot : Format.formatter -> snapshot -> unit

val snapshot_to_json : snapshot -> Dml_obs.Json.t
(** The snapshot as the ["cache"] object of the [dml-check/1] schema
    (the single shared shape between [dmlc --json] and the [dmld]
    server). *)

val config_to_json : config -> Dml_obs.Json.t
(** [{"dir"}] — embedded in session-options documents ([dmld status],
    fingerprints). *)

val digest_goal : Constr.goal -> string
(** {!Canon.digest}, re-exported so clients need not depend on the
    canonicalizer directly. *)

val write_fault_injection : (Unix.file_descr -> unit) ref
(** Test-only seam, called with the open log descriptor before each
    append.  Raising [Unix_error] or [Sys_error] from it exercises the
    failure path, which closes the descriptor and keeps the verdict in
    memory.  Reset it to [ignore] after use. *)
