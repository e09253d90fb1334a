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
    [test_cache.ml]). *)

open Dml_constr

type verdict = Store.verdict =
  | Valid
  | Not_valid of string
  | Unsupported of string
  | Timeout of string

type config = { dir : string option  (** persistent on-disk store ([--cache-dir]) *) }

val default_config : config
(** No persistent layer.  The memo table holds {!Store.memo_capacity}
    entries; a persistent directory is capped at {!Store.disk_byte_cap} /
    {!Store.disk_entry_cap}. *)

type snapshot = {
  s_hits : int;  (** lookups answered from the cache *)
  s_disk_hits : int;  (** of those, answered by the persistent layer *)
  s_misses : int;  (** lookups that fell through to the solver *)
  s_stores : int;  (** verdicts recorded *)
  s_evictions : int;  (** LRU evictions *)
  s_corrupt : int;  (** corrupt disk entries treated as misses *)
  s_quarantined : int;  (** corrupt entries renamed aside ([*.bad]) *)
  s_disk_evictions : int;  (** files deleted by the capacity sweep *)
  s_entries : int;  (** memo-table entries right now *)
  s_lookup_time : float;  (** seconds spent in cache lookups (incl. disk reads) *)
  s_persist_time : float;  (** seconds spent reading/writing the disk layer *)
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
