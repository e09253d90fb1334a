(** End-to-end decision procedure for elaboration goals.

    A goal [vars; hyps |- concl] is valid iff [hyps /\ ~concl] is
    unsatisfiable.  The formula is purified ({!Purify}), normalised to DNF
    ({!Dnf}) and every disjunct is refuted with the selected method.

    The solver is a *budgeted, fault-isolated oracle*: every call accepts an
    optional {!Budget.t} charged by the DNF expansion, the Fourier
    combination loop, and simplex pivoting; exhaustion surfaces as a
    {!constructor:Timeout} verdict instead of a hang, and runtime resource
    exhaustion ([Stack_overflow], [Out_of_memory]) or an unexpected solver
    exception surfaces as {!constructor:Unsupported} instead of killing the
    caller.  Both are conservative answers: the program site keeps its
    dynamic check. *)

open Dml_numeric
open Dml_index
open Dml_constr

type method_ =
  | Fm_tightened  (** Fourier--Motzkin with integral tightening (the paper's solver) *)
  | Fm_plain  (** Fourier--Motzkin without tightening (ablation) *)
  | Simplex_rational  (** rational simplex baseline (ablation) *)

type lane =
  | Lane_bignum  (** arbitrary-precision arithmetic only (the original path) *)
  | Lane_native
      (** machine-int fast path with checked arithmetic; overflow re-solves
          the disjunct on the bignum lane (the default) *)

type verdict = Dml_cache.Cache.verdict =
  | Valid
  | Not_valid of string
      (** refutation failed; the payload is a human-readable hint, including a
          verified counterexample assignment when one was reconstructed *)
  | Unsupported of string
      (** non-linear constraint, DNF blow-up, or an isolated solver fault
          (stack overflow, out of memory, unexpected exception) *)
  | Timeout of string
      (** the budget ran out (fuel, wall-clock deadline, or elimination
          limit) before the goal was decided *)

type stats = {
  mutable checked_goals : int;
  mutable disjuncts : int;
  mutable fm : Fourier.stats;
  mutable solve_time : float;  (** wall-clock seconds spent refuting (monotonic) *)
  mutable timeouts : int;  (** goals abandoned on budget exhaustion *)
  mutable cache_hits : int;  (** goals answered by the verdict cache *)
  mutable cache_misses : int;  (** cache lookups that fell through to a solve *)
  mutable native_solves : int;
      (** disjunct refutations completed on the machine-int lane *)
  mutable overflow_escalations : int;
      (** native-lane runs that overflowed and re-solved on the bignum lane *)
}

val new_stats : unit -> stats

val merge_stats : into:stats -> stats -> unit
(** Add a second stats record into [into]: counts and times add, Fourier
    high-water marks take the maximum.  Used by the incremental checker
    ({!Dml_core.Incr}) to fold per-declaration records into one
    per-program view. *)

val method_slug : method_ -> string
(** Machine-readable method tag (["fm"], ["fm-plain"], ["simplex"]), the
    same strings the verdict cache keys and the CLI's [--solver] accept. *)

val check_goal :
  ?method_:method_ ->
  ?lane:lane ->
  ?stats:stats ->
  ?budget:Budget.t ->
  ?cache:Dml_cache.Cache.t ->
  Constr.goal ->
  verdict
(** Decide one goal with a single method.  Never raises: budget exhaustion
    and solver faults are converted to verdicts (see the module preamble).

    [?lane] (default [Lane_native]) picks the arithmetic: the machine-int
    fast path first, escalating to bignum on checked overflow.  Both lanes
    are one algorithm body instantiated at two number types, so the
    verdict — and the cache entry it produces — is lane-invariant; lanes
    therefore share cache keys.

    With [?cache] the goal is canonicalized and looked up under
    [(digest, method, budget tier)] first; a reusable verdict (see
    {!Dml_cache.Cache}) is returned without running the decision procedure
    — it still counts into [checked_goals] and [cache_hits] — and a miss
    records the computed verdict for later calls. *)

val check_constraint :
  ?method_:method_ ->
  ?lane:lane ->
  ?stats:stats ->
  ?budget:Budget.t ->
  ?cache:Dml_cache.Cache.t ->
  Constr.t ->
  verdict
(** Eliminates existentials, extracts goals, and checks them all; the first
    failing goal decides the verdict.  The goals share [?budget]. *)

val negation_formula : Constr.goal -> Idx.bexp
(** [hyps /\ ~concl], exposed for tests and the [constraints] CLI command. *)

val disjunct_systems :
  ?budget:Budget.t -> Idx.bexp -> (Bigint.t Linear.cstr list list, string) result
(** Purify + DNF + literal translation, exposed for tests.  Each inner list
    is one disjunct's linear system (boolean-contradictory disjuncts are
    dropped).
    @raise Budget.Exhausted when the DNF expansion outruns the budget. *)

val pp_verdict : Format.formatter -> verdict -> unit

val verdict_slug : verdict -> string
(** Machine-readable verdict tag (["valid"], ["not-valid"], ["unsupported"],
    ["timeout"]) used by trace spans and the JSON reports. *)
