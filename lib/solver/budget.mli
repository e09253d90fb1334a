(** Resource governor for the decision procedures.

    The solver is treated as a fallible, budgeted oracle: every potentially
    exponential phase (DNF expansion, Fourier--Motzkin combination, simplex
    pivoting) charges abstract fuel units against a shared budget and checks
    a wall-clock deadline, so a pathological or adversarial constraint ends
    in a {!exception:Exhausted} — surfaced as a [Timeout] verdict by
    {!Solver} — instead of hanging the pipeline.

    A budget is mutable and is meant to be shared across the goals of one
    obligation: each goal runs under the fuel and time its predecessors
    left. *)

type t

exception Exhausted of string
(** Raised by {!spend}/{!eliminate} when the budget runs dry.  The payload
    names the exhausted resource (fuel, deadline, or elimination limit). *)

val unlimited : unit -> t
(** No fuel, deadline, or elimination bound: {!spend} never raises. *)

val create : ?fuel:int -> ?timeout_ms:int -> ?max_eliminations:int -> unit -> t
(** A budget with the given limits; omitted limits are unbounded.
    [fuel] is in abstract work units (one DNF disjunct produced, one
    Fourier upper/lower combination, half a simplex pivot).  [timeout_ms]
    is a wall-clock deadline measured from [create] with the monotonic
    clock {!now}.  [max_eliminations] bounds the number of variables the
    Fourier procedure may eliminate across all systems of the obligation. *)

val spend : t -> int -> unit
(** Charge [n] work units.
    @raise Exhausted when fuel or the deadline runs out.  The deadline is
    polled at most once per 1024 units spent, so a single [spend] is cheap
    enough for the innermost combination loops. *)

val eliminate : t -> unit
(** Charge one Fourier variable elimination.
    @raise Exhausted past [max_eliminations]. *)

val is_limited : t -> bool
(** [false] exactly for budgets built by {!unlimited} (or [create] with no
    limit given): callers can skip bookkeeping entirely. *)

val tier : t -> int
(** Size class of the budget, for the verdict cache's reuse rules: [max_int]
    for an unlimited budget, otherwise the minimum over the limited
    resources of the bit length of remaining fuel units, *configured*
    deadline milliseconds, and remaining eliminations.  The deadline
    component is deliberately the configured timeout rather than the time
    left: it is stable across a whole run under one [--timeout-ms], so a
    cached [Timeout] verdict stays reusable instead of drifting out of tier
    as the clock advances.  Monotone: a budget with more of every resource
    never lands in a smaller tier, so "reusable at an equal-or-smaller tier"
    is a sound reuse test for [Timeout] and [Unsupported] verdicts. *)

val now : unit -> float
(** Monotonic wall-clock seconds — an alias of {!Dml_obs.Clock.now}, the
    single clock shared by budget deadlines, pipeline gen/solve timing,
    trace span durations and the table harness (which [Sys.time]'s CPU
    seconds would misrepresent under load or when mostly waiting). *)
