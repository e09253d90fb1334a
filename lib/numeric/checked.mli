(** Overflow-checked native [int] arithmetic: the machine-int instance of
    {!Number.S}.

    The machine-int solver lane runs Fourier--Motzkin and the rational
    simplex over native integers; coefficient growth there is exponential,
    so every arithmetic step must detect the moment a value leaves the
    [int] range.  Each operation returns the exact mathematical result or
    raises {!Overflow} — nothing wraps.  The caller (the solver's lane
    dispatcher) converts {!Overflow} into a re-solve on the bignum lane,
    so a raise is never an error, only an escalation signal.

    [min_int] is treated as out of range everywhere: its absolute value is
    not representable, and excluding it removes the negation corner cases
    at the cost of one value out of [2^63]. *)

exception Overflow

include Number.S with type t = int
(** [of_int min_int] raises {!Overflow} too. *)
