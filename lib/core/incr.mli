(** Declaration-grain incremental rechecking.

    A {!state} is a store of solved per-declaration units, content-addressed
    by a digest over the declaration's own (pretty-printed, hence location-
    and comment-insensitive) source plus the digests of every earlier
    declaration it references and of every earlier top-level [val] — so
    dirtiness propagates transitively through the dependency graph by
    digest composition alone.  {!check} lexes and parses only the
    declarations an edit reaches ({!Dml_lang.Reparse}, against the last
    successfully parsed text) and sends only the obligations of units
    missing from the store to the solver, reusing stored verdicts for the
    clean remainder.  It also keeps the
    phase-1 and phase-2 products (ML and dependent schemes, typed item,
    obligations, warnings) of each [fun] unit of the last successful check,
    and reuses them for a unit with the same digest at exactly the same
    source positions; a unit that moved, a non-[fun] unit and every unit
    from the first top-level [val] on run inference and elaboration again.

    Reports are equivalent to a cold {!Pipeline.check_s} of the same source
    up to the schedule-dependent fields; with no verdict cache the solver
    stats block is equal too, because each unit's solver-work delta is
    stored and merged back.  The edit-sequence differential fuzzer
    ([test/test_incr.ml]) asserts this byte-for-byte across random patch
    sequences.

    A state may be shared across option sets that check differently:
    store keys are prefixed with the session's options fingerprint, so a
    session never reuses a verdict solved under other options (it only
    re-solves), while the kept parse and front-end products do not depend
    on solving options.  The [dmld] server keeps one state, whatever
    options its [check_patch] requests carry. *)

type state

val create : unit -> state

val unit_capacity : int
(** The most solved units a state holds after a check, unless that check
    alone had more: the units of the last check are never evicted, so every
    clean unit of it is reused by the next.  Past the bound the least
    recently used units (older versions, other sources) are evicted. *)

val stored_units : state -> int
(** Solved units currently held (across every source checked through the
    state), at most the larger of {!unit_capacity} and the last check's
    unit count (its declarations plus the basis). *)

type stats = {
  st_units : int;  (** user declarations in the checked source *)
  st_dirty : int;  (** units (re-)solved this check *)
  st_reused : int;  (** units answered from the store *)
  st_solver_calls : int;  (** obligations actually sent to the solver *)
  st_front_reused : int;
      (** units whose phase 1 and phase 2 products were reused, skipping
          inference and elaboration *)
  st_reparsed : int;  (** units lexed and parsed; the rest came from the last parse *)
}

val check :
  state -> Session.t -> string -> (Pipeline.report * stats, Pipeline.failure) result
(** Incrementally check [src] under the session, updating the state: one
    {!Pipeline.run} check whose front end re-parses and re-elaborates what
    the edit reaches and whose solving reuses the store.  Never raises
    (same failure conversion as {!Pipeline.check_s}).  A
    failure leaves the verdict store and the front-end products unchanged;
    a text that parses is kept as the next check's re-parse base even when
    a later phase fails. *)

val unit_digests : Dml_lang.Ast.program -> string list
(** The per-declaration digests, in program order (exposed for tests and
    the [dmld] server's base-id bookkeeping). *)
