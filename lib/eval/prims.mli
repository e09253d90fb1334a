(** Primitive implementations for both backends.

    Array and list access comes in two flavours (Section 4): the checked
    versions test bounds and raise {!Subscript} as Standard ML's safe
    [sub]/[update] do; the unchecked versions access memory directly, which
    is only sound for call sites whose obligations elaboration discharged.
    Compiling a program "without array bound checks" means binding [sub],
    [update] and [nth] to their unchecked implementations. *)

type mode =
  | Checked  (** all accesses bounds-checked (the paper's baseline columns) *)
  | Unchecked  (** proved accesses unchecked (the paper's optimised columns) *)

type counters = {
  mutable dynamic_checks : int;  (** bound/tag checks actually executed *)
  mutable eliminated_checks : int;  (** accesses performed without a check *)
  mutable cycles : int;  (** virtual cycles (cost-model backend only) *)
}

val new_counters : unit -> counters

exception Subscript
(** Raised by a failing run-time bound/tag check (the same exception as
    {!Value.Subscript}, re-exported). *)

(** Uncurried primitive implementations.  The closure-compiling backend calls
    these directly when a primitive is applied to a literal tuple, passing
    arguments without allocating the tuple — the calling convention a real
    compiler would use. *)
type fast =
  | F1 of (Value.t -> Value.t)
  | F2 of (Value.t -> Value.t -> Value.t)
  | F3 of (Value.t -> Value.t -> Value.t -> Value.t)

val fast_table : mode -> ?counters:counters -> unit -> (string * fast) list
(** The primitives of one discipline.  When [counters] is given every
    access also bumps the corresponding counter (used for the "checks
    eliminated" columns of Tables 2 and 3; timing runs omit it). *)

val value_of_fast : fast -> Value.t
(** A primitive as a first-class value, curried on its argument tuple. *)

val flat_cost : string -> int
(** Virtual-cycle cost of a primitive's own work in the cost model. *)

val with_cost : counters -> int -> fast -> fast
(** Wrap a primitive so each invocation adds the given virtual-cycle cost. *)

val check_cost : int
(** Virtual cycles per executed bounds/tag check (the documented cost
    model's central constant). *)
