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

(** Uncurried primitive implementations, typed by the calling convention a
    real compiler would use.  The closure-compiling backend calls these
    directly when a primitive is applied to a literal tuple, passing the
    operands without allocating the tuple, and passing ints and bools
    unboxed where the row says so:
    - [F1]..[F3]: boxed operands and result;
    - [I1], [I2]: int operands, int result ([~], [+], [div], ...);
    - [C2]: int operands, bool result (the six comparisons);
    - [B1]: [not];
    - [N1]: a boxed operand, an int result ([length], [size], [ord]);
    - [X2], [X3]: an aggregate, an int index and for [X3] the stored value
      ([sub], [update], [nth], [string_sub]). *)
type fast =
  | F1 of (Value.t -> Value.t)
  | F2 of (Value.t -> Value.t -> Value.t)
  | F3 of (Value.t -> Value.t -> Value.t -> Value.t)
  | I1 of (int -> int)
  | I2 of (int -> int -> int)
  | C2 of (int -> int -> bool)
  | B1 of (bool -> bool)
  | N1 of (Value.t -> int)
  | X2 of (Value.t -> int -> Value.t)
  | X3 of (Value.t -> int -> Value.t -> Value.t)

(** How the native backend realises a primitive, over operand texts
    [$0]..[$2]. *)
type native =
  | Expr of string  (** one OCaml expression, whatever the flavour *)
  | Helper of string * string option
      (** [(stem, inline)]: a primitive with a checked and an unchecked
          flavour.  Checked calls the prelude helper [p_<stem>_c]; unchecked
          emits [inline] when given and the build is not instrumented, else
          the counting helper [p_<stem>_u]. *)

(** A primitive's facts, the same under both disciplines. *)
type prim = {
  name : string;
  arity : int;  (** operands of a saturated call: 1, or the argument tuple's size *)
  flat_cost : int;  (** virtual cycles of its own work in the cost model *)
  native : native;
}

val find : string -> prim option
(** The descriptor of a primitive name, from the one table of primitives. *)

val fast_table : mode -> ?counters:counters -> unit -> prim -> fast
(** The implementations of one discipline.  When [counters] is given every
    access is wrapped to bump the corresponding counter (used for the
    "checks eliminated" columns of Tables 2 and 3); timing runs omit it and
    run the implementations bare. *)

val value_of_fast : fast -> Value.t
(** A primitive as a first-class value, curried on its argument tuple. *)

val with_cost : counters -> int -> fast -> fast
(** Wrap a primitive so each invocation adds the given virtual-cycle cost. *)

val check_cost : int
(** Virtual cycles per executed bounds/tag check (the documented cost
    model's central constant). *)
