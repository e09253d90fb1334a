(** Closure-compiling evaluator — the one evaluator core.

    A program is lowered by {!Lower} (which states the resolution rules)
    and its IR compiled once into OCaml closures; running the program
    performs no tree traversal or name lookup.  Each activation gets one
    frame of the slots [Lower] laid out.  Saturated primitive calls compile
    to direct n-ary calls, and a known call, tupled or curried, writes its
    operands straight into the callee's frame: neither allocates the
    argument tuple (a real compiler's calling convention), which is what
    makes the cost of a bounds check visible in the run time.  Int- and
    bool-valued subtrees compile to unboxed [frame -> int] and
    [frame -> bool] closures, by each primitive's typed realisation
    ({!Prims.fast}); slot and literal operands are read in place.

    The same compiler serves two platforms of the Tables 2/3 experiment:
    - {!initial_fast}: wall-clock closures ("platform B", standing in for
      the paper's MLWorks-on-SPARC measurements in Table 3);
    - {!initial_costed}: the cost model ("platform A", Table 2).

    {2 The cost model}

    Wall-clock timing of an evaluator compresses the bounds-check share of
    the run time (the machinery around each access costs an order of
    magnitude more than the access itself, unlike the paper's native
    compilers where a check is a sizeable fraction of a loop iteration).
    The cost model therefore *accounts* rather than times: every node's
    closure adds its documented virtual-cycle cost, at late-90s RISC
    granularity, to [counters.cycles] on entry, and the bounds checks add
    {!Prims.check_cost}.  Table 2 reports virtual megacycles, in which the
    structural effect of check elimination appears at the paper's scale.

    Virtual cycles per node:
    - variable access, literal, nullary constructor: 1
    - function call: 2; closure construction ([fn]): 3
    - [if], [case], [handle], [andalso], [orelse]: 1
    - tuple: 2 + size; applied constructor: 3
    - [raise]: 2; [let] and type annotations: 0
    - call to a known [fun]: the nodes it stands for (call 2, variable 1,
      and tuple 2 + size when the operands form one; a curried call of k
      operands: k calls and the variable, 2k + 1), charged on entry
    - direct primitive call: nothing beyond the primitive's own work,
      its [flat_cost] ({!Prims.prim}: array access 2, arithmetic 1), charged
      for first-class primitive values too
    - bounds/tag check: 2 ({!Prims.check_cost})
    - list-cell traversal in [nth]: 2 per step *)

open Dml_lang
open Dml_mltype

type compiled_env

val initial_fast :
  Prims.mode -> ?counters:Prims.counters -> ?degraded:(Loc.t -> bool) -> unit -> compiled_env
(** Environment from {!Prims.fast_table} with direct primitive calls.

    [?degraded] enables graceful degradation: the sites it names, and every
    first-class use of a primitive, keep their dynamic checks ({!Lower}).
    Pass [Dml_core.Pipeline.degraded_pred report] to keep checks at exactly
    the unproven obligation sites. *)

val initial_costed : ?degraded:(Loc.t -> bool) -> Prims.mode -> Prims.counters -> compiled_env
(** Like {!initial_fast} with [counters], and every program compiled in
    this environment charges the cost model above into [counters.cycles].
    Under [?degraded] the residual checks at degraded sites are executed
    and counted ([counters.dynamic_checks], plus {!Prims.check_cost}
    cycles each). *)

exception Match_failure_dml of string

val run_program : compiled_env -> Tast.tprogram -> compiled_env
val lookup : compiled_env -> string -> Value.t
(** @raise Value.Runtime_error when unbound. *)

