(** The qualifier vocabulary of the liquid-inference pass.

    A {e qualifier} is a surface boolean index expression over one liquid
    variable (the variable a synthesized template binds) plus the index
    variables and integer constants in scope — the dsolve qualifier
    templates ([0 <= x], [x < n], [x <= length v], [mod(x,4) = 0], …)
    instantiated over the program.  The inference engine starts every
    liquid variable at the conjunction of its whole vocabulary and weakens
    it by discharging flow implications through the solver
    ({!Dml_infer.Engine}). *)

open Dml_lang

type harvest = {
  h_consts : int list;
      (** distinct integer literals of the program (plus -1, 0, 1), small
          enough to be worth relating variables to *)
  h_divisors : int list;
      (** literal right-hand sides of the applications of
          {!Dml_core.Basis.divisor_prims}: the alignment divisors worth
          tracking divisibility against *)
}

val harvest : Ast.program -> harvest
(** Scan a surface program for the constants its qualifiers should mention.
    Literals with magnitude above 4096 are ignored (they are data, not
    bounds). *)

val atoms :
  ?keep:(string -> bool) ->
  harvest ->
  own:string ->
  candidates:string list ->
  Ast.sindex list
(** The candidate qualifiers for liquid variable [own]: all five order
    relations against every candidate index variable and harvested
    constant, divisibility by every harvested divisor, and the alignment
    form [own = w - mod(w,d)] for candidate variables [w].  [candidates]
    lists the index-variable names [own] may refer to (earlier binders of
    the same template, then enclosing scopes, innermost first); duplicates
    and structural duplicates are removed.  [?keep] filters atoms by their
    rendered form (the fuzzing hook: a random sub-vocabulary must stay
    sound). *)

val render : Ast.sindex -> string
(** The pretty-printed form of a qualifier (also the [?keep] key). *)
