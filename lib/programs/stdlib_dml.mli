(** A verified standard library in the surface language, exercising parts of
    the system the paper's benchmarks do not: an existential index *pair*
    ([split]), recursion through existential openings ([msort]), div-based
    in-place bounds ([arev]), and length arithmetic across clauses. *)

val source : string
(** Both parts, checked as one program. *)
