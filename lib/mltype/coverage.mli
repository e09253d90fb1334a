(** Pattern-match exhaustiveness and redundancy analysis (phase 1 warnings),
    following the classical usefulness construction on pattern matrices.

    SML compilers warn on both; our fragment does the same so pattern
    compilation without tag checks rests on an explicit analysis. *)

val check_rows : Tyenv.t -> arity:int -> Tast.tpat list list -> (int list, unit) result
(** Analyse a pattern matrix (one row per clause/arm).
    [Ok redundant_rows] when the matrix is exhaustive ([redundant_rows] are
    0-based indices of unreachable rows); [Error ()] when it is not
    exhaustive. *)
