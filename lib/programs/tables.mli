(** The experiment harness regenerating the paper's tables.

    Table 1: constraint generation/solving statistics and annotation counts
    per program.  Tables 2 and 3: run time with and without array bound
    checks on any registered evaluation backend ({!Dml_eval.Backend}), plus
    the number of dynamically eliminated checks. *)


type t1_row = {
  t1_name : string;
  t1_constraints : int;
  t1_gen_s : float;
  t1_solve_s : float;
  t1_annotations : int;
  t1_annotation_lines : int;
  t1_code_lines : int;
  t1_inferred : (int, string) result option;
      (** residual bound checks when the benchmark's unannotated twin
          ({!Programs.unannotated}: its source with the annotations erased,
          plus its driver) is checked under qualifier inference — [Ok 0] is
          parity with the annotated column; [None] when the inferred column
          was not requested *)
}

val table1 : ?infer:bool -> unit -> (t1_row, string) result list
(** One row per Table 1 program, in the paper's order.  [infer] (default
    [false]) additionally checks each benchmark's unannotated twin with
    {!Dml_infer.Engine} and fills {!t1_row.t1_inferred}. *)

type t23_row = {
  t23_name : string;
  t23_checked_s : float;  (** run time with bound checks (backend's unit) *)
  t23_unchecked_s : float;  (** run time without *)
  t23_gain_pct : float;
  t23_eliminated : int;  (** dynamic checks eliminated in the unchecked run *)
  t23_residual : int;  (** checks still executed in the unchecked run (CK sites) *)
}

val time_pair : (unit -> unit) -> (unit -> unit) -> float * float
(** {!Dml_eval.Backend.time_pair}, re-exported for the timing regression
    tests: interleaved paired measurement on the monotonic wall clock,
    each side's best of five alternated rounds. *)

val table23 : Dml_eval.Backend.t -> scale:int -> (t23_row, string) result list
(** One row per Table 2/3 program: each is type checked, any unproven
    site degraded to a checked access ({!Dml_core.Pipeline.degraded_pred}),
    and the benchmark handed to the backend's measurement function.  An
    unavailable backend (e.g. the ["native"] one with no toolchain) yields an [Error] row naming the reason. *)

val print_table1_rows : Format.formatter -> (t1_row, string) result list -> unit
(** Print Table 1 from rows of {!table1}. *)

val print_table23_rows :
  Format.formatter -> Dml_eval.Backend.t -> scale:int -> (t23_row, string) result list -> unit
(** Rows must align with {!Programs.table_benchmarks} (same order/length). *)
