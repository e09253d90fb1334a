(** Registry of the paper's programs with their workload drivers and the
    paper's measured numbers where the available scan is legible. *)

type paper_row = {
  pr_checked : float option;  (** seconds with array bound checks *)
  pr_unchecked : float option;  (** seconds without *)
  pr_gain : string option;
  pr_eliminated : string option;
}

type benchmark = {
  name : string;
  description : string;
  workload_note : string;  (** paper workload → ours *)
  source : string;
  driver : string;
      (** concrete top-level calls that exercise the program on inputs of
          known size; appended to its erasure by {!unannotated} *)
  in_tables : bool;  (** appears in the paper's Tables 1–3 *)
  run : Workloads.exec -> scale:int -> string;
  paper_alpha : paper_row;  (** Table 2: DEC Alpha / SML-NJ *)
  paper_sparc : paper_row;  (** Table 3: Sun SPARC / MLWorks *)
}

val all : benchmark list
(** Table programs in the paper's row order, then the four listings. *)

val table_benchmarks : benchmark list
val find : string -> benchmark option

val unannotated : benchmark -> string
(** The benchmark's unannotated twin, the corpus [--infer] is measured
    against: {!Dml_lang.Pretty.erase} of [source], printed, then [driver].
    Derived on each call. *)
