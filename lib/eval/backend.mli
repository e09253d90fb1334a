(** First-class evaluation backends — the three platforms of the Tables 2/3
    experiment behind one interface.

    A backend is a record: identity (key/aliases for the CLI), presentation
    (display name, time unit, which paper table and column it stands in
    for), availability (the native backend degrades to an [Error] verdict
    when no OCaml toolchain is installed), and one measurement function
    that runs a benchmark request under both primitive disciplines and
    reports the paired timings plus eliminated/residual check counts.

    All backends are listed here, in one place ({!all}); [Tables] and
    [dmlc table23] consume the list uniformly instead of switching on a
    variant. *)

type exec = { lookup : string -> Value.t }
(** A running program: entry points by name.  [Dml_programs.Workloads.exec]
    is an alias of this type. *)

type request = {
  rq_name : string;  (** benchmark name, for error messages *)
  rq_tprog : Dml_mltype.Tast.tprogram;  (** elaborated program, basis included *)
  rq_degraded : (Dml_lang.Loc.t -> bool) option;
      (** unproven sites that must keep their dynamic check
          ({!Dml_core.Pipeline.degraded_pred}); [None] when fully proven *)
  rq_scale : int;  (** workload multiplier *)
  rq_run : exec -> scale:int -> string;
      (** the workload driver; returns its deterministic summary line *)
  rq_native_driver : string option;
      (** OCaml source defining [dml_run : int -> string] against the
          mangled program: the native instance of [Dml_programs.Drivers]
          ([Dml_programs.Native_drivers.find]) — required by the native
          backend only *)
}

type measurement = {
  ms_checked : float;  (** run time with bound checks (backend's unit) *)
  ms_unchecked : float;  (** run time without *)
  ms_eliminated : int;  (** checks eliminated in the unchecked run *)
  ms_residual : int;  (** checks still executed in the unchecked run *)
}

type paper_column = Alpha  (** Table 2, SML/NJ on DEC Alpha *) | Sparc  (** Table 3, MLWorks on SPARC *)

type t = {
  b_key : string;  (** canonical CLI name *)
  b_aliases : string list;  (** accepted CLI synonyms *)
  b_name : string;  (** display line in the table header *)
  b_unit : string;  (** time-column unit, e.g. ["Mcyc"] or ["s"] *)
  b_table : string;  (** which paper table it regenerates, ["2"] or ["3"] *)
  b_paper : paper_column;
  b_available : unit -> (unit, string) result;
      (** probe; [Error] is the graceful "Unavailable" verdict *)
  b_measure : request -> (measurement, string) result;
}

val find : string -> t option
(** Look up by key or alias. *)

val all : unit -> t list
(** The three platforms, in table order: {!cost_model}; ["compiled"]
    (alias ["closure"]), the closure compiler ({!Compile}) in wall-clock
    seconds; and ["native"], {!Codegen} emitting OCaml source with proven
    sites as [Array.unsafe_get]/[unsafe_set], compiled with the installed
    toolchain (it needs {!request.rq_native_driver}, and is unavailable,
    with a reason, when no toolchain is on PATH). *)

val time_pair : (unit -> unit) -> (unit -> unit) -> float * float
(** Interleaved paired measurement on the monotonic wall clock
    ({!Dml_obs.Clock.now}): each side takes its best of five alternated
    rounds, [Gc.full_major] before each, so slow drift of the machine
    state cannot bias one side.  Exposed for the timing regression tests
    (and re-exported by [Dml_programs.Tables]). *)

val cost_model : t
(** Platform A (["cost-model"], alias ["cycles"]): the closure compiler
    charging its virtual-cycle cost model ({!Compile.initial_costed});
    "times" are virtual megacycles. *)
