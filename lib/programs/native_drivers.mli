(** The native instance of {!Drivers} (the ["native"] backend,
    {!Dml_eval.Backend.find}).

    [find name] is the driver for the benchmark of that name ({!Programs}'s
    registry names), or [None] for programs without one: OCaml source that
    embeds {!Drivers}' own text, applies [Drivers.Make] to the generated
    program's [int array] and list types without verification, and defines
    [dml_run : int -> string] through a one-line entry that names the
    program's mangled identifiers.  Its summary line is the one the host
    instance ({!Workloads}) returns — the differential tests assert that
    byte-equality. *)

val find : string -> string option
