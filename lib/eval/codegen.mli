(** The native backend's front half: pretty-print an elaborated (typed)
    program as a standalone OCaml compilation unit, compile it with the
    installed toolchain, run the binary, and parse its self-reported
    results.

    The program is lowered by {!Lower}, which fixes every access site as
    checked or unchecked.  In Unchecked mode a proven [sub]/[update] site
    is emitted inline as [Array.unsafe_get]/[Array.unsafe_set]; a checked
    site calls an out-of-line helper that performs the bounds comparison
    and raises the program's [Subscript]; checked/unchecked list access
    ([nth]/[hd]/[tl]) is a tag-testing traversal vs. a tag-assuming one
    ([Obj.field]).  First-class primitives become tuple-taking wrappers.

    The generated program is plain typed OCaml: datatypes become variant
    declarations, [int array] stays a flat unboxed [int array], so the
    checked/unchecked delta measured on the binary is the real cost of the
    bounds tests and nothing else. *)

val mangle_var : string -> string
(** Value-identifier mangling ([v_] + sanitizer); stable — the one-line
    kernel entries in [Dml_programs.Native_drivers] name mangled
    identifiers. *)

val mangle_con : string -> string
(** Datatype-constructor mangling ([C_] + sanitizer); ["::"] mangles to
    ["C_3a3a"]. *)

val mangle_exn : string -> string
(** Exception-constructor mangling ([E_] + sanitizer). *)

val mangle_type : string -> string
(** Type-constructor mangling ([t_] + sanitizer) for user datatypes. *)

val emit_program :
  mode:Prims.mode ->
  ?degraded:(Dml_lang.Loc.t -> bool) ->
  instrument:bool ->
  Dml_mltype.Tast.tprogram ->
  string
(** The OCaml source for a typed program (basis included): prelude
    (exceptions, checked/unchecked primitive helpers), hoisted datatype
    declarations, then the value declarations.  [instrument] replaces the
    inline unsafe accesses with counting helpers so the binary can report
    eliminated/residual check counts (timed builds pass [false] and get the
    bare [Array.unsafe_*] emission). *)

val program_section : string -> string
(** The slice of an {!emit_program}/{!emit_executable} result between the
    [dml:program] and [dml:driver]/[dml:end] markers — the user program
    alone, for tests that grep the lowering of specific access sites. *)

type toolchain = {
  tc_name : string;  (** e.g. ["ocamlfind ocamlopt"] — for messages *)
  tc_compile : src:string -> exe:string -> string;  (** shell command *)
}

val find_toolchain : unit -> (toolchain, string) result
(** Probe for an installed compiler: [ocamlfind ocamlopt], then bare
    [ocamlopt], then bytecode [ocamlc].  [Error] (the graceful
    "Unavailable" verdict) when none is on PATH. *)

type run_result = {
  nr_summary : string;  (** the driver's deterministic result line *)
  nr_time_s : float option;  (** best-of-N wall seconds (timed builds) *)
  nr_eliminated : int option;  (** instrumented builds only *)
  nr_dynamic : int option;  (** instrumented builds only *)
}

val build_and_run :
  name:string ->
  mode:Prims.mode ->
  ?degraded:(Dml_lang.Loc.t -> bool) ->
  ?repeats:int ->
  instrument:bool ->
  driver:string ->
  scale:int ->
  Dml_mltype.Tast.tprogram ->
  (run_result, string) result
(** Emit the program plus [driver] (an OCaml fragment that must define
    [dml_run : int -> string], the workload at a given scale returning its
    summary line), compile it in a fresh temp directory, run it, parse the
    [dml-native/1] protocol from its stdout, and clean up.  The temp
    directory is kept (and named in the error) when compilation fails, so
    a codegen bug leaves its evidence behind.  Timed builds run the
    workload [repeats] times (default 5, [Gc.full_major] before each) and
    report the minimum, mirroring the host harness's paired timing. *)

val emit_executable :
  name:string ->
  mode:Prims.mode ->
  ?degraded:(Dml_lang.Loc.t -> bool) ->
  ?repeats:int ->
  instrument:bool ->
  driver:string ->
  Dml_mltype.Tast.tprogram ->
  string
(** The full compilation unit {!build_and_run} compiles, exposed for the
    tests that grep generated source. *)
