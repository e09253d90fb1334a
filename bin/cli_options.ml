(* The one place the driver binaries parse their shared flags.

   dmlc's subcommands, dmld's serve front-end and the dmli REPL all take the
   same knobs: the per-obligation solver budget (--solver/--fuel/
   --timeout-ms/--max-elim), the persistent verdict cache (--cache-dir),
   observability (--trace/--profile/--json) and parallelism (-j).  They
   are defined once here and assembled into a [Dml_core.Session.options]
   with [session_options].  The strict/degrade switch is defined here too,
   but it is no session option: [dmlc check], [dmlc run] and [dmli] read
   it themselves when they consume a report. *)

open Cmdliner
open Dml_core
module J = Dml_obs.Json
module Trace = Dml_obs.Trace
module Metrics = Dml_obs.Metrics

(* A bundled benchmark name; [NAME:unannotated] names its stripped twin
   (the --infer corpus); anything else is a file path. *)
let twin_suffix = ":unannotated"

let read_source path_or_name =
  let open Dml_programs in
  let twin =
    if String.ends_with ~suffix:twin_suffix path_or_name then
      Programs.find (Filename.chop_suffix path_or_name twin_suffix)
    else None
  in
  match (Programs.find path_or_name, twin) with
  | Some b, _ -> Ok b.Programs.source
  | None, Some b -> Ok (Programs.unannotated b)
  | None, None -> (
      try
        let ic = open_in path_or_name in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        Ok s
      with Sys_error msg -> Error msg)

let exit_err msg =
  prerr_endline msg;
  exit 1

(* --- solver budget ----------------------------------------------------------- *)

let solver_method =
  let methods =
    [
      ("fm", Dml_solver.Solver.Fm_tightened);
      ("fm-plain", Dml_solver.Solver.Fm_plain);
      ("simplex", Dml_solver.Solver.Simplex_rational);
    ]
  in
  let doc = "Constraint solver: fm (Fourier-Motzkin with integral tightening), fm-plain, simplex." in
  Arg.(value & opt (enum methods) Dml_solver.Solver.Fm_tightened & info [ "solver" ] ~doc)

(* Per-obligation solver budget; together with the method this builds the
   session's solve_config. *)
let solve_config =
  let fuel =
    let doc = "Solver fuel per obligation (abstract work units: DNF disjuncts, \
               Fourier combinations, simplex pivots)." in
    Arg.(value & opt (some int) None & info [ "fuel" ] ~docv:"N" ~doc)
  in
  let timeout_ms =
    let doc = "Wall-clock solver deadline per obligation, in milliseconds." in
    Arg.(value & opt (some int) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)
  in
  let max_elim =
    let doc = "Maximum Fourier-Motzkin variable eliminations per obligation." in
    Arg.(value & opt (some int) None & info [ "max-elim" ] ~docv:"N" ~doc)
  in
  let build sc_method sc_fuel sc_timeout_ms sc_max_eliminations =
    { Session.sc_method; sc_fuel; sc_timeout_ms; sc_max_eliminations }
  in
  Term.(const build $ solver_method $ fuel $ timeout_ms $ max_elim)

(* --- verdict cache ----------------------------------------------------------- *)

(* The only cache switch: [--cache-dir] builds a verdict cache persisted
   under DIR.  Without it a session is uncached (inference still memoises
   its own qualifier tests).  The term yields the configuration: plain data
   that session options carry and worker pools ship. *)
let cache_spec_term =
  let doc = "Memoize solver verdicts under $(docv) so they survive across \
             invocations: goals are canonicalized (alpha-renaming, conjunct order \
             and linear-atom presentation are quotiented away) and a repeated goal \
             reuses its verdict instead of re-running the solver.  Corrupt or \
             truncated entries are detected and treated as misses." in
  let dir = Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc) in
  Term.(const (Option.map (fun dir -> { Dml_cache.Cache.dir = Some dir })) $ dir)

(* --- strict/degrade ---------------------------------------------------------- *)

let degrade_flag =
  let strict =
    ( false,
      Arg.info [ "strict" ]
        ~doc:"Reject programs with unproven obligations (the default)." )
  in
  let degrade =
    ( true,
      Arg.info [ "degrade" ]
        ~doc:
          "Graceful degradation: accept programs with unproven obligations, keeping \
           a dynamic bound check at exactly the unproven sites." )
  in
  Arg.(value & vflag false [ strict; degrade ])

(* --- parallelism ------------------------------------------------------------- *)

let batch_jobs_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Shard the work across $(docv) forked worker processes (0 = one per core).  \
           Results are merged back in input order, so --json output is byte-identical \
           to -j 1; a crashed or hung worker degrades only the task it was running.")

(* --- session assembly -------------------------------------------------------- *)

let infer_term =
  Arg.(
    value & flag
    & info [ "infer" ]
        ~doc:"Liquid-qualifier annotation inference: synthesize dependent-type \
              templates for unannotated functions, iterate a qualifier fixpoint \
              against the solver, and check the program under the inferred \
              types.  Inference never proves a site the annotated checker would \
              reject; unprovable sites degrade exactly as without $(b,--infer).")

let session_options ?jobs ?(infer = false) ?(incremental = false)
    ~solve ~cache_spec () =
  {
    Session.op_solve = solve;
    op_cache = cache_spec;
    op_jobs = jobs;
    op_infer = infer;
    op_incremental = incremental;
  }

(* --- observability: --trace FILE, --profile, --json -------------------------- *)

type obs = { ob_trace : string option; ob_profile : bool; ob_json : bool }

let trace_term =
  let doc = "Write a structured trace to $(docv) (schema dml-trace/1, see \
             DESIGN.md): nested spans for parse, infer, elaborate and every \
             obligation and solver goal, with method, budget tier, cache status, \
             verdict and monotonic wall-clock durations." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let profile_term =
  let doc = "Dump the process metrics registry (named counters and histograms \
             across solver, cache, pipeline and the eval backends) after the \
             command; with $(b,--json) it is embedded as a \"metrics\" field." in
  Arg.(value & flag & info [ "profile" ] ~doc)

let obs_term =
  let json =
    let doc = "Emit a machine-readable JSON report on stdout instead of the text \
               output (schemas documented in DESIGN.md); implies span collection, so \
               per-obligation solve spans are included." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let build ob_trace ob_profile ob_json = { ob_trace; ob_profile; ob_json } in
  Term.(const build $ trace_term $ profile_term $ json)

(* Tracing is enabled exactly while the traced work runs: spans are needed
   for the trace file and for the JSON report's "spans" field. *)
let with_sink obs f =
  if obs.ob_trace = None && not obs.ob_json then (f (), None)
  else begin
    let sink = Trace.create_sink () in
    Trace.set_sink (Some sink);
    let result = Fun.protect ~finally:(fun () -> Trace.set_sink None) f in
    (match obs.ob_trace with
    | None -> ()
    | Some file -> (
        match J.write_file file (Trace.to_json sink) with
        | Ok () -> ()
        | Error msg -> prerr_endline ("cannot write trace file: " ^ msg)));
    (result, Some sink)
  end

let emit_json v = print_endline (J.to_string_pretty v)

(* the trailing report fields shared by every command: collected spans when
   tracing ran, the metrics registry under --profile *)
let obs_fields obs sink =
  (match sink with
  | Some sk when obs.ob_json ->
      [ ("spans", J.List (List.map Trace.span_to_json (Trace.roots sk))) ]
  | _ -> [])
  @ if obs.ob_profile then [ ("metrics", Metrics.to_json ()) ] else []

let profile_text obs = if obs.ob_profile && not obs.ob_json then Format.printf "%a" Metrics.pp ()
