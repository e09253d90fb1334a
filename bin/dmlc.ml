(* dmlc: the command-line driver.

   - [dmlc check FILE]       type check a program (phases 1 and 2 + solving)
   - [dmlc batch FILE...]    check many programs through [Dml_par.Runner], in
                             process against one session or on a worker pool
   - [dmlc constraints FILE] print every generated constraint with its verdict
   - [dmlc run FILE NAME]    evaluate a program and print a binding
   - [dmlc table1]           regenerate the paper's Table 1
   - [dmlc table23]          regenerate Table 2 (cost model) or 3 (compiled, native)
   - [dmlc list]             list the bundled benchmark programs

   Shared flag parsing lives in [Cli_options]; every subcommand assembles a
   [Dml_core.Session.t] from its flags and runs the pipeline through it.
   The JSON documents are built by [Dml_core.Report_json], a check's through
   [Dml_infer.Engine.check_json] — the same builders the dmld server uses,
   which is what keeps server responses byte-identical to one-shot [--json]
   output. *)

open Cmdliner
open Dml_core
open Cli_options
module J = Dml_obs.Json
module Trace = Dml_obs.Trace
module Metrics = Dml_obs.Metrics
module Engine = Dml_infer.Engine

let print_stats (report : Pipeline.report) =
  let s = report.Pipeline.rp_solver_stats in
  Format.printf
    "solver: goals=%d disjuncts=%d timeouts=%d solve=%.4fs gen=%.4fs@."
    s.Dml_solver.Solver.checked_goals s.Dml_solver.Solver.disjuncts
    s.Dml_solver.Solver.timeouts
    report.Pipeline.rp_solve_time report.Pipeline.rp_gen_time;
  match report.Pipeline.rp_cache_stats with
  | None -> ()
  | Some cs -> Format.printf "cache: %a@." Dml_cache.Cache.pp_snapshot cs

let file_arg =
  let doc = "Program file, or the name of a bundled benchmark (see $(b,dmlc list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

(* Under --json, an unreadable input is still a well-formed dml-check/1
   document (stage "io"), never a bare stderr line: a machine consumer
   always gets a parseable report. *)
let with_source ~json file k =
  match read_source file with
  | Ok src -> k src
  | Error msg ->
      if json then begin
        emit_json (Report_json.of_io_failure ~program:file msg);
        exit 1
      end
      else exit_err msg

(* --- check ------------------------------------------------------------------ *)

let check_cmd =
  let run config cache_spec stats degrade infer obs file =
    with_source ~json:obs.ob_json file (fun src ->
        let session =
          Session.create ~options:(session_options ~infer ~solve:config ~cache_spec ()) ()
        in
        let result, sink = with_sink obs (fun () -> Engine.check session src) in
        if obs.ob_json then begin
          emit_json
            (Engine.check_json ~extra:(obs_fields obs sink) session ~program:file result);
          match result with
          | Ok (report, _) when report.Pipeline.rp_valid || degrade -> ()
          | _ -> exit 1
        end
        else
          match result with
          | Error f -> exit_err (Diagnose.render_failure ~src f)
          | Ok (report, outcome) ->
              Format.printf "%a@." Pipeline.pp_report report;
              (match outcome with
              | None -> ()
              | Some oc ->
                  let st = oc.Engine.oc_stats in
                  Format.printf
                    "inference: liquid vars=%d rounds=%d qualifiers tested=%d kept=%d@."
                    st.Engine.st_liquid_vars st.Engine.st_iterations
                    st.Engine.st_quals_tested st.Engine.st_quals_kept;
                  List.iter
                    (fun (fs : Engine.fun_solution) ->
                      Format.printf "  inferred %s : %s@." fs.Engine.fs_fun
                        fs.Engine.fs_type)
                    oc.Engine.oc_solution;
                  match oc.Engine.oc_abandoned with
                  | Some why -> Format.printf "inference abandoned (checked plainly): %s@." why
                  | None -> ());
              if stats then print_stats report;
              List.iter
                (fun (msg, loc) ->
                  Format.printf "warning at %a: %s@." Dml_lang.Loc.pp loc msg)
                report.Pipeline.rp_warnings;
              if degrade then begin
                print_string (Diagnose.render_degradation ~src report);
                profile_text obs
              end
              else begin
                print_string (Diagnose.render_report ~src report);
                profile_text obs;
                if not report.Pipeline.rp_valid then exit 1
              end)
  in
  let stats_flag =
    let doc = "Print solver and cache counters (goals solved, hits, misses, evictions, \
               solve vs. lookup time) after the report." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let doc = "Type check a program with dependent types and solve its constraints." in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run $ solve_config $ cache_spec_term $ stats_flag $ degrade_flag
      $ infer_term $ obs_term $ file_arg)

(* --- batch ------------------------------------------------------------------ *)

(* Check many programs.  Every row comes from [Dml_par.Runner]: in process
   against one session (under --cache-dir its verdict cache is shared by
   every program and every [--repeat] pass), or sharded across a worker pool
   under -j.  Rows are printed and emitted in
   input order.  The JSON document holds only schedule-independent fields
   unless --profile adds the volatile ones, so it is byte-identical whatever
   the execution site; the text table always shows the timing and cache
   columns. *)
module Runner = Dml_par.Runner

let print_batch_pass ~pass ~label rows =
  Format.printf "%-16s %-10s %5s %6s %6s %6s %9s %9s@." "program" "status" "cons" "goals"
    "hits" "miss" "solve(s)" "gen(s)";
  List.iter
    (fun (r : Runner.row) ->
      match r.Runner.row_result with
      | Error msg -> Format.printf "%-16s %-10s %s@." r.Runner.row_name "failed" msg
      | Ok s ->
          let status =
            if s.Runner.sm_valid then "valid" else Printf.sprintf "resid:%d" s.Runner.sm_residual
          in
          Format.printf "%-16s %-10s %5d %6d %6d %6d %9.4f %9.4f@." r.Runner.row_name status
            s.Runner.sm_constraints s.Runner.sm_goals s.Runner.sm_cache_hits
            s.Runner.sm_cache_misses s.Runner.sm_solve_s s.Runner.sm_gen_s)
    rows;
  let a = Runner.aggregate rows in
  Format.printf
    "pass %d: %d program(s), %d failed; goals=%d solver-calls=%d cache-hits=%d (%.1f%% hit \
     rate); solve=%.4fs lookup=%.4fs%s@."
    pass a.Runner.ag_programs a.Runner.ag_failed a.Runner.ag_goals a.Runner.ag_solver_calls
    a.Runner.ag_cache_hits (Runner.hit_rate_pct a) a.Runner.ag_solve_s a.Runner.ag_lookup_s label

let batch_cmd =
  let run config cache_spec jobs all all_unannot repeat infer obs files =
    let named =
      if all then List.map (fun b -> b.Dml_programs.Programs.name) Dml_programs.Programs.all
      else []
    in
    let named_twins =
      if all_unannot then
        List.map (fun b -> b.Dml_programs.Programs.name ^ twin_suffix) Dml_programs.Programs.all
      else []
    in
    let targets = named @ named_twins @ files in
    if targets = [] then exit_err "batch: no programs given (pass FILE... or --all)";
    if repeat < 1 then exit_err "batch: --repeat must be at least 1";
    let options = session_options ?jobs ~infer ~solve:config ~cache_spec () in
    let mode = Runner.mode_of options in
    (* the in-process session; pooled workers build their own *)
    let session =
      match mode with
      | Runner.Sequential -> Some (Session.create ~options ())
      | Runner.Workers _ -> None
    in
    let resolved =
      List.map (fun name -> { Runner.tg_name = name; tg_source = read_source name }) targets
    in
    let rec run_passes pass =
      if pass > repeat then []
      else begin
        if repeat > 1 && not obs.ob_json then Format.printf "--- pass %d/%d ---@." pass repeat;
        let rows = Runner.check_targets_s ?session options resolved in
        if not obs.ob_json then print_batch_pass ~pass ~label:(Runner.jobs_label options) rows;
        rows :: run_passes (pass + 1)
      end
    in
    let passes, sink = with_sink obs (fun () -> run_passes 1) in
    let cache = Option.bind session Session.cache in
    if obs.ob_json then begin
      (* --profile opts into volatile figures, forfeiting byte-stability *)
      let cache_field =
        if obs.ob_profile then
          [
            ( "cache",
              match cache with
              | None -> J.Null
              | Some c -> Dml_cache.Cache.snapshot_to_json (Dml_cache.Cache.snapshot c) );
          ]
        else []
      in
      (* worker spans arrive in completion order: a pooled document
         carries none, which keeps it byte-identical across -j widths *)
      let sink = match mode with Runner.Sequential -> sink | Runner.Workers _ -> None in
      emit_json
        (Runner.batch_json ~options ~profile:obs.ob_profile
           ~extra:(cache_field @ obs_fields obs sink)
           ~passes ())
    end
    else begin
      Option.iter
        (fun c ->
          Format.printf "cache: %a@." Dml_cache.Cache.pp_snapshot (Dml_cache.Cache.snapshot c))
        cache;
      profile_text obs
    end;
    if List.exists (List.exists (fun (r : Runner.row) -> Result.is_error r.Runner.row_result)) passes
    then exit 1
  in
  let files =
    let doc = "Program files or bundled benchmark names (see $(b,dmlc list))." in
    Arg.(value & pos_all string [] & info [] ~docv:"FILE" ~doc)
  in
  let all =
    Arg.(value & flag & info [ "all" ] ~doc:"Also check every bundled benchmark program.")
  in
  let all_unannot =
    Arg.(
      value & flag
      & info [ "all-unannotated" ]
          ~doc:"Also check every bundled unannotated twin (the $(b,--infer) corpus; \
                rows are named $(i,NAME):unannotated).")
  in
  let repeat =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:"Run the whole batch $(docv) times.  In process, every pass checks \
                against the same session, so with $(b,--cache-dir) later passes \
                show the fully warm amortization; pooled passes ($(b,-j)) fork fresh workers, so only a \
                $(b,--cache-dir) carries verdicts over between them.")
  in
  let doc =
    "Check many programs and report per-program and aggregate figures; with \
     $(b,--cache-dir) every program and pass shares one solver-verdict cache."
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(
      const run $ solve_config $ cache_spec_term $ batch_jobs_term $ all
      $ all_unannot $ repeat $ infer_term $ obs_term $ files)

(* --- constraints ---------------------------------------------------------------- *)

let constraints_cmd =
  let run config cache_spec file =
    let session = Session.create ~options:(session_options ~solve:config ~cache_spec ()) () in
    match read_source file with
    | Error msg -> exit_err msg
    | Ok src -> (
        match Pipeline.check_s session src with
        | Error f -> exit_err (Pipeline.failure_to_string f)
        | Ok report ->
            List.iter
              (fun co ->
                Format.printf "--- %s at %a [%a]@.%a@.@."
                  co.Pipeline.co_obligation.Elab.ob_what Dml_lang.Loc.pp
                  co.Pipeline.co_obligation.Elab.ob_loc Dml_solver.Solver.pp_verdict
                  co.Pipeline.co_verdict Dml_constr.Constr.pp
                  co.Pipeline.co_obligation.Elab.ob_constr)
              report.Pipeline.rp_obligations)
  in
  let doc = "Print every constraint generated during elaboration, with its verdict." in
  Cmd.v (Cmd.info "constraints" ~doc)
    Term.(const run $ solve_config $ cache_spec_term $ file_arg)

(* --- run -------------------------------------------------------------------------- *)

let run_cmd =
  let run config cache_spec degrade obs file binding unchecked =
    with_source ~json:obs.ob_json file (fun src ->
        let session =
          Session.create ~options:(session_options ~solve:config ~cache_spec ()) ()
        in
        let result, sink =
          with_sink obs (fun () ->
              match Pipeline.check_s session src with
              | Error f -> Error (`Failure f)
              | Ok report when (not report.Pipeline.rp_valid) && not degrade ->
                  Error (`Invalid report)
              | Ok report ->
                  let tprog = report.Pipeline.rp_tprog in
                  let mode =
                    if unchecked then Dml_eval.Prims.Unchecked else Dml_eval.Prims.Checked
                  in
                  let residual_sites = not report.Pipeline.rp_valid in
                  let counters = Dml_eval.Prims.new_counters () in
                  let sp_eval = Trace.start "eval" in
                  let ce =
                    Dml_eval.Compile.initial_fast mode ~counters
                      ?degraded:(Pipeline.degraded report) ()
                  in
                  let ce = Dml_eval.Compile.run_program ce tprog in
                  let value = Dml_eval.Compile.lookup ce binding in
                  Trace.set_str sp_eval "backend" "compiled";
                  Trace.set_int sp_eval "dynamic_checks" counters.Dml_eval.Prims.dynamic_checks;
                  Trace.set_int sp_eval "eliminated_checks"
                    counters.Dml_eval.Prims.eliminated_checks;
                  Trace.finish sp_eval;
                  Ok (report, value, counters, residual_sites))
        in
        match result with
        | Error (`Failure f) ->
            if obs.ob_json then begin
              emit_json (Report_json.of_failure ~program:file ~extra:(obs_fields obs sink) f);
              exit 1
            end
            else exit_err (Diagnose.render_failure ~src f)
        | Error (`Invalid report) ->
            if obs.ob_json then begin
              emit_json (Report_json.of_report ~program:file ~extra:(obs_fields obs sink) report);
              exit 1
            end
            else exit_err (Diagnose.render_report ~src report)
        | Ok (report, value, counters, residual_sites) ->
            if obs.ob_json then
              emit_json
                (J.Obj
                   ([
                      ("schema", J.String "dml-run/1");
                      ("program", J.String file);
                      ("binding", J.String binding);
                      ("value", J.String (Format.asprintf "%a" Dml_eval.Value.pp value));
                      ("backend", J.String "compiled");
                      ("unchecked", J.Bool unchecked);
                      ("valid", J.Bool report.Pipeline.rp_valid);
                      ("residual", J.Int report.Pipeline.rp_residual);
                      ("dynamic_checks", J.Int counters.Dml_eval.Prims.dynamic_checks);
                      ("eliminated_checks", J.Int counters.Dml_eval.Prims.eliminated_checks);
                      ("solver", Report_json.solver_stats_to_json report.Pipeline.rp_solver_stats);
                    ]
                   @ obs_fields obs sink))
            else begin
              Format.printf "%s = %a@." binding Dml_eval.Value.pp value;
              if degrade && residual_sites then
                Format.printf
                  "degraded: %d unproven site(s) (%d timed out); residual dynamic checks \
                   executed: %d@."
                  report.Pipeline.rp_residual report.Pipeline.rp_timeouts
                  counters.Dml_eval.Prims.dynamic_checks;
              profile_text obs
            end)
  in
  let binding =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"BINDING" ~doc:"Binding to print.")
  in
  let unchecked =
    Arg.(value & flag & info [ "unchecked" ] ~doc:"Use unchecked array primitives.")
  in
  let doc = "Type check, evaluate, and print a top-level binding." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ solve_config $ cache_spec_term $ degrade_flag $ obs_term
      $ file_arg $ binding $ unchecked)

(* --- tables ------------------------------------------------------------------------- *)

(* like [batch]: the table is printed in full, then a failed row fails the
   command *)
let exit_if_failed rows = if List.exists Result.is_error rows then exit 1

let table1_cmd =
  let run infer obs =
    let rows, sink = with_sink obs (fun () -> Dml_programs.Tables.table1 ~infer ()) in
    if obs.ob_json then
      emit_json
        (J.Obj
           ([
              (* /2 only when the inferred column is requested: the default
                 document stays byte-identical *)
              ("schema", J.String (if infer then "dml-table1/2" else "dml-table1/1"));
              ( "rows",
                J.List
                  (List.map
                     (function
                       | Error msg -> J.Obj [ ("error", J.String msg) ]
                       | Ok (r : Dml_programs.Tables.t1_row) ->
                           J.Obj
                             ([
                                ("program", J.String r.Dml_programs.Tables.t1_name);
                                ("constraints", J.Int r.Dml_programs.Tables.t1_constraints);
                                ("gen_s", J.Float r.Dml_programs.Tables.t1_gen_s);
                                ("solve_s", J.Float r.Dml_programs.Tables.t1_solve_s);
                                ("annotations", J.Int r.Dml_programs.Tables.t1_annotations);
                                ( "annotation_lines",
                                  J.Int r.Dml_programs.Tables.t1_annotation_lines );
                                ("code_lines", J.Int r.Dml_programs.Tables.t1_code_lines);
                              ]
                             @
                             match r.Dml_programs.Tables.t1_inferred with
                             | None -> []
                             | Some (Ok n) -> [ ("inferred_residual", J.Int n) ]
                             | Some (Error msg) -> [ ("inferred_error", J.String msg) ]))
                     rows) );
            ]
           @ obs_fields obs sink))
    else begin
      Dml_programs.Tables.print_table1_rows Format.std_formatter rows;
      profile_text obs
    end;
    exit_if_failed rows
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Regenerate the paper's Table 1 (--infer adds the \
                             inferred-residual column from the unannotated twins).")
    Term.(const run $ infer_term $ obs_term)

let table23_cmd =
  let run backend_key scale obs =
    let backend =
      match Dml_eval.Backend.find backend_key with
      | Some b -> b
      | None -> exit_err (Printf.sprintf "unknown backend %S" backend_key)
    in
    let rows, sink = with_sink obs (fun () -> Dml_programs.Tables.table23 backend ~scale) in
    if obs.ob_json then
        emit_json
          (J.Obj
             ([
                ("schema", J.String "dml-table23/1");
                ("backend", J.String backend.Dml_eval.Backend.b_key);
                ("scale", J.Int scale);
                ( "rows",
                  J.List
                    (List.map2
                       (fun (b : Dml_programs.Programs.benchmark) row ->
                         match row with
                         | Error msg ->
                             J.Obj
                               [
                                 ("program", J.String b.Dml_programs.Programs.name);
                                 ("error", J.String msg);
                               ]
                         | Ok (r : Dml_programs.Tables.t23_row) ->
                             J.Obj
                               [
                                 ("program", J.String r.Dml_programs.Tables.t23_name);
                                 ("checked", J.Float r.Dml_programs.Tables.t23_checked_s);
                                 ("unchecked", J.Float r.Dml_programs.Tables.t23_unchecked_s);
                                 ("gain_pct", J.Float r.Dml_programs.Tables.t23_gain_pct);
                                 ("eliminated", J.Int r.Dml_programs.Tables.t23_eliminated);
                                 ("residual", J.Int r.Dml_programs.Tables.t23_residual);
                               ])
                       Dml_programs.Programs.table_benchmarks rows) );
              ]
             @ obs_fields obs sink))
    else begin
      Dml_programs.Tables.print_table23_rows Format.std_formatter backend ~scale rows;
      profile_text obs
    end;
    exit_if_failed rows
  in
  (* the enum maps to registry keys, not Backend.t values: backend records
     hold closures, which cmdliner's structural-equality printer would choke
     on; the lookup happens after parsing *)
  let backend =
    Arg.(
      value
      & opt
          (enum
             [
               ("cost-model", "cost-model");
               ("cycles", "cost-model");
               ("compiled", "compiled");
               ("closure", "compiled");
               ("native", "native");
             ])
          "compiled"
      & info [ "backend" ]
          ~doc:
            "cost-model (alias cycles) regenerates Table 2, compiled (alias closure) Table \
             3; native compiles the benchmarks to machine code with the installed OCaml \
             toolchain and times real binaries.")
  in
  let scale =
    Arg.(value & opt int 1 & info [ "scale" ] ~doc:"Workload multiplier.")
  in
  Cmd.v
    (Cmd.info "table23" ~doc:"Regenerate the paper's Tables 2/3 on a backend.")
    Term.(const run $ backend $ scale $ obs_term)

let pretty_cmd =
  let run file =
    match read_source file with
    | Error msg -> exit_err msg
    | Ok src -> (
        match Dml_lang.Parser.parse_program src with
        | prog -> print_string (Dml_lang.Pretty.program_to_string prog)
        | exception Dml_lang.Parser.Error (msg, loc) ->
            exit_err (Format.asprintf "syntax error at %a: %s" Dml_lang.Loc.pp loc msg)
        | exception Dml_lang.Lexer.Error (msg, loc) ->
            exit_err (Format.asprintf "lexical error at %a: %s" Dml_lang.Loc.pp loc msg))
  in
  let doc = "Parse a program and print it back formatted (a round-trip formatter)." in
  Cmd.v (Cmd.info "pretty" ~doc) Term.(const run $ file_arg)

let list_cmd =
  let run () =
    List.iter
      (fun b ->
        Format.printf "%-14s %s@.               workload: %s@." b.Dml_programs.Programs.name
          b.Dml_programs.Programs.description b.Dml_programs.Programs.workload_note)
      Dml_programs.Programs.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the bundled benchmark programs.") Term.(const run $ const ())

let () =
  let doc = "dependent ML: array bound check elimination through dependent types" in
  let info = Cmd.info "dmlc" ~version:"1.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ check_cmd; batch_cmd; constraints_cmd; run_cmd; pretty_cmd; table1_cmd; table23_cmd; list_cmd ]))
