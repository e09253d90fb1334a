open Dml_lang
open Dml_solver
open Dml_mltype
module Metrics = Dml_obs.Metrics
module Trace = Dml_obs.Trace

type failure = {
  f_stage : [ `Lex | `Parse | `Mltype | `Elab | `Internal ];
  f_msg : string;
  f_loc : Loc.t;
}

type checked_obligation = {
  co_obligation : Elab.obligation;
  co_verdict : Solver.verdict;
  co_time : float;
}

(* Registry instruments (cumulative over the process; the [report] fields
   remain the per-check view). *)
let m_runs = Metrics.counter "pipeline.runs"
let m_failures = Metrics.counter "pipeline.failures"
let m_obligations = Metrics.counter "pipeline.obligations"
let m_residual = Metrics.counter "pipeline.residual"
let h_gen_ms = Metrics.histogram "pipeline.gen_ms"
let h_solve_ms = Metrics.histogram "pipeline.solve_ms"

type report = {
  rp_obligations : checked_obligation list;
  rp_valid : bool;
  rp_constraints : int;
  rp_residual : int;
  rp_timeouts : int;
  rp_gen_time : float;
  rp_solve_time : float;
  rp_solver_stats : Solver.stats;
  rp_annotations : int;
  rp_annotation_lines : int;
  rp_code_lines : int;
  rp_tprog : Tast.tprogram;
  rp_user_tprog : Tast.tprogram;
  rp_warnings : (string * Loc.t) list;
  rp_mlenv : Infer.env;
  rp_denv : Denv.t;
  rp_cache_stats : Dml_cache.Cache.snapshot option;
}

let count_code_lines src =
  let lines = ref 0 and blank = ref true in
  for i = 0 to String.length src - 1 do
    match String.unsafe_get src i with
    | '\n' ->
        if not !blank then incr lines;
        blank := true
    | ' ' | '\t' | '\r' -> ()
    | _ -> blank := false
  done;
  if !blank then !lines else !lines + 1

let annotation_metrics spans =
  let lines = Hashtbl.create 32 in
  List.iter
    (fun (a, b) ->
      for l = a to b do
        Hashtbl.replace lines l ()
      done)
    spans;
  (List.length spans, Hashtbl.length lines)

let unproven report =
  List.filter (fun co -> co.co_verdict <> Solver.Valid) report.rp_obligations

let degraded_sites report =
  List.map (fun co -> co.co_obligation.Elab.ob_loc) (unproven report)

let degraded_pred report =
  match degraded_sites report with
  | [] -> fun _ -> false
  | sites -> fun loc -> List.mem loc sites

let degraded report = if report.rp_valid then None else Some (degraded_pred report)

let stage_name = function
  | `Lex -> "lexical error"
  | `Parse -> "syntax error"
  | `Mltype -> "type error"
  | `Elab -> "dependent type error"
  | `Internal -> "internal error"

type frontend = {
  fe_obligations : Elab.obligation list;
  fe_gen_time : float;
  fe_annotations : int;
  fe_annotation_lines : int;
  fe_code_lines : int;
  fe_tprog : Tast.tprogram;
  fe_user_tprog : Tast.tprogram;
  fe_warnings : (string * Loc.t) list;
  fe_mlenv : Infer.env;
  fe_denv : Denv.t;
}

(* Exception-to-failure conversion shared by [frontend] and [check]: every
   staged front-end error and any unexpected exception becomes a failure. *)
let failure_of_exn = function
  | Lexer.Error (msg, loc) -> { f_stage = `Lex; f_msg = msg; f_loc = loc }
  | Parser.Error (msg, loc) -> { f_stage = `Parse; f_msg = msg; f_loc = loc }
  | Infer.Type_error (msg, loc) -> { f_stage = `Mltype; f_msg = msg; f_loc = loc }
  | Elab.Error (msg, loc) -> { f_stage = `Elab; f_msg = msg; f_loc = loc }
  | Stack_overflow -> { f_stage = `Internal; f_msg = "stack overflow"; f_loc = Loc.dummy }
  | Out_of_memory -> { f_stage = `Internal; f_msg = "out of memory"; f_loc = Loc.dummy }
  | e ->
      (* the front end must never kill a caller on arbitrary input; anything
         uncaught above is a bug, reported as a failure rather than raised *)
      {
        f_stage = `Internal;
        f_msg = "unexpected exception: " ^ Printexc.to_string e;
        f_loc = Loc.dummy;
      }

(* The front-end record, built the same way for a whole-program front end
   and for {!Incr}'s unit-by-unit one: [obligations] are the user
   program's, in generation order, after the basis's. *)
let frontend_of ~t0 ~src ~spans ~mlenv ~user_tprog ~ectx obligations =
  let prelude = Prelude.get () in
  let annotations, annotation_lines = annotation_metrics spans in
  {
    fe_obligations = prelude.obligations @ obligations;
    fe_gen_time = Budget.now () -. t0;
    fe_annotations = annotations;
    fe_annotation_lines = annotation_lines;
    fe_code_lines = count_code_lines src;
    fe_tprog = prelude.tprog @ user_tprog;
    fe_user_tprog = user_tprog;
    fe_warnings = List.rev !(mlenv.Infer.warnings);
    fe_mlenv = mlenv;
    fe_denv = Elab.export_denv ectx;
  }

let frontend_ast_exn ?t0 ~src ~spans user_prog =
  let t0 = match t0 with Some t -> t | None -> Budget.now () in
  (* phase 1 over the user code, from the post-basis environment *)
  let sp = Trace.start "infer" in
  let mlenv, user_tprog, ectx = Prelude.start (Prelude.get ()) user_prog in
  Trace.finish sp;
  (* phase 2 *)
  let sp = Trace.start "elaborate" in
  let ectx, obligations = Elab.elaborate_tops ectx user_tprog in
  Trace.finish sp;
  frontend_of ~t0 ~src ~spans ~mlenv ~user_tprog ~ectx obligations

let parse src =
  let sp = Trace.start "parse" in
  let parsed = Parser.parse_program_with_spans src in
  Trace.finish sp;
  parsed

let frontend_exn src =
  let t0 = Budget.now () in
  let user_prog, spans = parse src in
  frontend_ast_exn ~t0 ~src ~spans user_prog

let attempt f x =
  match f x with
  | v -> Ok v
  | exception Sys.Break -> raise Sys.Break
  | exception e -> Error (failure_of_exn e)

let frontend src = attempt frontend_exn src
let frontend_ast ~src ~spans user_prog = attempt (frontend_ast_exn ~src ~spans) user_prog

(* Run [f] with the session's trace sink installed (restoring whatever was
   active): a session with a sink traces its checks wherever they happen;
   a session without one leaves the caller's sink arrangement alone. *)
let with_session_sink session f =
  match Session.sink session with
  | None -> f ()
  | Some sk ->
      let prev = Trace.current_sink () in
      Trace.set_sink (Some sk);
      Fun.protect ~finally:(fun () -> Trace.set_sink prev) f

(* Solve one obligation under its own fresh budget and isolation barrier:
   one pathological constraint exhausts its own allowance and degrades its
   own site, without starving the rest of the program. *)
let solve_obligation ~config ?cache ~stats ob =
  let budget = Session.budget_of_solve_config config in
  let sp = Trace.start "obligation" in
  let ot0 = Budget.now () in
  let verdict =
    Solver.check_constraint ~method_:config.Session.sc_method ~stats ?budget ?cache
      ob.Elab.ob_constr
  in
  if Trace.real sp then begin
    Trace.set_str sp "what" ob.Elab.ob_what;
    Trace.set_str sp "loc" (Format.asprintf "%a" Loc.pp ob.Elab.ob_loc);
    Trace.set_str sp "verdict" (Solver.verdict_slug verdict)
  end;
  Trace.finish sp;
  { co_obligation = ob; co_verdict = verdict; co_time = Budget.now () -. ot0 }

let assemble ~cache_stats ~stats ~solve_time fe obligations =
  let residual = List.filter (fun co -> co.co_verdict <> Solver.Valid) obligations in
  let timeouts =
    List.length
      (List.filter
         (fun co -> match co.co_verdict with Solver.Timeout _ -> true | _ -> false)
         obligations)
  in
  {
    rp_obligations = obligations;
    rp_valid = residual = [];
    rp_constraints = List.length obligations;
    rp_residual = List.length residual;
    rp_timeouts = timeouts;
    rp_gen_time = fe.fe_gen_time;
    rp_solve_time = solve_time;
    rp_solver_stats = stats;
    rp_annotations = fe.fe_annotations;
    rp_annotation_lines = fe.fe_annotation_lines;
    rp_code_lines = fe.fe_code_lines;
    rp_tprog = fe.fe_tprog;
    rp_user_tprog = fe.fe_user_tprog;
    rp_warnings = fe.fe_warnings;
    rp_mlenv = fe.fe_mlenv;
    rp_denv = fe.fe_denv;
    rp_cache_stats = cache_stats;
  }

type solve = stats:Solver.stats -> Elab.obligation -> checked_obligation

let solve_all (solve : solve) fe x =
  let stats = Solver.new_stats () in
  (List.map (solve ~stats) fe.fe_obligations, stats, x)

(* The one check driver.  Everything a check owes its session and the
   process, whichever surface runs it, is done here once: the session's
   sink, the cache delta, the [check] span and the [pipeline.*]
   instruments, and the conversion of any exception into a failure. *)
let run session front solve_front =
  with_session_sink session @@ fun () ->
  let cache = Session.cache session in
  let mark = Option.map (fun c -> (c, Dml_cache.Cache.snapshot c)) cache in
  let sp_check = Trace.start "check" in
  Metrics.incr m_runs;
  let result =
    try
      match front () with
      | Error f -> Error f
      | Ok (fe, x) ->
          let config = Session.solve session in
          let t1 = Budget.now () in
          let obligations, stats, y = solve_front (solve_obligation ~config ?cache) fe x in
          let solve_time = Budget.now () -. t1 in
          let cache_stats =
            Option.map (fun (c, b) -> Dml_cache.Cache.diff (Dml_cache.Cache.snapshot c) b) mark
          in
          Ok (assemble ~cache_stats ~stats ~solve_time fe obligations, y)
    with
    | Sys.Break as e -> raise e
    | e -> Error (failure_of_exn e)
  in
  (match result with
  | Ok (r, _) ->
      Metrics.incr ~by:r.rp_constraints m_obligations;
      Metrics.incr ~by:r.rp_residual m_residual;
      Metrics.observe h_gen_ms (r.rp_gen_time *. 1000.);
      Metrics.observe h_solve_ms (r.rp_solve_time *. 1000.);
      if Trace.real sp_check then begin
        Trace.set_bool sp_check "valid" r.rp_valid;
        Trace.set_int sp_check "constraints" r.rp_constraints;
        Trace.set_int sp_check "residual" r.rp_residual
      end
  | Error f ->
      Metrics.incr m_failures;
      Trace.set_str sp_check "failure" (stage_name f.f_stage));
  (* also closes any stage span abandoned by an exception *)
  Trace.finish sp_check;
  result

let check_s session src =
  Result.map fst (run session (fun () -> Ok (frontend_exn src, ())) solve_all)

let pp_failure fmt f =
  Format.fprintf fmt "%s at %a: %s" (stage_name f.f_stage) Loc.pp f.f_loc f.f_msg

let failure_to_string f = Format.asprintf "%a" pp_failure f

let check_valid_s session src =
  match check_s session src with
  | Error f -> Error (failure_to_string f)
  | Ok report ->
      if report.rp_valid then Ok report
      else begin
        let failing = unproven report in
        let msgs =
          List.map
            (fun co ->
              Format.asprintf "%s at %a: %a" co.co_obligation.Elab.ob_what Loc.pp
                co.co_obligation.Elab.ob_loc Solver.pp_verdict co.co_verdict)
            failing
        in
        Error
          (Printf.sprintf "%d unproven constraint(s):\n%s" (List.length failing)
             (String.concat "\n" msgs))
      end

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>constraints: %d (%s)@ generation: %.4fs, solving: %.4fs@ annotations: %d on %d \
     line(s), %d code line(s)@]"
    r.rp_constraints
    (if r.rp_valid then "all valid"
     else
       Printf.sprintf "%d unproven%s" r.rp_residual
         (if r.rp_timeouts > 0 then Printf.sprintf ", %d timed out" r.rp_timeouts else ""))
    r.rp_gen_time r.rp_solve_time r.rp_annotations r.rp_annotation_lines r.rp_code_lines
