open Dml_core
module Json = Dml_obs.Json
module Cache = Dml_cache.Cache
module Solver = Dml_solver.Solver
module Loc = Dml_lang.Loc

type target = { tg_name : string; tg_source : (string, string) result }

type obligation_row = { or_what : string; or_loc : string; or_verdict : string }

type summary = {
  sm_valid : bool;
  sm_constraints : int;
  sm_residual : int;
  sm_timeouts : int;
  sm_goals : int;
  sm_cache_hits : int;
  sm_cache_misses : int;
  sm_gen_s : float;
  sm_solve_s : float;
  sm_lookup_s : float;
  sm_obligations : obligation_row list;
  sm_inferred : bool;
}

type row = { row_name : string; row_result : (summary, string) result }

type mode = Sequential | Workers of int

let summarize ~inferred (rp : Pipeline.report) =
  let obligation_rows =
    List.map
      (fun (co : Pipeline.checked_obligation) ->
        {
          or_what = co.co_obligation.Elab.ob_what;
          or_loc = Format.asprintf "%a" Loc.pp co.co_obligation.Elab.ob_loc;
          or_verdict = Solver.verdict_slug co.co_verdict;
        })
      rp.rp_obligations
  in
  {
    sm_valid = rp.rp_valid;
    sm_constraints = rp.rp_constraints;
    sm_residual = rp.rp_residual;
    sm_timeouts = rp.rp_timeouts;
    sm_goals = rp.rp_solver_stats.Solver.checked_goals;
    sm_cache_hits = rp.rp_solver_stats.Solver.cache_hits;
    sm_cache_misses = rp.rp_solver_stats.Solver.cache_misses;
    sm_gen_s = rp.rp_gen_time;
    sm_solve_s = rp.rp_solve_time;
    sm_lookup_s =
      Option.fold ~none:0. ~some:(fun cs -> cs.Cache.s_lookup_time) rp.rp_cache_stats;
    sm_obligations = obligation_rows;
    sm_inferred = inferred;
  }

(* The parallelism shape is stripped — the execution site is already a
   worker (or the in-process loop), and must not fork a nested pool — but
   everything else, [op_infer] included, is preserved: a worker checks
   under exactly the policy the batch was submitted with. *)
let worker_options (options : Session.options) =
  { options with Session.op_jobs = None }

(* An ephemeral session around the full session options: what each
   execution site (the in-process loop when the caller passes no session,
   a forked worker) assembles from the plain-data options. *)
let session_for options = Session.create ~options:(worker_options options) ()

(* The one per-program check behind every batch row, in process or in a
   worker: the session's checker, {!Dml_infer.Engine.check}. *)
let check_one session target =
  match target.tg_source with
  | Error msg -> Error msg
  | Ok src -> (
      match Dml_infer.Engine.check session src with
      | Ok (rp, outcome) -> Ok (summarize ~inferred:(Option.is_some outcome) rp)
      | Error f -> Error (Pipeline.failure_to_string f))

(* Test-only fault injection, keyed by program name through the environment
   (the variables survive the fork): lets the oracle tests provoke a worker
   crash or hang on one specific task without touching the checker. *)
let test_injection name =
  (match Sys.getenv_opt "DML_PAR_TEST_CRASH" with
  | Some n when n = name -> Unix._exit 66
  | _ -> ());
  match Sys.getenv_opt "DML_PAR_TEST_HANG" with
  | Some n when n = name ->
      let rec hang () =
        Unix.sleep 3600;
        hang ()
      in
      hang ()
  | _ -> ()

(* Deterministic degradation strings: no pid, signal number or timing may
   leak into a row, or [-j N] output would not be byte-stable. *)
let error_of_pool_failure = function
  | Pool.Exception msg -> "internal error: " ^ msg
  | Pool.Crashed _ -> "worker crashed"
  | Pool.Timed_out _ -> "worker timed out"

(* ------------------------------------------------------------------ *)
(* Pooled batches: one task = one whole program                       *)
(* ------------------------------------------------------------------ *)

let run_pooled ~jobs ?task_timeout_ms (options : Session.options) targets =
  (* Each worker builds its own cache on first use *after* the fork, from
     the shared [op_cache] config: the memo LRU is private per process,
     while a [dir]'s verdict log is shared through its [O_APPEND] writes. *)
  let worker_session = lazy (session_for options) in
  let worker target =
    test_injection target.tg_name;
    check_one (Lazy.force worker_session) target
  in
  let outcomes = Pool.run ~jobs ?task_timeout_ms ~worker targets in
  List.map2
    (fun target outcome ->
      {
        row_name = target.tg_name;
        row_result =
          (match outcome with
          | Ok r -> r
          | Error e -> Error (error_of_pool_failure e));
      })
    targets outcomes

(* ------------------------------------------------------------------ *)
(* Front door                                                          *)
(* ------------------------------------------------------------------ *)

let mode_of options =
  match options.Session.op_jobs with
  | None -> Sequential
  | Some 0 -> Workers (Pool.cpu_count ())
  | Some n -> Workers n

let jobs_label options =
  match mode_of options with Sequential -> "" | Workers n -> Printf.sprintf "; jobs=%d" n

let check_targets_s ?task_timeout_ms ?session (options : Session.options) targets =
  match mode_of options with
  | Sequential ->
      let session = match session with Some s -> s | None -> session_for options in
      List.map (fun t -> { row_name = t.tg_name; row_result = check_one session t }) targets
  | Workers jobs -> run_pooled ~jobs ?task_timeout_ms options targets

(* ------------------------------------------------------------------ *)
(* The dml-batch document                                              *)
(* ------------------------------------------------------------------ *)

type aggregate = {
  ag_programs : int;
  ag_failed : int;
  ag_constraints : int;
  ag_goals : int;
  ag_residual : int;
  ag_solver_calls : int;
  ag_cache_hits : int;
  ag_cache_misses : int;
  ag_solve_s : float;
  ag_lookup_s : float;
}

let aggregate rows =
  let ok = List.filter_map (fun r -> Result.to_option r.row_result) rows in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 ok in
  let sumf f = List.fold_left (fun acc s -> acc +. f s) 0. ok in
  {
    ag_programs = List.length rows;
    ag_failed = List.length rows - List.length ok;
    ag_constraints = sum (fun s -> s.sm_constraints);
    ag_goals = sum (fun s -> s.sm_goals);
    ag_residual = sum (fun s -> s.sm_residual);
    (* a goal that was not a cache hit went to the solver: without a cache
       that is every goal *)
    ag_solver_calls = sum (fun s -> s.sm_goals - s.sm_cache_hits);
    ag_cache_hits = sum (fun s -> s.sm_cache_hits);
    ag_cache_misses = sum (fun s -> s.sm_cache_misses);
    ag_solve_s = sumf (fun s -> s.sm_solve_s);
    ag_lookup_s = sumf (fun s -> s.sm_lookup_s);
  }

let hit_rate_pct a =
  if a.ag_goals = 0 then 0. else 100. *. float_of_int a.ag_cache_hits /. float_of_int a.ag_goals

(* Without [profile], only schedule-independent fields: verdict-derived
   counts, never times, cache hit rates or worker identities.  This is what
   makes the document byte-identical across in-process / [-j 1] / [-j N]. *)
let row_json ?(profile = false) r =
  match r.row_result with
  | Ok s ->
      Json.Obj
        ([
           ("program", Json.String r.row_name);
           ("valid", Json.Bool s.sm_valid);
           ("constraints", Json.Int s.sm_constraints);
           ("goals", Json.Int s.sm_goals);
           ("residual", Json.Int s.sm_residual);
         ]
        (* only under --infer: pre-inference dml-batch/1 rows stay
           byte-identical *)
        @ (if s.sm_inferred then [ ("inferred", Json.Bool true) ] else [])
        @
        if profile then
          [
            ("cache_hits", Json.Int s.sm_cache_hits);
            ("cache_misses", Json.Int s.sm_cache_misses);
            ("solve_s", Json.Float s.sm_solve_s);
            ("gen_s", Json.Float s.sm_gen_s);
          ]
        else [])
  | Error e -> Json.Obj [ ("program", Json.String r.row_name); ("error", Json.String e) ]

let rows_json ?profile rows = List.map (row_json ?profile) rows

let aggregate_json ~profile rows =
  let a = aggregate rows in
  Json.Obj
    ([
       ("programs", Json.Int a.ag_programs);
       ("failed", Json.Int a.ag_failed);
       ("constraints", Json.Int a.ag_constraints);
       ("goals", Json.Int a.ag_goals);
       ("residual", Json.Int a.ag_residual);
     ]
    @
    if profile then
      [
        ("solver_calls", Json.Int a.ag_solver_calls);
        ("cache_hits", Json.Int a.ag_cache_hits);
        ("cache_misses", Json.Int a.ag_cache_misses);
        ("hit_rate_pct", Json.Float (hit_rate_pct a));
        ("solve_s", Json.Float a.ag_solve_s);
        ("lookup_s", Json.Float a.ag_lookup_s);
      ]
    else [])

let batch_json ?(profile = false) ?(extra = []) ~options ~passes () =
  (* only under --infer: every pre-inference document keeps its schema *)
  let schema = if options.Session.op_infer then "dml-batch/2" else "dml-batch/1" in
  Json.Obj
    ([
      ("schema", Json.String schema);
      ( "passes",
        Json.List
          (List.mapi
             (fun i rows ->
               Json.Obj
                 [
                   ("pass", Json.Int (i + 1));
                   ("programs", Json.List (rows_json ~profile rows));
                   ("aggregate", aggregate_json ~profile rows);
                 ])
             passes) );
    ]
    @ extra)
