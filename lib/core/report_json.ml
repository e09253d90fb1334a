open Dml_solver
module J = Dml_obs.Json

let json_of_fm (fm : Fourier.stats) =
  J.Obj
    ([
      ("eliminations", J.Int fm.Fourier.eliminations);
      ("combinations", J.Int fm.Fourier.combinations);
      ("max_constraints", J.Int fm.Fourier.max_constraints);
      ("max_coeff", J.String (Format.asprintf "%a" Dml_numeric.Bigint.pp fm.Fourier.max_coeff));
    ]
    (* emitted only when the opposed-pair pre-pass refuted a system, like
       [overflow_escalations] below *)
    @ (if fm.Fourier.pair_refuted > 0 then [ ("pair_refuted", J.Int fm.Fourier.pair_refuted) ]
       else []))

let solver_stats_to_json (s : Solver.stats) =
  J.Obj
    ([
       ("goals", J.Int s.Solver.checked_goals);
       ("disjuncts", J.Int s.Solver.disjuncts);
       ("solve_s", J.Float s.Solver.solve_time);
       ("timeouts", J.Int s.Solver.timeouts);
       ("cache_hits", J.Int s.Solver.cache_hits);
       ("cache_misses", J.Int s.Solver.cache_misses);
     ]
    (* emitted only when an overflow actually escalated, keeping the
       default report byte-stable: every goal in the paper corpus solves
       on the machine-int lane without overflowing *)
    @ (if s.Solver.overflow_escalations > 0 then
         [ ("overflow_escalations", J.Int s.Solver.overflow_escalations) ]
       else [])
    @ [ ("fm", json_of_fm s.Solver.fm) ])

let json_of_verdict v =
  match v with
  | Solver.Valid -> [ ("verdict", J.String "valid") ]
  | Solver.Not_valid m -> [ ("verdict", J.String "not-valid"); ("detail", J.String m) ]
  | Solver.Unsupported m -> [ ("verdict", J.String "unsupported"); ("detail", J.String m) ]
  | Solver.Timeout m -> [ ("verdict", J.String "timeout"); ("detail", J.String m) ]

let obligation_to_json (co : Pipeline.checked_obligation) =
  J.Obj
    ([
       ("what", J.String co.Pipeline.co_obligation.Elab.ob_what);
       ( "loc",
         J.String (Dml_lang.Loc.to_string co.Pipeline.co_obligation.Elab.ob_loc)
       );
     ]
    @ json_of_verdict co.Pipeline.co_verdict
    @ [ ("dur_s", J.Float co.Pipeline.co_time) ])

let of_report ?(schema = "dml-check/1") ~program ?(extra = []) (r : Pipeline.report) =
  J.Obj
    ([
       ("schema", J.String schema);
       ("program", J.String program);
       ("valid", J.Bool r.Pipeline.rp_valid);
       ("constraints", J.Int r.Pipeline.rp_constraints);
       ("residual", J.Int r.Pipeline.rp_residual);
       ("timeouts", J.Int r.Pipeline.rp_timeouts);
       ("gen_s", J.Float r.Pipeline.rp_gen_time);
       ("solve_s", J.Float r.Pipeline.rp_solve_time);
       ("annotations", J.Int r.Pipeline.rp_annotations);
       ("annotation_lines", J.Int r.Pipeline.rp_annotation_lines);
       ("code_lines", J.Int r.Pipeline.rp_code_lines);
       ( "warnings",
         J.List
           (List.map
              (fun (msg, loc) ->
                J.Obj
                  [
                    ("msg", J.String msg);
                    ("loc", J.String (Dml_lang.Loc.to_string loc));
                  ])
              r.Pipeline.rp_warnings) );
       ("obligations", J.List (List.map obligation_to_json r.Pipeline.rp_obligations));
       ("solver", solver_stats_to_json r.Pipeline.rp_solver_stats);
       ( "cache",
         match r.Pipeline.rp_cache_stats with
         | None -> J.Null
         | Some cs -> Dml_cache.Cache.snapshot_to_json cs );
     ]
    @ extra)

let stage_slug = function
  | `Lex -> "lex"
  | `Parse -> "parse"
  | `Mltype -> "mltype"
  | `Elab -> "elab"
  | `Internal -> "internal"

let failure_doc ~schema ~program ~extra fields =
  J.Obj
    ([
       ("schema", J.String schema);
       ("program", J.String program);
       ("valid", J.Bool false);
       ("failure", J.Obj fields);
     ]
    @ extra)

let of_failure ?(schema = "dml-check/1") ~program ?(extra = []) (f : Pipeline.failure) =
  failure_doc ~schema ~program ~extra
    [
      ("stage", J.String (stage_slug f.Pipeline.f_stage));
      ("stage_name", J.String (Pipeline.stage_name f.Pipeline.f_stage));
      ("msg", J.String f.Pipeline.f_msg);
      ("loc", J.String (Dml_lang.Loc.to_string f.Pipeline.f_loc));
    ]

let of_io_failure ?(schema = "dml-check/1") ~program ?(extra = []) msg =
  failure_doc ~schema ~program ~extra
    [
      ("stage", J.String "io");
      ("stage_name", J.String "input error");
      ("msg", J.String msg);
    ]

(* Durations and warm-cache counters.  Cache hit/miss figures are listed
   because against a long-lived shared cache they depend on which checks
   the cache served before this one — schedule state, not program
   semantics; verdicts are schedule-independent by the cache's soundness
   rules. *)
let schedule_dependent_fields =
  [
    "gen_s";
    "solve_s";
    "dur_s";
    "lookup_s";
    "persist_s";
    "start_s";
    "cache";
    "cache_hits";
    "cache_misses";
    "hits";
    "disk_hits";
    "misses";
    "stores";
    "evictions";
    "entries";
    "spans";
    "metrics";
  ]
