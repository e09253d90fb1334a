open Dml_core
open Dml_eval

(* --- Table 1 -------------------------------------------------------------- *)

type t1_row = {
  t1_name : string;
  t1_constraints : int;
  t1_gen_s : float;
  t1_solve_s : float;
  t1_annotations : int;
  t1_annotation_lines : int;
  t1_code_lines : int;
  t1_inferred : (int, string) result option;
}

(* an ephemeral per-row session: table rows are deliberately checked cold,
   so one benchmark's verdicts never warm another's timings *)
let cold_session ~infer () =
  Session.create ~options:{ Session.default_options with Session.op_infer = infer } ()

let check_cold src = Pipeline.check_s (cold_session ~infer:false ()) src

(* Residual bound checks when the benchmark's *unannotated twin* is checked
   under qualifier inference, cold like the annotated row.  0 means parity
   with the annotated column (every site the annotations prove, inference
   proves too); an [Error] records a front-end failure or an abandoned
   fixpoint rather than disqualifying the annotated row. *)
let inferred_residual (b : Programs.benchmark) =
  match Dml_infer.Engine.check_s (cold_session ~infer:true ()) (Programs.unannotated b) with
  | Error f -> Error (Pipeline.failure_to_string f)
  | Ok oc -> (
      match oc.Dml_infer.Engine.oc_abandoned with
      | Some why -> Error ("abandoned: " ^ why)
      | None -> Ok oc.Dml_infer.Engine.oc_report.Pipeline.rp_residual)

let table1_row ~infer (b : Programs.benchmark) =
  match check_cold b.Programs.source with
  | Error f -> Error (Pipeline.failure_to_string f)
  | Ok r ->
      if not r.Pipeline.rp_valid then Error (b.Programs.name ^ ": unproven constraints")
      else
        Ok
          {
            t1_name = b.Programs.name;
            t1_constraints = r.Pipeline.rp_constraints;
            t1_gen_s = r.Pipeline.rp_gen_time;
            t1_solve_s = r.Pipeline.rp_solve_time;
            t1_annotations = r.Pipeline.rp_annotations;
            t1_annotation_lines = r.Pipeline.rp_annotation_lines;
            t1_code_lines = r.Pipeline.rp_code_lines;
            t1_inferred = (if infer then Some (inferred_residual b) else None);
          }

let table1 ?(infer = false) () = List.map (table1_row ~infer) Programs.table_benchmarks

(* --- Tables 2 and 3 --------------------------------------------------------- *)

type t23_row = {
  t23_name : string;
  t23_checked_s : float;  (* Mcycles for the cost-model backend *)
  t23_unchecked_s : float;
  t23_gain_pct : float;
  t23_eliminated : int;
  t23_residual : int;
}

(* re-exported for the timing regression tests *)
let time_pair = Backend.time_pair

let run_benchmark (backend : Backend.t) ~scale (b : Programs.benchmark) =
  match backend.Backend.b_available () with
  | Error msg -> Error (b.Programs.name ^ ": backend unavailable: " ^ msg)
  | Ok () -> (
      match check_cold b.Programs.source with
      | Error f -> Error (Pipeline.failure_to_string f)
      | Ok report -> (
          let tprog = report.Pipeline.rp_tprog in
          (* Partial credit: any unproven obligation degrades its own site to a
             checked access instead of disqualifying the whole benchmark, and the
             residual column counts the checks that survive. *)
          let rq =
            {
              Backend.rq_name = b.Programs.name;
              rq_tprog = tprog;
              rq_degraded = Pipeline.degraded report;
              rq_scale = scale;
              rq_run = b.Programs.run;
              rq_native_driver = Native_drivers.find b.Programs.name;
            }
          in
          try
            match backend.Backend.b_measure rq with
            | Error msg -> Error msg
            | Ok m ->
                let checked_s = m.Backend.ms_checked in
                let unchecked_s = m.Backend.ms_unchecked in
                let gain =
                  if checked_s > 0. then (checked_s -. unchecked_s) /. checked_s *. 100.
                  else 0.
                in
                Ok
                  {
                    t23_name = b.Programs.name;
                    t23_checked_s = checked_s;
                    t23_unchecked_s = unchecked_s;
                    t23_gain_pct = gain;
                    t23_eliminated = m.Backend.ms_eliminated;
                    t23_residual = m.Backend.ms_residual;
                  }
          with
          | Workloads.Verification_failure msg -> Error msg
          | Prims.Subscript -> Error (b.Programs.name ^ ": runtime Subscript")))

let table23 backend ~scale =
  List.map (run_benchmark backend ~scale) Programs.table_benchmarks

(* --- printing ------------------------------------------------------------------ *)

let print_table1_rows fmt rows =
  (* the inferred column appears only when some row carries it, so the
     default table stays byte-identical to the pre-inference output *)
  let with_inferred =
    List.exists (function Ok r -> r.t1_inferred <> None | Error _ -> false) rows
  in
  Format.fprintf fmt "Table 1: constraint generation/solution (cf. paper Table 1)@.";
  Format.fprintf fmt "%-14s %11s %9s %9s %7s %11s %10s%s@." "program" "constraints" "gen(s)"
    "solve(s)" "annots" "annot-lines" "code-lines"
    (if with_inferred then " infer-resid" else "");
  List.iter
    (fun row ->
      match row with
      | Error msg -> Format.fprintf fmt "ERROR: %s@." msg
      | Ok r ->
          let inferred =
            if not with_inferred then ""
            else
              match r.t1_inferred with
              | None -> Format.asprintf " %11s" "-"
              | Some (Ok n) -> Format.asprintf " %11d" n
              | Some (Error msg) -> Format.asprintf " %11s" ("ERR:" ^ msg)
          in
          Format.fprintf fmt "%-14s %11d %9.4f %9.4f %7d %11d %10d%s@." r.t1_name
            r.t1_constraints r.t1_gen_s r.t1_solve_s r.t1_annotations r.t1_annotation_lines
            r.t1_code_lines inferred)
    rows

let print_table23_rows fmt (backend : Backend.t) ~scale rows =
  Format.fprintf fmt "Table %s: effect of eliminating array bound checks@."
    backend.Backend.b_table;
  Format.fprintf fmt "backend: %s, scale: %d@." backend.Backend.b_name scale;
  let unit = backend.Backend.b_unit in
  Format.fprintf fmt "%-14s %12s %12s %7s %12s %10s@." "program" ("with(" ^ unit ^ ")")
    ("without(" ^ unit ^ ")") "gain" "eliminated" "residual";
  List.iter2
    (fun (b : Programs.benchmark) row ->
      match row with
      | Error msg -> Format.fprintf fmt "%-14s ERROR: %s@." b.Programs.name msg
      | Ok r ->
          let paper =
            match backend.Backend.b_paper with
            | Backend.Alpha -> b.Programs.paper_alpha
            | Backend.Sparc -> b.Programs.paper_sparc
          in
          let paper_gain =
            match paper.Programs.pr_gain with Some g -> " (paper: " ^ g ^ ")" | None -> ""
          in
          Format.fprintf fmt "%-14s %12.3f %12.3f %6.1f%% %12d %10d%s@." r.t23_name
            r.t23_checked_s r.t23_unchecked_s r.t23_gain_pct r.t23_eliminated r.t23_residual
            paper_gain)
    Programs.table_benchmarks rows
