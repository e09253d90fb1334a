(* Golden verdicts for the corpus: every program of Programs.all (the
   Table 1 rows and the listings), checked under `fm` and `fm-plain` with
   an unlimited budget, recorded obligation by obligation as location,
   verdict slug and hint.  A solver fast path may change how much work a
   verdict costs, never the verdict or its counterexample hint, so this
   file must pass unchanged across such changes.  Both arithmetic lanes
   are held to the same file: the native lane through the session pipeline
   every front end uses, the bignum lane (the overflow fallback and the
   reference) by deciding each front-end obligation with
   [Solver.check_constraint ~lane:Lane_bignum].

   Regenerating after an intentional change to verdicts or hints:
     DML_VERDICTS_GOLDEN=$PWD/test/solver_verdicts_golden.json \
       dune exec test/test_verdicts_golden.exe *)

open Dml_core
open Dml_solver
module J = Dml_obs.Json
module Pr = Dml_programs.Programs

let methods = [ Solver.Fm_tightened; Solver.Fm_plain ]

let obligation_json ((ob : Elab.obligation), verdict) =
  let hint =
    match verdict with
    | Solver.Valid -> J.Null
    | Solver.Not_valid m | Solver.Unsupported m | Solver.Timeout m -> J.String m
  in
  J.Obj
    [
      ("loc", J.String (Format.asprintf "%a" Dml_lang.Loc.pp ob.Elab.ob_loc));
      ("verdict", J.String (Solver.verdict_slug verdict));
      ("hint", hint);
    ]

(* (obligation, verdict) pairs in generation order, on the given lane *)
let verdicts ~lane method_ (b : Pr.benchmark) =
  let fail f = Alcotest.failf "%s: %s" b.Pr.name (Pipeline.failure_to_string f) in
  match lane with
  | Solver.Lane_native -> (
      let options =
        {
          Session.default_options with
          Session.op_solve = { Session.default_solve_config with Session.sc_method = method_ };
        }
      in
      match Pipeline.check_s (Session.create ~options ()) b.Pr.source with
      | Ok r ->
          List.map
            (fun co -> (co.Pipeline.co_obligation, co.Pipeline.co_verdict))
            r.Pipeline.rp_obligations
      | Error f -> fail f)
  | Solver.Lane_bignum -> (
      match Pipeline.frontend b.Pr.source with
      | Ok fe ->
          List.map
            (fun ob ->
              (ob, Solver.check_constraint ~method_ ~lane:Solver.Lane_bignum ob.Elab.ob_constr))
            fe.Pipeline.fe_obligations
      | Error f -> fail f)

let program_json ~lane method_ (b : Pr.benchmark) =
  J.Obj
    [
      ("program", J.String b.Pr.name);
      ("method", J.String (Solver.method_slug method_));
      ("obligations", J.List (List.map obligation_json (verdicts ~lane method_ b)));
    ]

let document ~lane =
  J.Obj
    [
      ("schema", J.String "dml-verdicts/1");
      ( "runs",
        J.List (List.concat_map (fun m -> List.map (program_json ~lane m) Pr.all) methods) );
    ]

let golden_path () =
  if Sys.file_exists "solver_verdicts_golden.json" then "solver_verdicts_golden.json"
  else "test/solver_verdicts_golden.json"

let read_golden () =
  let ic = open_in (golden_path ()) in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.of_string raw with
  | Ok v -> v
  | Error msg -> Alcotest.fail ("golden file does not parse: " ^ msg)

let test_lane lane () =
  let got = document ~lane in
  match Sys.getenv_opt "DML_VERDICTS_GOLDEN" with
  | Some out when lane = Solver.Lane_native -> (
      match J.write_file out got with
      | Ok () -> print_endline ("wrote golden verdicts to " ^ out)
      | Error msg -> Alcotest.fail msg)
  | _ ->
      Alcotest.(check string)
        "verdicts and hints match the golden file"
        (J.to_string_pretty (read_golden ()))
        (J.to_string_pretty got)

let () =
  Alcotest.run "verdicts_golden"
    [
      ( "corpus",
        [
          Alcotest.test_case "native-first lane" `Quick (test_lane Solver.Lane_native);
          Alcotest.test_case "bignum lane" `Quick (test_lane Solver.Lane_bignum);
        ] );
    ]
