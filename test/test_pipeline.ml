(* Pipeline-level behaviour: failure stages, metrics, solver selection,
   conservativity over plain ML, and diagnostics rendering. *)

open Dml_core
open Dml_solver
open Dml_eval

let session_of_method method_ =
  Session.create
    ~options:
      {
        Session.default_options with
        Session.op_solve = { Session.default_solve_config with Session.sc_method = method_ };
      }
    ()

let check src = Pipeline.check_s (Session.create ()) src

let stage src =
  match check src with
  | Error f -> Some f.Pipeline.f_stage
  | Ok _ -> None

let test_failure_stages () =
  Alcotest.(check bool) "lex" true (stage "val x = $" = Some `Lex);
  Alcotest.(check bool) "oversized literal" true (stage "val x = 99999999999999999999" = Some `Lex);
  Alcotest.(check bool) "parse" true (stage "val x = " = Some `Parse);
  Alcotest.(check bool) "mltype" true (stage "val x = 1 + true" = Some `Mltype);
  Alcotest.(check bool) "elab" true
    (stage "fun f(x) = x where f <| int(zz) -> int" = Some `Elab);
  Alcotest.(check bool) "well-typed" true (stage "val x = 1 + 1" = None)

let test_metrics () =
  match check Dml_programs.Sources.bsearch with
  | Error f -> Alcotest.failf "bsearch: %s" (Pipeline.failure_to_string f)
  | Ok r ->
      Alcotest.(check bool) "constraints counted" true (r.Pipeline.rp_constraints >= 5);
      Alcotest.(check bool) "annotations counted" true (r.Pipeline.rp_annotations >= 3);
      Alcotest.(check bool) "annotation lines counted" true
        (r.Pipeline.rp_annotation_lines >= r.Pipeline.rp_annotations - 1);
      Alcotest.(check bool) "code lines counted" true (r.Pipeline.rp_code_lines >= 20);
      Alcotest.(check bool) "times non-negative" true
        (r.Pipeline.rp_gen_time >= 0. && r.Pipeline.rp_solve_time >= 0.)

let test_solver_selection () =
  (* bcopy is provable only with the integral tightening rule *)
  let valid method_ =
    match Pipeline.check_s (session_of_method method_) Dml_programs.Sources.bcopy with
    | Ok r -> r.Pipeline.rp_valid
    | Error f -> Alcotest.failf "bcopy: %s" (Pipeline.failure_to_string f)
  in
  Alcotest.(check bool) "tightened proves bcopy" true (valid Solver.Fm_tightened);
  Alcotest.(check bool) "plain FM does not" false (valid Solver.Fm_plain);
  Alcotest.(check bool) "simplex does not" false (valid Solver.Simplex_rational);
  (* binary search is provable by all three (its goals are rational) *)
  let bsearch_valid method_ =
    match Pipeline.check_s (session_of_method method_) Dml_programs.Sources.bsearch with
    | Ok r -> r.Pipeline.rp_valid
    | Error _ -> false
  in
  Alcotest.(check bool) "bsearch fm" true (bsearch_valid Solver.Fm_tightened);
  Alcotest.(check bool) "bsearch simplex" true (bsearch_valid Solver.Simplex_rational)

(* Conservativity: a program whose annotations are stripped evaluates to the
   same results (Section 1: programs "will elaborate and evaluate exactly as
   in ML"). *)
let test_conservativity () =
  let annotated =
    {|
fun sumto(n) = let
  fun loop(i, acc) = if i > n then acc else loop(i+1, acc + i)
  where loop <| int * int -> int
in loop(0, 0) end
where sumto <| int -> int
val r = sumto(100)
|}
  in
  let plain =
    {|
fun sumto(n) = let
  fun loop(i, acc) = if i > n then acc else loop(i+1, acc + i)
in loop(0, 0) end
val r = sumto(100)
|}
  in
  let eval src =
    match Pipeline.check_valid_s (Session.create ()) src with
    | Error msg -> Alcotest.fail msg
    | Ok r ->
        let ce = Compile.initial_fast Prims.Checked () in
        let ce = Compile.run_program ce r.Pipeline.rp_tprog in
        Compile.lookup ce "r"
  in
  Alcotest.(check bool) "same result" true (Value.equal (eval annotated) (eval plain));
  Alcotest.(check bool) "5050" true (Value.equal (eval plain) (Value.Vint 5050))

let test_diagnose_excerpt () =
  let src = {|
val a = array(3, 0)
val x = sub(a, 5)
|} in
  match check src with
  | Error f -> Alcotest.failf "unexpected failure: %s" (Pipeline.failure_to_string f)
  | Ok r ->
      Alcotest.(check bool) "invalid" false r.Pipeline.rp_valid;
      let rendered = Diagnose.render_report ~src r in
      let contains needle =
        let rec go i =
          i + String.length needle <= String.length rendered
          && (String.sub rendered i (String.length needle) = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "shows the source line" true (contains "sub(a, 5)");
      Alcotest.(check bool) "has a caret line" true (contains "^^^");
      Alcotest.(check bool) "names the check" true (contains "bound check for sub");
      Alcotest.(check bool) "offers a hint" true (contains "hint:")

let test_diagnose_static_failure () =
  let src = "val x = mystery" in
  match check src with
  | Ok _ -> Alcotest.fail "expected a failure"
  | Error f ->
      let rendered = Diagnose.render_failure ~src f in
      Alcotest.(check bool) "mentions the variable" true
        (String.length rendered > 0
        &&
        let rec go i =
          i + 7 <= String.length rendered
          && (String.sub rendered i 7 = "mystery" || go (i + 1))
        in
        go 0)

let test_user_program_isolation () =
  (* the user-only typed AST excludes the basis *)
  match check "val x = 1" with
  | Error f -> Alcotest.failf "%s" (Pipeline.failure_to_string f)
  | Ok r ->
      Alcotest.(check int) "one user top" 1 (List.length r.Pipeline.rp_user_tprog);
      Alcotest.(check bool) "basis included in full program" true
        (List.length r.Pipeline.rp_tprog > 1)

let test_shadowing_and_scopes () =
  (* index variable shadowing across nested annotations resolves innermost *)
  match
    Pipeline.check_valid_s (Session.create ())
      {|
fun outer(a) = let
  fun inner(b) = let
    fun deepest(i) = if 0 <= i andalso i < length b then sub(b, i) else 0
    where deepest <| int -> int
  in deepest(0) end
  where inner <| {n:nat} int array(n) -> int
in inner(a) end
where outer <| {n:nat} int array(n) -> int
|}
  with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

let test_higher_order_dependent_argument () =
  (* passing the dependent primitive itself as a function argument *)
  match
    Pipeline.check_valid_s (Session.create ())
      {|
fun apply2 f (a, i) = f(a, i)
where apply2 <| ('a array * int -> 'a) -> 'a array * int -> 'a
val r = apply2 subCK (array(3, 7), 1)
|}
  with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

let test_mutual_recursion_with_where () =
  match
    Pipeline.check_valid_s (Session.create ())
      {|
fun evenlen(nil) = true
  | evenlen(_ :: xs) = oddlen(xs)
and oddlen(nil) = false
  | oddlen(_ :: xs) = evenlen(xs)
where oddlen <| {n:nat} 'a list(n) -> bool
|}
  with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

(* --- the basis prelude ------------------------------------------------------ *)

(* The basis is processed once per process; each check must still see only
   its own warnings, however many checks ran before it. *)
let nonexhaustive = {|
datatype t = A | B
fun f(x) = case x of A => 1
|}

let test_warnings_per_check () =
  let warnings () =
    match check nonexhaustive with
    | Ok r -> List.map (fun (msg, loc) -> msg ^ " @ " ^ Dml_lang.Loc.to_string loc) r.Pipeline.rp_warnings
    | Error f -> Alcotest.fail (Pipeline.failure_to_string f)
  in
  let first = warnings () in
  Alcotest.(check int) "one warning" 1 (List.length first);
  Alcotest.(check (list string)) "second check, same warnings" first (warnings ())

(* Reference front end built from public calls, with the basis re-parsed
   and run through the same phases as the user program, in one pass. *)
let reference_obligations src =
  let open Dml_mltype in
  let prog = Dml_lang.Parser.parse_program Basis.source @ Dml_lang.Parser.parse_program src in
  let mlenv, tprog = Infer.infer_program (Infer.initial Tyenv.builtin []) prog in
  (Elab.elaborate (Denv.builtin mlenv.Infer.tyenv) tprog).Elab.res_obligations

let describe (ob : Elab.obligation) =
  Printf.sprintf "%s @ %s: %s" ob.ob_what (Dml_lang.Loc.to_string ob.ob_loc)
    (Dml_constr.Constr.to_string ob.ob_constr)

let test_prelude_matches_one_pass () =
  List.iter
    (fun (b : Dml_programs.Programs.benchmark) ->
      let reference = reference_obligations b.source in
      (match Pipeline.frontend b.source with
      | Ok fe ->
          Alcotest.(check (list string)) (b.name ^ ": obligations")
            (List.map describe reference) (List.map describe fe.Pipeline.fe_obligations)
      | Error f -> Alcotest.fail (Pipeline.failure_to_string f));
      (* the reference solve: the solver called directly, under the
         default session's method and without a budget or cache *)
      let stats = Solver.new_stats () in
      let verdicts =
        List.map
          (fun (ob : Elab.obligation) ->
            Solver.check_constraint ~method_:Session.default_solve_config.Session.sc_method
              ~stats ob.ob_constr)
          reference
      in
      match Pipeline.check_s (Session.create ()) b.source with
      | Ok r ->
          Alcotest.(check bool) (b.name ^ ": verdicts") true
            (verdicts = List.map (fun co -> co.Pipeline.co_verdict) r.Pipeline.rp_obligations);
          let untimed s = { s with Solver.solve_time = 0. } in
          Alcotest.(check bool) (b.name ^ ": solver stats") true
            (untimed stats = untimed r.Pipeline.rp_solver_stats)
      | Error f -> Alcotest.fail (Pipeline.failure_to_string f))
    Dml_programs.Programs.all

(* [code_lines] counts the lines holding anything but spaces, tabs and
   carriage returns; this is its definition, checked against the one-pass
   counter on the corpus and on random text. *)
let test_count_code_lines () =
  let reference src =
    String.split_on_char '\n' src
    |> List.filter (String.exists (fun c -> c <> ' ' && c <> '\t' && c <> '\r'))
    |> List.length
  in
  let check src =
    Alcotest.(check int) (String.escaped src) (reference src) (Pipeline.count_code_lines src)
  in
  List.iter check [ ""; "\n"; "x"; "x\n"; "\nx"; " \t\r\n\r"; "a\n\n b \n" ];
  List.iter (fun b -> check b.Dml_programs.Programs.source) Dml_programs.Programs.all;
  let rand = Random.State.make [| 0x10c |] in
  for _ = 1 to 2000 do
    check (String.init (Random.State.int rand 24) (fun _ -> " \t\r\nab".[Random.State.int rand 6]))
  done

(* Every surface runs its check through the one driver: a plain check, an
   inferred check and an incremental recheck each leave exactly one root
   [check] span carrying the plain check's attributes, count once in
   [pipeline.runs] and add their constraints to [pipeline.obligations].
   A front-end failure is counted and marked the same way. *)
let test_one_driver_every_surface () =
  let module Metrics = Dml_obs.Metrics in
  let module Trace = Dml_obs.Trace in
  let module J = Dml_obs.Json in
  let runs = Metrics.counter "pipeline.runs"
  and obligations = Metrics.counter "pipeline.obligations"
  and failures = Metrics.counter "pipeline.failures" in
  let root what sk =
    match Trace.roots sk with
    | [ sp ] ->
        Alcotest.(check string) (what ^ ": root span") "check" (Trace.span_name sp);
        Option.value ~default:J.Null (J.member "attrs" (Trace.span_to_json sp))
    | rs -> Alcotest.failf "%s: expected one root span, got %d" what (List.length rs)
  in
  let surface what check =
    let sk = Trace.create_sink () in
    let session = Session.create ~sink:sk () in
    let runs0 = Metrics.value runs and obligations0 = Metrics.value obligations in
    match check session with
    | Error f -> Alcotest.failf "%s: %s" what (Pipeline.failure_to_string f)
    | Ok (r : Pipeline.report) ->
        Alcotest.(check int) (what ^ ": pipeline.runs") 1 (Metrics.value runs - runs0);
        Alcotest.(check int) (what ^ ": pipeline.obligations") r.rp_constraints
          (Metrics.value obligations - obligations0);
        Alcotest.(check string) (what ^ ": check attributes")
          (J.to_string
             (J.Obj
                [
                  ("valid", J.Bool r.rp_valid);
                  ("constraints", J.Int r.rp_constraints);
                  ("residual", J.Int r.rp_residual);
                ]))
          (J.to_string (root what sk));
        J.to_string (root what sk)
  in
  let dotprod = Option.get (Dml_programs.Programs.find "dotprod") in
  let src = dotprod.Dml_programs.Programs.source in
  let plain = surface "plain" (fun s -> Pipeline.check_s s src) in
  let incremental =
    surface "incremental" (fun s -> Result.map fst (Incr.check (Incr.create ()) s src))
  in
  Alcotest.(check string) "incremental attributes equal the plain check's" plain incremental;
  let twin = Dml_programs.Programs.unannotated dotprod in
  ignore
    (surface "inferred" (fun s ->
         Result.map (fun oc -> oc.Dml_infer.Engine.oc_report) (Dml_infer.Engine.check_s s twin)));
  List.iter
    (fun (what, check) ->
      let sk = Trace.create_sink () in
      let session = Session.create ~sink:sk () in
      let runs0 = Metrics.value runs and failures0 = Metrics.value failures in
      Alcotest.(check bool) (what ^ ": fails") true (Result.is_error (check session));
      Alcotest.(check int) (what ^ ": pipeline.runs") 1 (Metrics.value runs - runs0);
      Alcotest.(check int) (what ^ ": pipeline.failures") 1 (Metrics.value failures - failures0);
      Alcotest.(check string) (what ^ ": failure attribute") {|{"failure":"syntax error"}|}
        (J.to_string (root what sk)))
    [
      ("plain failure", fun s -> Result.map ignore (Pipeline.check_s s "val = ;"));
      ( "incremental failure",
        fun s -> Result.map ignore (Incr.check (Incr.create ()) s "val = ;") );
      ("inferred failure", fun s -> Result.map ignore (Dml_infer.Engine.check_s s "val = ;"));
    ]

let () =
  Alcotest.run "pipeline"
    [
      ( "stages",
        [
          Alcotest.test_case "failure stages" `Quick test_failure_stages;
          Alcotest.test_case "metrics" `Quick test_metrics;
          Alcotest.test_case "code lines" `Quick test_count_code_lines;
          Alcotest.test_case "solver selection" `Quick test_solver_selection;
          Alcotest.test_case "user program isolation" `Quick test_user_program_isolation;
          Alcotest.test_case "one driver on every surface" `Quick test_one_driver_every_surface;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "conservativity" `Quick test_conservativity;
          Alcotest.test_case "scoped annotations" `Quick test_shadowing_and_scopes;
          Alcotest.test_case "higher-order dependent argument" `Quick
            test_higher_order_dependent_argument;
          Alcotest.test_case "mutual recursion with where" `Quick
            test_mutual_recursion_with_where;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "excerpt rendering" `Quick test_diagnose_excerpt;
          Alcotest.test_case "static failure rendering" `Quick test_diagnose_static_failure;
        ] );
      ( "prelude",
        [
          Alcotest.test_case "warnings are per check" `Quick test_warnings_per_check;
          Alcotest.test_case "same as a one-pass basis" `Quick test_prelude_matches_one_pass;
        ] );
    ]
