(* Resource-governed solving and graceful degradation: budget exhaustion
   yields Timeout (never a hang), and degraded compilation keeps a dynamic
   check at exactly the unproven sites. *)

open Dml_index
open Dml_constr
open Dml_solver
open Dml_core
open Dml_eval
open Idx

let v = Ivar.fresh
let eq a b = Bcmp (Req, a, b)
let le a b = Bcmp (Rle, a, b)
let goal vars hyps concl = { Constr.goal_vars = vars; goal_hyps = hyps; goal_concl = concl }

let is_timeout = function Solver.Timeout _ -> true | _ -> false

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* k hypotheses of the form [x = i \/ x = i + k]: the negation formula's DNF
   has 2^k disjuncts, far past any reasonable fuel allowance. *)
let dnf_blowup_goal k =
  let x = v "x" in
  let hyps = List.init k (fun i -> Bor (eq (Ivar x) (Iconst i), eq (Ivar x) (Iconst (i + k)))) in
  goal [ (x, Sint) ] hyps (le (Ivar x) (Iconst (-1)))

(* A dense difference system over n variables: Fourier elimination keeps
   combining upper and lower bounds pair by pair. *)
let fourier_dense_goal n =
  let xs = Array.init n (fun i -> v (Printf.sprintf "x%d" i)) in
  let hyps = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        hyps :=
          le (Isub (Ivar xs.(i), Ivar xs.(j))) (Iconst ((i * j) mod 7))
          :: !hyps
    done
  done;
  goal
    (Array.to_list (Array.map (fun x -> (x, Sint)) xs))
    !hyps
    (le (Ivar xs.(0)) (Iconst (-100)))

let test_fuel_timeout () =
  let t0 = Budget.now () in
  let budget = Budget.create ~fuel:200 () in
  let verdict = Solver.check_goal ~budget (dnf_blowup_goal 18) in
  let elapsed = Budget.now () -. t0 in
  Alcotest.(check bool)
    (Format.asprintf "fuel-bounded DNF blowup times out (got %a)" Solver.pp_verdict verdict)
    true (is_timeout verdict);
  Alcotest.(check bool) "returns promptly" true (elapsed < 10.)

let test_deadline_timeout () =
  (* an already-expired deadline: the first poll raises, whatever the goal *)
  let budget = Budget.create ~timeout_ms:0 () in
  let verdict = Solver.check_goal ~budget (fourier_dense_goal 8) in
  Alcotest.(check bool)
    (Format.asprintf "expired deadline times out (got %a)" Solver.pp_verdict verdict)
    true (is_timeout verdict);
  match verdict with
  | Solver.Timeout msg ->
      Alcotest.(check bool) "mentions the deadline" true
        (String.length msg > 0 && String.lowercase_ascii msg = "deadline exceeded")
  | _ -> ()

let test_elimination_limit () =
  let budget = Budget.create ~max_eliminations:1 () in
  let verdict = Solver.check_goal ~budget (fourier_dense_goal 6) in
  Alcotest.(check bool)
    (Format.asprintf "elimination-bounded solve times out (got %a)" Solver.pp_verdict verdict)
    true (is_timeout verdict)

let test_unbudgeted_still_works () =
  (* without a budget the blowup is cut off by the DNF size cap, reported as
     Unsupported — and small goals are entirely unaffected *)
  (match Solver.check_goal (dnf_blowup_goal 18) with
  | Solver.Unsupported _ | Solver.Timeout _ -> ()
  | other -> Alcotest.failf "expected a cutoff, got %a" Solver.pp_verdict other);
  let n = v "n" in
  match
    Solver.check_goal ~budget:(Budget.unlimited ())
      (goal [ (n, Sint) ] [ Bcmp (Rge, Ivar n, Iconst 3) ] (Bcmp (Rge, Ivar n, Iconst 1)))
  with
  | Solver.Valid -> ()
  | other -> Alcotest.failf "unlimited budget broke a tautology: %a" Solver.pp_verdict other

(* [k] hypotheses [x_i = 0 \/ x_i = 1] (2^k disjuncts) and the conclusion
   [\/_{i<m} (y_i = 0 /\ y_i = 1)], whose negation has 4^m: each factor
   alone is within the DNF cap, their product is not.  At 14 x 5 the
   product has 2^24 disjuncts, more than the heap of a small process. *)
let dnf_product_goal k m =
  let xs = List.init k (fun i -> v (Printf.sprintf "x%d" i)) in
  let ys = List.init m (fun i -> v (Printf.sprintf "y%d" i)) in
  let hyps = List.map (fun x -> Bor (eq (Ivar x) (Iconst 0), eq (Ivar x) (Iconst 1))) xs in
  let concl =
    List.fold_left
      (fun acc y -> Bor (acc, Band (eq (Ivar y) (Iconst 0), eq (Ivar y) (Iconst 1))))
      (Bconst false) ys
  in
  goal (List.map (fun x -> (x, Sint)) (xs @ ys)) hyps concl

let test_dnf_product_capped () =
  let timed f =
    let t0 = Budget.now () in
    let verdict = f () in
    Alcotest.(check bool) "returns promptly" true (Budget.now () -. t0 < 10.);
    verdict
  in
  (match timed (fun () -> Solver.check_goal (dnf_product_goal 14 5)) with
  | Solver.Unsupported "constraint normal form too large" -> ()
  | other -> Alcotest.failf "unbudgeted: expected the DNF cap, got %a" Solver.pp_verdict other);
  let budget = Budget.create ~fuel:200 () in
  match timed (fun () -> Solver.check_goal ~budget (dnf_product_goal 14 5)) with
  | Solver.Timeout _ -> ()
  | other -> Alcotest.failf "fuel 200: expected a timeout, got %a" Solver.pp_verdict other

(* --- per-obligation isolation through the pipeline ----------------------- *)

let test_pipeline_budget_isolation () =
  (* zero fuel: obligations that need any solving work time out, each under
     its own budget; the pipeline still classifies every obligation *)
  let config = { Session.default_solve_config with Session.sc_fuel = Some 0 } in
  match Pipeline.check_s (Session.create ~options:{ Session.default_options with Session.op_solve = config } ()) Dml_programs.Sources.bsearch with
  | Error f -> Alcotest.failf "bsearch: %s" (Pipeline.failure_to_string f)
  | Ok r ->
      Alcotest.(check bool) "not fully valid under zero fuel" false r.Pipeline.rp_valid;
      Alcotest.(check bool) "timeouts observed" true (r.Pipeline.rp_timeouts > 0);
      Alcotest.(check int) "residual = unproven" r.Pipeline.rp_residual
        (List.length (Pipeline.unproven r));
      Alcotest.(check int) "every obligation got a verdict" r.Pipeline.rp_constraints
        (List.length r.Pipeline.rp_obligations)

(* --- graceful degradation ------------------------------------------------ *)

let partial_src =
  {|
fun get(a, i) = sub(a, i)
where get <| int array * int -> int

val a = array(4, 7)
val ok = get(a, 2)
val safe = sub(a, 1)
val caught = (get(a, 9) handle Subscript => ~1)
|}

let partial_report () =
  match Pipeline.check_s (Session.create ()) partial_src with
  | Error f -> Alcotest.failf "partial program: %s" (Pipeline.failure_to_string f)
  | Ok r -> r

let test_degraded_sites () =
  let r = partial_report () in
  Alcotest.(check bool) "has residue" false r.Pipeline.rp_valid;
  Alcotest.(check int) "exactly one unproven site" 1 r.Pipeline.rp_residual;
  let pred = Pipeline.degraded_pred r in
  Alcotest.(check int) "one degraded location" 1
    (List.length (Pipeline.degraded_sites r));
  List.iter
    (fun loc -> Alcotest.(check bool) "pred matches its own sites" true (pred loc))
    (Pipeline.degraded_sites r)

let test_degraded_compile () =
  let r = partial_report () in
  let counters = Prims.new_counters () in
  let degraded = Pipeline.degraded_pred r in
  let ce = Compile.initial_fast Prims.Unchecked ~counters ~degraded () in
  let ce = Compile.run_program ce r.Pipeline.rp_tprog in
  (* values are right, including the out-of-bounds call at the degraded
     site, which the residual check turns into Subscript *)
  Alcotest.(check bool) "ok = 7" true (Compile.lookup ce "ok" = Value.Vint 7);
  Alcotest.(check bool) "safe = 7" true (Compile.lookup ce "safe" = Value.Vint 7);
  Alcotest.(check bool) "caught = -1" true (Compile.lookup ce "caught" = Value.Vint (-1));
  (* get ran twice through its checked sub; safe's proven sub stayed
     unchecked *)
  Alcotest.(check int) "residual checks executed" 2 counters.Prims.dynamic_checks;
  Alcotest.(check bool) "proven accesses uncounted" true
    (counters.Prims.eliminated_checks >= 1)

let test_degraded_cost_model () =
  let r = partial_report () in
  let counters = Prims.new_counters () in
  let degraded = Pipeline.degraded_pred r in
  let ce = Compile.initial_costed ~degraded Prims.Unchecked counters in
  let ce = Compile.run_program ce r.Pipeline.rp_tprog in
  Alcotest.(check bool) "ok = 7" true (Compile.lookup ce "ok" = Value.Vint 7);
  Alcotest.(check bool) "caught = -1" true (Compile.lookup ce "caught" = Value.Vint (-1));
  Alcotest.(check int) "residual checks counted" 2 counters.Prims.dynamic_checks;
  Alcotest.(check bool) "residual checks cost cycles" true (counters.Prims.cycles > 0)

let test_fully_proven_unaffected () =
  (* a fully proven program has no degraded site: the predicate is constant
     false and unchecked compilation behaves exactly as before *)
  match Pipeline.check_s (Session.create ()) Dml_programs.Sources.bcopy with
  | Error f -> Alcotest.failf "bcopy: %s" (Pipeline.failure_to_string f)
  | Ok r ->
      Alcotest.(check bool) "bcopy proves" true r.Pipeline.rp_valid;
      Alcotest.(check int) "no degraded sites" 0 (List.length (Pipeline.degraded_sites r));
      let counters = Prims.new_counters () in
      let ce = Compile.initial_fast Prims.Unchecked ~counters ~degraded:(Pipeline.degraded_pred r) () in
      let _ce = Compile.run_program ce r.Pipeline.rp_tprog in
      Alcotest.(check int) "no dynamic checks in program body" 0
        counters.Prims.dynamic_checks

(* --- diagnostics rendering edge cases ------------------------------------ *)

let mkloc (l1, c1) (l2, c2) =
  Dml_lang.Loc.make { Dml_lang.Loc.line = l1; col = c1 } { Dml_lang.Loc.line = l2; col = c2 }

let test_excerpt_edges () =
  let src = "val x = 1\nval yy = 22\n" in
  let render loc =
    Diagnose.render_failure ~src
      { Pipeline.f_stage = `Parse; f_msg = "m"; f_loc = loc }
  in
  (* column beyond the end of the line: the caret row must not raise and must
     stay within one character past the text *)
  let r = render (mkloc (1, 50) (1, 60)) in
  Alcotest.(check bool) "past-eol renders" true (String.length r > 0);
  List.iter
    (fun line ->
      if String.length line >= 8 && String.sub line 0 8 = "       |" then
        Alcotest.(check bool) "caret row within line" true (String.length line <= 9 + 10))
    (String.split_on_char '\n' r);
  (* multi-line span: renders both lines, underlining the first *)
  let r = render (mkloc (1, 5) (2, 3)) in
  Alcotest.(check bool) "multi-line renders" true (String.length r > 0);
  Alcotest.(check bool) "second line shown" true
    (contains r "val yy");
  (* line beyond the file and the dummy location degrade to no excerpt *)
  ignore (render (mkloc (99, 1) (99, 2)));
  ignore (render Dml_lang.Loc.dummy);
  (* empty line under the caret *)
  let src2 = "\n\n" in
  ignore
    (Diagnose.render_failure ~src:src2
       { Pipeline.f_stage = `Parse; f_msg = "m"; f_loc = mkloc (1, 1) (1, 1) })

let test_degradation_rendering () =
  let r = partial_report () in
  let s = Diagnose.render_degradation ~src:partial_src r in
  Alcotest.(check bool) "names the unproven site" true
    (contains s "bound check for sub");
  Alcotest.(check bool) "says why" true
    (contains s "refuted or unprovable")

let () =
  Alcotest.run "budget"
    [
      ( "budget",
        [
          Alcotest.test_case "fuel exhaustion times out" `Quick test_fuel_timeout;
          Alcotest.test_case "expired deadline times out" `Quick test_deadline_timeout;
          Alcotest.test_case "elimination limit times out" `Quick test_elimination_limit;
          Alcotest.test_case "unbudgeted behaviour unchanged" `Quick test_unbudgeted_still_works;
          Alcotest.test_case "DNF product capped before it is built" `Quick test_dnf_product_capped;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "per-obligation isolation" `Quick test_pipeline_budget_isolation;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "degraded sites identified" `Quick test_degraded_sites;
          Alcotest.test_case "degraded compile is correct" `Quick test_degraded_compile;
          Alcotest.test_case "degraded cost model counts" `Quick test_degraded_cost_model;
          Alcotest.test_case "fully proven unaffected" `Quick test_fully_proven_unaffected;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "excerpt edge cases" `Quick test_excerpt_edges;
          Alcotest.test_case "degradation report" `Quick test_degradation_rendering;
        ] );
    ]
