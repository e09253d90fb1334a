(* Quickstart: check and run the paper's Figure 1 (dot product).

   The public API in four steps:
   1. [Pipeline.check_s]   - parse, ML-infer, elaborate, solve constraints
   2. inspect obligations  - each constraint with its location and verdict
   3. build an evaluator   - checked or unchecked primitives
   4. call the program     - through ordinary OCaml values

   Run with: dune exec examples/quickstart.exe *)

open Dml_core
open Dml_eval

let source =
  {|
fun dotprod(v1, v2) = let
  fun loop(i, n, sum) =
    if i = n then sum
    else loop(i+1, n, sum + sub(v1, i) * sub(v2, i))
  where loop <| {n:nat | n <= p} {i:nat | i <= n} int(i) * int(n) * int -> int
in
  loop(0, length v1, 0)
end
where dotprod <| {p:nat} {q:nat | p <= q} int array(p) * int array(q) -> int
|}

let () =
  (* 1. the full checking pipeline *)
  let report =
    match Pipeline.check_s (Session.create ()) source with
    | Ok r -> r
    | Error f -> failwith (Pipeline.failure_to_string f)
  in
  Format.printf "== dependent type checking ==@.%a@.@." Pipeline.pp_report report;

  (* 2. the constraints the elaborator generated, with verdicts *)
  Format.printf "== generated constraints ==@.";
  List.iter
    (fun co ->
      Format.printf "[%a] %s@.    %a@." Dml_solver.Solver.pp_verdict co.Pipeline.co_verdict
        co.Pipeline.co_obligation.Elab.ob_what Dml_constr.Constr.pp
        co.Pipeline.co_obligation.Elab.ob_constr)
    report.Pipeline.rp_obligations;
  assert report.Pipeline.rp_valid;

  (* 3. an evaluator with UNCHECKED array access: safe because the checking
     above proved every sub in range *)
  let counters = Prims.new_counters () in
  let ce = Compile.initial_fast Prims.Unchecked ~counters () in
  let ce = Compile.run_program ce report.Pipeline.rp_tprog in

  (* 4. call dotprod on ordinary arrays *)
  let v1 = Value.of_int_array [| 1; 2; 3; 4 |] in
  let v2 = Value.of_int_array [| 10; 20; 30; 40; 50 |] in
  let dotprod = Compile.lookup ce "dotprod" in
  let result = Value.as_fun dotprod (Value.Vtuple [| v1; v2 |]) in
  Format.printf "@.== evaluation ==@.";
  Format.printf "dotprod [|1;2;3;4|] [|10;20;30;40;50|] = %a@." Value.pp result;
  Format.printf "array accesses performed without a bound check: %d@."
    counters.Prims.eliminated_checks;
  assert (Value.equal result (Value.Vint 300))
