(* Knuth-Morris-Pratt string matching (the paper's Figure 5 and Appendix A).

   The interesting part: most accesses in [kmpMatch] are proven safe and run
   unchecked, but "several array bound checks in the body of
   computePrefixFunction cannot be eliminated" (Section 2.4) — those sites
   use the checked [subCK]/[subPrefixCK] primitives and show up as residual
   dynamic checks at run time.

   Run with: dune exec examples/kmp_search.exe *)

open Dml_core
open Dml_eval

let () =
  let report =
    match Pipeline.check_valid_s (Session.create ()) Dml_programs.Sources.kmp with
    | Ok r -> r
    | Error msg -> failwith msg
  in
  Format.printf "KMP type checks: %d constraints, all proven.@."
    report.Pipeline.rp_constraints;

  let counters = Prims.new_counters () in
  let ce = Compile.initial_fast Prims.Unchecked ~counters () in
  let ce = Compile.run_program ce report.Pipeline.rp_tprog in
  let kmp = Compile.lookup ce "kmpMatch" in

  (* encode strings as the paper does: integer arrays *)
  let encode s = Value.of_int_array (Array.init (String.length s) (fun i -> Char.code s.[i])) in
  let search text pat =
    let result = Value.as_fun kmp (Value.Vtuple [| encode text; encode pat |]) in
    match result with Value.Vint n -> n | _ -> assert false
  in

  let text = "the quick brown fox jumps over the lazy dog" in
  List.iter
    (fun pat ->
      let pos = search text pat in
      if pos >= 0 then Format.printf "%-8s found at %d: ...%s@." pat pos
          (String.sub text pos (String.length text - pos))
      else Format.printf "%-8s not found@." pat)
    [ "quick"; "the"; "lazy"; "cat"; "dog" ];

  Format.printf "@.accesses without checks (proven safe): %d@." counters.Prims.eliminated_checks;
  Format.printf "residual dynamic checks (the CK sites): %d@." counters.Prims.dynamic_checks;
  assert (counters.Prims.dynamic_checks > 0);

  (* the checks that remain are real: a malformed call still raises *)
  assert (search "aaa" "aaaa" = -1)
