(* Sorting workbench: quicksort and bubble sort under both access
   disciplines, followed by binary search over the sorted result — the
   workloads behind three rows of Tables 2 and 3.

   Run with: dune exec examples/sorting.exe *)

open Dml_core
open Dml_eval

let build source =
  match Pipeline.check_valid_s (Session.create ()) source with
  | Ok r -> r.Pipeline.rp_tprog
  | Error msg -> failwith msg

let evaluator tprog mode counters =
  let ce = Compile.initial_fast mode ~counters () in
  Compile.run_program ce tprog

let () =
  let qsort_prog = build Dml_programs.Sources.quicksort in
  let bsort_prog = build Dml_programs.Sources.bubblesort in
  let bsearch_prog = build Dml_programs.Sources.bsearch in

  let n = 2000 in
  let rng = ref 7 in
  let next () =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !rng mod 100000
  in
  let data = Array.init n (fun _ -> next ()) in

  let sort_with name tprog fname data =
    let arr = Value.of_int_array data in
    List.iter
      (fun (mode, mode_name) ->
        let arr = Value.of_int_array data in
        let counters = Prims.new_counters () in
        let ce = evaluator tprog mode counters in
        ignore (Value.as_fun (Compile.lookup ce fname) arr);
        Format.printf "%-12s %-9s: %6d checked accesses, %6d unchecked@." name mode_name
          counters.Prims.dynamic_checks counters.Prims.eliminated_checks)
      [ (Prims.Checked, "checked"); (Prims.Unchecked, "unchecked") ];
    (* verify against OCaml's sort *)
    let counters = Prims.new_counters () in
    let ce = evaluator tprog Prims.Unchecked counters in
    ignore (Value.as_fun (Compile.lookup ce fname) arr);
    let reference = Array.copy data in
    Array.sort compare reference;
    assert (Value.equal arr (Value.of_int_array reference));
    Value.to_int_array arr
  in

  Format.printf "== sorting %d pseudo-random integers ==@." n;
  let sorted = sort_with "quick sort" qsort_prog "qsort" data in
  ignore (sort_with "bubble sort" bsort_prog "bsort" (Array.sub data 0 400));

  Format.printf "@.== binary search over the sorted array ==@.";
  let counters = Prims.new_counters () in
  let ce = evaluator bsearch_prog Prims.Unchecked counters in
  let bsearch = Compile.lookup ce "bsearchInt" in
  let varr = Value.of_int_array sorted in
  let hits = ref 0 and misses = ref 0 in
  for _ = 1 to 1000 do
    let key = next () in
    match Value.as_fun bsearch (Value.Vtuple [| Value.Vint key; varr |]) with
    | Value.Vcon ({ name = "SOME"; _ }, Value.Vtuple [| Value.Vint i; Value.Vint x |]) ->
        assert (sorted.(i) = x && x = key);
        incr hits
    | Value.Vtag { name = "NONE"; _ } ->
        assert (not (Array.exists (fun y -> y = key) sorted));
        incr misses
    | v -> failwith (Value.to_string v)
  done;
  Format.printf "1000 lookups: %d hits, %d misses, %d unchecked accesses, %d residual checks@."
    !hits !misses counters.Prims.eliminated_checks counters.Prims.dynamic_checks;
  assert (counters.Prims.dynamic_checks = 0)
