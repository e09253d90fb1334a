(* Integration tests: every benchmark program of Section 4 goes through the
   full pipeline and runs its (verified) workload on the backends.  The
   drivers of Dml_programs.Drivers, in their host instance
   (Dml_programs.Workloads), check all results against OCaml reference
   implementations, so a single successful run is an end-to-end
   correctness check of parser, inference, elaboration, solver, and
   evaluator together; the verification cases below check that a wrong
   result is caught. *)

open Dml_core
open Dml_eval

let typecheck (b : Dml_programs.Programs.benchmark) =
  match Pipeline.check_valid_s (Session.create ()) b.Dml_programs.Programs.source with
  | Ok r -> r
  | Error msg -> Alcotest.failf "%s: %s" b.Dml_programs.Programs.name msg

let compiled_exec mode ?counters tprog =
  let ce = Compile.initial_fast mode ?counters () in
  let ce = Compile.run_program ce tprog in
  { Dml_programs.Workloads.lookup = Compile.lookup ce }

let costed_exec mode counters tprog =
  let ce = Compile.initial_costed mode counters in
  let ce = Compile.run_program ce tprog in
  { Dml_programs.Workloads.lookup = Compile.lookup ce }

(* run a benchmark under both disciplines and check the counter algebra:
   every check executed in checked mode is either eliminated or residual in
   unchecked mode *)
let test_benchmark (b : Dml_programs.Programs.benchmark) () =
  let report = typecheck b in
  let tprog = report.Pipeline.rp_tprog in
  let run mode =
    let counters = Prims.new_counters () in
    let ex = compiled_exec mode ~counters tprog in
    (try ignore (b.Dml_programs.Programs.run ex ~scale:1)
     with Dml_programs.Workloads.Verification_failure msg -> Alcotest.fail msg);
    counters
  in
  let checked = run Prims.Checked in
  let unchecked = run Prims.Unchecked in
  Alcotest.(check int)
    (b.Dml_programs.Programs.name ^ ": checks partition")
    checked.Prims.dynamic_checks
    (unchecked.Prims.eliminated_checks + unchecked.Prims.dynamic_checks);
  (* programs that perform checked accesses must see them eliminated;
     reverse and filter are pure pattern matching and have none to count *)
  if checked.Prims.dynamic_checks > 0 then
    Alcotest.(check bool)
      (b.Dml_programs.Programs.name ^ ": something to eliminate")
      true
      (unchecked.Prims.eliminated_checks > 0)

let benchmark_tests =
  List.map
    (fun (b : Dml_programs.Programs.benchmark) ->
      Alcotest.test_case b.Dml_programs.Programs.name `Slow (test_benchmark b))
    Dml_programs.Programs.all

(* a host driver rejects a wrong result: each case replaces one kernel's
   entry point in a real exec with a stub that answers wrongly *)
let test_verification (name, entry, stub) () =
  let b = Option.get (Dml_programs.Programs.find name) in
  let ex = compiled_exec Prims.Unchecked (typecheck b).Pipeline.rp_tprog in
  let lookup x = if x = entry then Value.Vfun stub else ex.Dml_programs.Workloads.lookup x in
  match b.Dml_programs.Programs.run { Dml_programs.Workloads.lookup } ~scale:1 with
  | s -> Alcotest.failf "%s: a wrong result passed verification (%s)" name s
  | exception Dml_programs.Workloads.Verification_failure _ -> ()

let verification_tests =
  List.map
    (fun ((name, _, _) as case) -> Alcotest.test_case name `Quick (test_verification case))
    [
      (* copies nothing *)
      ("bcopy", "bcopy", fun _ -> Value.Vtuple [||]);
      ("binary search", "bsearchInt", fun _ -> Value.Vtag { Value.tag = 0; name = "NONE" });
      (* leaves the array unsorted *)
      ("bubble sort", "bsort", fun _ -> Value.Vtuple [||]);
      ("reverse", "reverse", fun l -> l);
    ]

(* the cost model is deterministic: the checked/unchecked cycle difference is
   exactly check_cost per eliminated check *)
let test_cost_model_algebra () =
  List.iter
    (fun name ->
      let b = Option.get (Dml_programs.Programs.find name) in
      let report = typecheck b in
      let tprog = report.Pipeline.rp_tprog in
      let run mode =
        let counters = Prims.new_counters () in
        let ex = costed_exec mode counters tprog in
        (try ignore (b.Dml_programs.Programs.run ex ~scale:1)
         with Dml_programs.Workloads.Verification_failure msg -> Alcotest.fail msg);
        counters
      in
      let checked = run Prims.Checked in
      let unchecked = run Prims.Unchecked in
      Alcotest.(check int)
        (name ^ ": cycle difference = check_cost * eliminated")
        (Prims.check_cost * unchecked.Prims.eliminated_checks)
        (checked.Prims.cycles - unchecked.Prims.cycles))
    [ "queen"; "list access"; "hanoi towers"; "binary search" ]

(* Table 1 regenerates for every row *)
let test_table1 () =
  List.iter
    (fun row ->
      match row with
      | Error msg -> Alcotest.fail msg
      | Ok r ->
          Alcotest.(check bool) (r.Dml_programs.Tables.t1_name ^ ": has constraints") true
            (r.Dml_programs.Tables.t1_constraints > 0);
          Alcotest.(check bool) (r.Dml_programs.Tables.t1_name ^ ": has annotations") true
            (r.Dml_programs.Tables.t1_annotations > 0))
    (Dml_programs.Tables.table1 ())

(* Table 2 (cost model) is deterministic: the gain is positive on every row,
   and every row's virtual cycles and check counts equal the golden file
   exactly.  An evaluator change may make the cost model faster or smaller,
   never move a cycle.

   Regenerating after an intentional change to the cost model:
     DML_TABLE2_GOLDEN=$PWD/test/table2_golden.json \
       dune exec test/test_programs.exe -- test tables 1 *)
module J = Dml_obs.Json

let mcycles_to_int x = int_of_float (Float.round (x *. 1e6))

let table2_row_json (r : Dml_programs.Tables.t23_row) =
  J.Obj
    [
      ("program", J.String r.Dml_programs.Tables.t23_name);
      ("checked_cycles", J.Int (mcycles_to_int r.Dml_programs.Tables.t23_checked_s));
      ("unchecked_cycles", J.Int (mcycles_to_int r.Dml_programs.Tables.t23_unchecked_s));
      ("eliminated", J.Int r.Dml_programs.Tables.t23_eliminated);
      ("residual", J.Int r.Dml_programs.Tables.t23_residual);
    ]

let table2_golden_path () =
  if Sys.file_exists "table2_golden.json" then "table2_golden.json"
  else "test/table2_golden.json"

let test_table2_gains () =
  let rows =
    List.map
      (function
        | Error msg -> Alcotest.fail msg
        | Ok r ->
            Alcotest.(check bool)
              (r.Dml_programs.Tables.t23_name ^ ": unchecked wins")
              true
              (r.Dml_programs.Tables.t23_gain_pct > 0.);
            table2_row_json r)
      (Dml_programs.Tables.table23 Backend.cost_model ~scale:1)
  in
  let got = J.Obj [ ("schema", J.String "dml-table2/1"); ("rows", J.List rows) ] in
  match Sys.getenv_opt "DML_TABLE2_GOLDEN" with
  | Some out -> (
      match J.write_file out got with
      | Ok () -> print_endline ("wrote the Table 2 golden to " ^ out)
      | Error msg -> Alcotest.fail msg)
  | None ->
      let ic = open_in (table2_golden_path ()) in
      let raw = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let golden =
        match J.of_string raw with
        | Ok v -> v
        | Error msg -> Alcotest.fail ("golden file does not parse: " ^ msg)
      in
      Alcotest.(check string)
        "cycles and check counts match the golden file"
        (J.to_string_pretty golden) (J.to_string_pretty got)

(* KMP is the one program with residual checks (the subCK sites of Figure 5) *)
let test_kmp_residual () =
  let b = Option.get (Dml_programs.Programs.find "kmp") in
  let report = typecheck b in
  let counters = Prims.new_counters () in
  let ex = compiled_exec Prims.Unchecked ~counters report.Pipeline.rp_tprog in
  ignore (b.Dml_programs.Programs.run ex ~scale:1);
  Alcotest.(check bool) "kmp keeps some dynamic checks" true (counters.Prims.dynamic_checks > 0);
  Alcotest.(check bool) "kmp eliminates most checks" true
    (counters.Prims.eliminated_checks > counters.Prims.dynamic_checks)

(* all other table programs eliminate every check *)
let test_full_elimination () =
  List.iter
    (fun (b : Dml_programs.Programs.benchmark) ->
      let report = typecheck b in
      let counters = Prims.new_counters () in
      let ex = compiled_exec Prims.Unchecked ~counters report.Pipeline.rp_tprog in
      ignore (b.Dml_programs.Programs.run ex ~scale:1);
      Alcotest.(check int)
        (b.Dml_programs.Programs.name ^ ": no residual checks")
        0 counters.Prims.dynamic_checks)
    Dml_programs.Programs.table_benchmarks

let () =
  Alcotest.run "programs"
    [
      ("benchmarks (both disciplines, verified)", benchmark_tests);
      ("verification rejects wrong results", verification_tests);
      ( "backends",
        [
          Alcotest.test_case "cost model algebra" `Slow test_cost_model_algebra;
        ] );
      ( "tables",
        [
          Alcotest.test_case "table 1 rows" `Quick test_table1;
          Alcotest.test_case "table 2 gains positive" `Slow test_table2_gains;
          Alcotest.test_case "kmp residual checks" `Slow test_kmp_residual;
          Alcotest.test_case "full elimination elsewhere" `Slow test_full_elimination;
        ] );
    ]
