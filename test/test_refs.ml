(* References: SML's imperative core.  The interesting type-system point is
   the value restriction (Section 2.2 mentions "polymorphism (with a value
   restriction)"), which is exactly what keeps [ref nil] from being used at
   two element types. *)

open Dml_core
open Dml_eval
open Value

let typecheck name src =
  match Pipeline.check_valid_s (Session.create ()) src with
  | Ok r -> r.Pipeline.rp_tprog
  | Error msg -> Alcotest.failf "%s: %s" name msg

let value = Alcotest.testable Value.pp Value.equal

let expect name src binding expected =
  let ce = Compile.run_program (Compile.initial_fast Prims.Checked ()) (typecheck name src) in
  Alcotest.check value name expected (Compile.lookup ce binding)

let test_basic () =
  expect "create, read, write" {|
val r = ref 1
val x = (r := 41; !r + 1)
|} "x" (Vint 42);
  expect "aliasing" {|
val r = ref 0
val s = r
val x = (s := 7; !r)
|} "x" (Vint 7);
  expect "ref of tuple"
    {|
val r = ref (1, true)
val x = (r := (2, false); !r)
|}
    "x"
    (Vtuple [| Vint 2; Vbool false |])

let test_closures_over_state () =
  expect "counter"
    {|
fun counter() = let
  val c = ref 0
in
  fn () => (c := !c + 1; !c)
end
val tick = counter()
val other = counter()
val x = (tick(), tick(), other(), tick())
|}
    "x"
    (Vtuple [| Vint 1; Vint 2; Vint 1; Vint 3 |])

let test_imperative_loop () =
  expect "imperative sum via ref"
    {|
fun sumto(n) = let
  val acc = ref 0
  fun loop(i) = if i <= n then (acc := !acc + i; loop(i + 1)) else ()
in
  (loop(1); !acc)
end
val x = sumto(100)
|}
    "x" (Vint 5050)

let test_value_restriction_refs () =
  (* ref nil must not generalise: using it at two element types is an error *)
  match
    Pipeline.check_s (Session.create ())
      {|
val cell = ref nil
val a = (cell := 1 :: nil; !cell)
val b = (cell := true :: nil; !cell)
|}
  with
  | Error { Pipeline.f_stage = `Mltype; _ } -> ()
  | Error f -> Alcotest.failf "wrong stage: %s" (Pipeline.failure_to_string f)
  | Ok _ -> Alcotest.fail "value restriction violated"

let test_monomorphic_cell_is_fine () =
  expect "monomorphic cell"
    {|
val cell = ref nil
val x = (cell := 1 :: 2 :: nil; list_length (!cell))
|}
    "x" (Vint 2)

let test_refs_and_dependent_arrays () =
  (* a ref holding an index into an array: the index loses its static
     information through the cell, so sub must be guarded *)
  expect "guarded access through a ref"
    {|
val a = array(10, 3)
val idx = ref 0
fun bump() = idx := !idx + 1
val x = let
  val i = !idx
in
  (bump(); if 0 <= i andalso i < length a then sub(a, i) else ~1)
end
|}
    "x" (Vint 3);
  (* without the guard it must be rejected *)
  match Pipeline.check_s (Session.create ()) {|
val a = array(10, 3)
val idx = ref 0
val x = sub(a, !idx)
|} with
  | Ok r when not r.Pipeline.rp_valid -> ()
  | Ok _ -> Alcotest.fail "unguarded access through a ref accepted"
  | Error f -> Alcotest.failf "unexpected: %s" (Pipeline.failure_to_string f)

let () =
  Alcotest.run "refs"
    [
      ( "semantics",
        [
          Alcotest.test_case "basics" `Quick test_basic;
          Alcotest.test_case "closures over state" `Quick test_closures_over_state;
          Alcotest.test_case "imperative loop" `Quick test_imperative_loop;
        ] );
      ( "typing",
        [
          Alcotest.test_case "value restriction" `Quick test_value_restriction_refs;
          Alcotest.test_case "monomorphic cell" `Quick test_monomorphic_cell_is_fine;
          Alcotest.test_case "refs and dependent arrays" `Quick test_refs_and_dependent_arrays;
        ] );
    ]
