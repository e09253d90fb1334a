(* Exceptions: the paper's first "future work" item ("Our immediate goal is
   to extend our system to accommodate full Standard ML which involves
   treating exceptions...").  Declarations, raise, handle, propagation, and
   the interplay with the checked access discipline: a bound-check failure
   raises Subscript, which handle can observe in-language. *)

open Dml_core
open Dml_eval
open Value

let typecheck name src =
  match Pipeline.check_valid_s (Session.create ()) src with
  | Ok r -> r.Pipeline.rp_tprog
  | Error msg -> Alcotest.failf "%s: %s" name msg

type backend = { b_name : string; run : Prims.mode -> Dml_mltype.Tast.tprogram -> string -> Value.t }

let backends =
  [
    {
      b_name = "compiled";
      run =
        (fun mode tprog name ->
          let ce = Compile.initial_fast mode () in
          Compile.lookup (Compile.run_program ce tprog) name);
    };
    {
      b_name = "costed";
      run =
        (fun mode tprog name ->
          let ce = Compile.initial_costed mode (Prims.new_counters ()) in
          Compile.lookup (Compile.run_program ce tprog) name);
    };
  ]

let value = Alcotest.testable Value.pp Value.equal

let both name src binding expected =
  let tprog = typecheck name src in
  List.iter
    (fun b ->
      Alcotest.check value
        (Printf.sprintf "%s (%s)" name b.b_name)
        expected
        (b.run Prims.Checked tprog binding))
    backends

let test_raise_handle () =
  both "simple handle"
    {|
exception Boom
fun f(x) = if x > 0 then x else raise Boom
val r = (f(~1) handle Boom => 42)
|}
    "r" (Vint 42);
  both "no exception means no handler"
    {|
exception Boom
fun f(x) = if x > 0 then x else raise Boom
val r = (f(7) handle Boom => 42)
|}
    "r" (Vint 7);
  both "carried value"
    {|
exception Fail of int
val r = ((raise Fail 3) handle Fail n => n * 10)
|}
    "r" (Vint 30);
  both "first matching handler"
    {|
exception A
exception B
val r = ((raise B) handle A => 1 | B => 2 | _ => 3)
|}
    "r" (Vint 2);
  both "wildcard handler"
    {|
exception A
val r = ((raise A) handle _ => 9)
|}
    "r" (Vint 9)

let test_propagation () =
  both "unmatched re-raises to outer handler"
    {|
exception A
exception B
val r = (((raise A) handle B => 1) handle A => 2)
|}
    "r" (Vint 2);
  both "handler body may re-raise"
    {|
exception A
exception B
val r = (((raise A) handle A => raise B) handle B => 5)
|}
    "r" (Vint 5)

let test_runtime_exceptions_observable () =
  both "Subscript from a checked access"
    {|
fun get(a, i) = subCK(a, i) handle Subscript => ~1
val r = (get(array(3, 5), 1), get(array(3, 5), 7))
|}
    "r"
    (Vtuple [| Vint 5; Vint (-1) |]);
  both "Div from division"
    {|
fun safeDiv(a, b) = divCK(a, b) handle Div => 0
val r = (safeDiv(7, 2), safeDiv(7, 0))
|}
    "r"
    (Vtuple [| Vint 3; Vint 0 |])

(* Operands run in SML's order: function before argument, then left to
   right.  A log shows the order; when two operands raise, the first one's
   exception is the one that escapes. *)
let test_operand_order () =
  both "operands left to right"
    {|
val log = ref ""
fun note(s, v) = (log := !log ^ s; v)
val a = array(2, 0)
val r =
  (note("a", 1) + note("b", 2);
   updateCK(note("c", a), note("d", 0), note("e", 7));
   (note("f", fn x => x)) (note("g", 3));
   (note("h", 4), note("i", 5));
   !log)
|}
    "r" (Vstring "abcdefghi");
  both "first raising operand wins"
    {|
exception A
exception B
fun g x = raise A
fun h x = raise B
val r = (g 1 + h 1) handle A => 1 | B => 2
|}
    "r" (Vint 1);
  (* a call to a known [fun] writes its operands into the callee's frame in
     order: the first operand's effect happens before the second raises *)
  both "known call operands"
    {|
exception Boom
val log = ref ""
fun pair(a, b) = a + b
fun note(v) = (log := !log ^ "first"; v)
val r = ((pair(note 1, raise Boom)) handle Boom => 0; !log)
|}
    "r" (Vstring "first")

let test_uncaught_escapes () =
  let tprog = typecheck "uncaught" {|
exception Boom
fun f(x) = raise Boom
val g = f
|} in
  List.iter
    (fun b ->
      let g = b.run Prims.Checked tprog "g" in
      match as_fun g (Vint 0) with
      | _ -> Alcotest.fail "expected the exception to escape"
      | exception Dml_exn (Vtag { name = "Boom"; _ }) -> ())
    backends

let test_static_errors () =
  let rejected name src =
    match Pipeline.check_s (Session.create ()) src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected a static error" name
  in
  rejected "raising a non-exception" "val r = raise 3";
  rejected "handler arm type mismatch" {|
exception A
val r = (1 handle A => true)
|};
  rejected "duplicate exception" {|
exception A
exception A
|};
  rejected "polymorphic exception argument" {|
exception Poly of 'a list
|};
  rejected "handle with non-exn pattern" {|
exception A
val r = (1 handle 0 => 2)
|}

let test_handle_coverage_warnings () =
  (* handlers may be partial without a warning; unreachable arms still warn *)
  let warnings src =
    match Pipeline.check_s (Session.create ()) src with
    | Ok r -> List.map fst r.Pipeline.rp_warnings
    | Error f -> Alcotest.failf "%s" (Pipeline.failure_to_string f)
  in
  Alcotest.(check (list string)) "partial handler is fine" []
    (warnings {|
exception A
val r = (1 handle A => 2)
|});
  Alcotest.(check bool) "shadowed handler arm warns" true
    (List.exists
       (fun w -> String.length w >= 6)
       (warnings {|
exception A
val r = (1 handle _ => 2 | A => 3)
|}))

let test_dependent_types_through_handle () =
  (* a handle expression can still carry index information via checking *)
  match
    Pipeline.check_valid_s (Session.create ())
      {|
exception Empty
fun safeHead(l) = (case l of x :: _ => x | nil => raise Empty)
where safeHead <| {n:nat} int list(n) -> int
val r = (safeHead(nil) handle Empty => 0)
|}
  with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

let test_exceptions_in_let () =
  both "local exception declaration"
    {|
fun f(x) = let
  exception Local
  fun g(y) = if y < 0 then raise Local else y
in
  g(x) handle Local => 0
end
val r = (f(5), f(~5))
|}
    "r"
    (Vtuple [| Vint 5; Vint 0 |])

let () =
  Alcotest.run "exceptions"
    [
      ( "semantics",
        [
          Alcotest.test_case "raise and handle" `Quick test_raise_handle;
          Alcotest.test_case "propagation" `Quick test_propagation;
          Alcotest.test_case "runtime exceptions observable" `Quick
            test_runtime_exceptions_observable;
          Alcotest.test_case "operand order" `Quick test_operand_order;
          Alcotest.test_case "uncaught escapes" `Quick test_uncaught_escapes;
          Alcotest.test_case "local declarations" `Quick test_exceptions_in_let;
        ] );
      ( "typing",
        [
          Alcotest.test_case "static errors" `Quick test_static_errors;
          Alcotest.test_case "coverage warnings" `Quick test_handle_coverage_warnings;
          Alcotest.test_case "dependent types through handle" `Quick
            test_dependent_types_through_handle;
        ] );
    ]
