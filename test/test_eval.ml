open Dml_core
open Dml_eval
open Value

(* Check a program through the full pipeline, then evaluate it on a backend. *)
let typecheck name src =
  match Pipeline.check_valid_s (Session.create ()) src with
  | Ok report -> report.Pipeline.rp_tprog
  | Error msg -> Alcotest.failf "%s: %s" name msg

type backend = {
  b_name : string;
  run : Prims.mode -> ?counters:Prims.counters -> Dml_mltype.Tast.tprogram -> string -> Value.t;
}

let compiled_backend =
  {
    b_name = "compiled";
    run =
      (fun mode ?counters tprog name ->
        let ce = Compile.initial (Prims.table mode ?counters ()) in
        let ce = Compile.run_program ce tprog in
        Compile.lookup ce name);
  }

(* the cost model: direct primitive calls, every node charging its cycles *)
let costed_backend =
  {
    b_name = "costed";
    run =
      (fun mode ?counters tprog name ->
        let counters = Option.value counters ~default:(Prims.new_counters ()) in
        let ce = Compile.initial_costed mode counters in
        let ce = Compile.run_program ce tprog in
        Compile.lookup ce name);
  }

let backends = [ compiled_backend; costed_backend ]

let value = Alcotest.testable Value.pp Value.equal

let both name src binding expected =
  let tprog = typecheck name src in
  List.iter
    (fun b ->
      let v = b.run Prims.Checked tprog binding in
      Alcotest.check value (Printf.sprintf "%s (%s, checked)" name b.b_name) expected v;
      let v' = b.run Prims.Unchecked tprog binding in
      Alcotest.check value (Printf.sprintf "%s (%s, unchecked)" name b.b_name) expected v')
    backends

(* --- basic evaluation -------------------------------------------------------- *)

let test_arith () =
  both "arith" {| val x = 1 + 2 * 3 - 4 |} "x" (Vint 3);
  both "division floors" {| val x = (7 div 2, ~7 div 2, 7 mod 3, ~7 mod 3) |} "x"
    (Vtuple [ Vint 3; Vint (-4); Vint 1; Vint 2 ]);
  both "comparison" {| val x = (1 < 2, 2 <= 1, 3 = 3, 3 <> 3) |} "x"
    (Vtuple [ Vbool true; Vbool false; Vbool true; Vbool false ]);
  both "min max abs sgn" {| val x = (min(3, 5), max(3, 5), abs(~7), sgn(~7)) |} "x"
    (Vtuple [ Vint 3; Vint 5; Vint 7; Vint (-1) ])

let test_functions () =
  both "curried" {|
fun add x y = x + y
val x = add 2 3
|} "x" (Vint 5);
  both "higher order"
    {|
fun twice f x = f (f x)
fun inc(n) = n + 1
val x = twice inc 5
|} "x" (Vint 7);
  both "closure capture"
    {|
fun adder(n) = fn m => n + m
val x = adder(10) 32
|} "x" (Vint 42);
  (* a local binding shadows the primitive of the same name *)
  both "shadowed primitive" {| val r = let fun abs x = x + 100 in abs 1 end |} "r" (Vint 101)

let test_recursion () =
  both "factorial"
    {|
fun fact(n) = if n <= 1 then 1 else n * fact(n - 1)
val x = fact(10)
|}
    "x" (Vint 3628800);
  both "mutual recursion"
    {|
fun even n = if n = 0 then true else odd (n - 1)
and odd n = if n = 0 then false else even (n - 1)
val x = (even 10, odd 10)
|}
    "x"
    (Vtuple [ Vbool true; Vbool false ])

let test_datatypes () =
  both "list sum"
    {|
fun sum(nil) = 0
  | sum(x::xs) = x + sum(xs)
val x = sum(1 :: 2 :: 3 :: nil)
|}
    "x" (Vint 6);
  both "option"
    {|
fun get(NONE) = 0
  | get(SOME x) = x
val x = get(SOME 5) + get(NONE)
|}
    "x" (Vint 5);
  both "nested patterns"
    {|
fun firstTwo(x :: y :: _) = x + y
  | firstTwo(x :: nil) = x
  | firstTwo(nil) = 0
val x = firstTwo(10 :: 20 :: 30 :: nil)
|}
    "x" (Vint 30)

let test_case_and_sequence () =
  both "case" {|
val x = case 1 :: nil of nil => 0 | y :: _ => y
|} "x" (Vint 1);
  both "sequence and unit"
    {|
val a = array(4, 0)
val x = (update(a, 0, 10); update(a, 1, 20); sub(a, 0) + sub(a, 1))
|}
    "x" (Vint 30)

let test_short_circuit () =
  (* the second operand must not be evaluated when the first decides *)
  both "andalso shortcut"
    {|
val a = array(1, 7)
fun safe(i) = 0 <= i andalso i < length a andalso subCK(a, i) > 0
val x = (safe(0), safe(5), safe(~1))
|}
    "x"
    (Vtuple [ Vbool true; Vbool false; Vbool false ])

let test_reverse_runs () =
  both "reverse"
    {|
fun reverse(l) = let
  fun rev(nil, ys) = ys
    | rev(x::xs, ys) = rev(xs, x::ys)
  where rev <| {m:nat} {n:nat} 'a list(m) * 'a list(n) -> 'a list(m+n)
in
  rev(l, nil)
end
where reverse <| {n:nat} 'a list(n) -> 'a list(n)
val x = reverse(1 :: 2 :: 3 :: nil)
|}
    "x"
    (Value.of_int_list [ 3; 2; 1 ])

(* --- checked vs unchecked semantics -------------------------------------------- *)

let test_subck_raises () =
  let tprog = typecheck "subck" {|
fun get(a, i) = subCK(a, i)
where get <| int array * int -> int
|} in
  List.iter
    (fun b ->
      let f = b.run Prims.Checked tprog "get" in
      let call v = as_fun f v in
      Alcotest.check value "in bounds" (Vint 0) (call (Vtuple [ of_int_array [| 0; 0 |]; Vint 1 ]));
      Alcotest.check_raises "out of bounds" Prims.Subscript (fun () ->
          ignore (call (Vtuple [ of_int_array [| 0; 0 |]; Vint 2 ])));
      Alcotest.check_raises "negative" Prims.Subscript (fun () ->
          ignore (call (Vtuple [ of_int_array [| 0; 0 |]; Vint (-1) ]))))
    backends

let test_counters () =
  let src =
    {|
fun sumall(v) = let
  fun loop(i, n, acc) =
    if i = n then acc else loop(i+1, n, acc + sub(v, i))
  where loop <| {n:nat | n <= p} {i:nat | i <= n} int(i) * int(n) * int -> int
in
  loop(0, length v, 0)
end
where sumall <| {p:nat} int array(p) -> int
val result = sumall(array(100, 2))
|}
  in
  let tprog = typecheck "counters" src in
  List.iter
    (fun b ->
      (* checked mode: 100 dynamic checks *)
      let c = Prims.new_counters () in
      let v = b.run Prims.Checked ~counters:c tprog "result" in
      Alcotest.check value "sum" (Vint 200) v;
      Alcotest.(check int)
        (b.b_name ^ " checked count")
        100 c.Prims.dynamic_checks;
      Alcotest.(check int) (b.b_name ^ " nothing eliminated") 0 c.Prims.eliminated_checks;
      (* unchecked mode: 100 checks eliminated *)
      let c' = Prims.new_counters () in
      let v' = b.run Prims.Unchecked ~counters:c' tprog "result" in
      Alcotest.check value "sum" (Vint 200) v';
      Alcotest.(check int) (b.b_name ^ " eliminated") 100 c'.Prims.eliminated_checks;
      Alcotest.(check int) (b.b_name ^ " no dynamic checks") 0 c'.Prims.dynamic_checks)
    backends

let test_backends_agree () =
  (* a stateful program: every backend, checked and unchecked, sums the
     filled array to the same literal, sum of (37i + 11) mod 100 for i < 50 *)
  let src =
    {|
fun fill(a) = let
  fun loop(i, m) =
    if i < m then (update(a, i, (i * 37 + 11) mod 100); loop(i+1, m)) else ()
  where loop <| {i:nat} int(i) * int(n) -> unit
in
  loop(0, length a)
end
where fill <| {n:nat} int array(n) -> unit

fun sumall(v) = let
  fun loop(i, m, acc) =
    if i = m then acc else loop(i+1, m, acc + sub(v, i))
  where loop <| {i:nat | i <= n} int(i) * int(n) * int -> int
in
  loop(0, length v, 0)
end
where sumall <| {n:nat} int array(n) -> int

val a = array(50, 0)
val result = (fill(a); sumall(a))
|}
  in
  let tprog = typecheck "agree" src in
  List.iter
    (fun b ->
      Alcotest.check value (b.b_name ^ ", checked") (Vint 2475) (b.run Prims.Checked tprog "result");
      Alcotest.check value (b.b_name ^ ", unchecked") (Vint 2475)
        (b.run Prims.Unchecked tprog "result"))
    backends

let test_match_failure () =
  let tprog = typecheck "partial" {|
fun head(x :: _) = x
val f = head
|} in
  List.iter
    (fun b ->
      let f = b.run Prims.Checked tprog "f" in
      match as_fun f (Vcon ("nil", None)) with
      | _ -> Alcotest.fail "expected a match failure"
      | exception Compile.Match_failure_dml _ -> ())
    backends

let () =
  Alcotest.run "eval"
    [
      ( "pure",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "functions" `Quick test_functions;
          Alcotest.test_case "recursion" `Quick test_recursion;
          Alcotest.test_case "datatypes" `Quick test_datatypes;
          Alcotest.test_case "case and sequences" `Quick test_case_and_sequence;
          Alcotest.test_case "short circuit" `Quick test_short_circuit;
          Alcotest.test_case "reverse" `Quick test_reverse_runs;
        ] );
      ( "checking",
        [
          Alcotest.test_case "subCK raises" `Quick test_subck_raises;
          Alcotest.test_case "check counters" `Quick test_counters;
          Alcotest.test_case "backends agree" `Quick test_backends_agree;
          Alcotest.test_case "match failure" `Quick test_match_failure;
        ] );
    ]
