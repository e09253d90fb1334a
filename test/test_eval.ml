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

(* the closure instance that run-kernels and Table 3 time *)
let fast_backend =
  {
    b_name = "fast";
    run =
      (fun mode ?counters tprog name ->
        let ce = Compile.initial_fast mode ?counters () in
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

let backends = [ fast_backend; costed_backend ]

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
    (Vtuple [| Vint 3; Vint (-4); Vint 1; Vint 2 |]);
  both "comparison" {| val x = (1 < 2, 2 <= 1, 3 = 3, 3 <> 3) |} "x"
    (Vtuple [| Vbool true; Vbool false; Vbool true; Vbool false |]);
  both "min max abs sgn" {| val x = (min(3, 5), max(3, 5), abs(~7), sgn(~7)) |} "x"
    (Vtuple [| Vint 3; Vint 5; Vint 7; Vint (-1) |])

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
  both "shadowed primitive" {| val r = let fun abs x = x + 100 in abs 1 end |} "r" (Vint 101);
  (* a primitive passed as a value goes through its curried-on-tuple form *)
  both "first-class primitive"
    {|
fun app1 f a = f a
fun app2 f (a, i) = f (a, i)
fun app3 f (a, i, v) = f (a, i, v)
val a = array(3, 7)
val x = (app3 updateCK (a, 2, 32); app2 subCK (a, 1) + app2 subCK (a, 2) + app1 length a)
|}
    "x" (Vint 42)

(* --- curried known calls, typed closures, tagged constructors ------------------ *)

let test_curried_calls () =
  both "partial and over-application"
    {|
fun add3 a b c = a * 100 + b * 10 + c
fun adder a b = fn c => a + b + c
fun twice f x = f (f x)
val p = add3 1 2
val x = (p 3, add3 4 5 6, twice (add3 0 0) 7, adder 1 2 3, twice (add3 0 1) 2)
|}
    "x"
    (Vtuple [| Vint 123; Vint 456; Vint 7; Vint 6; Vint 22 |]);
  (* SML runs the function, then each curried operand left to right *)
  both "operand order across curried arguments"
    {|
val log = ref ""
fun say s = log := !log ^ s
fun f a b = a + b
fun g a b c = a * b * c
val x = (f (say "a"; 1) (say "b"; 2), g (say "c"; 1) (say "d"; 2) (say "e"; 3), !log)
|}
    "x"
    (Vtuple [| Vint 3; Vint 6; Vstring "abcde" |])

let test_typed_paths () =
  both "int wraps around" {| val x = 4611686018427387903 + 1 |} "x" (Vint min_int);
  both "Div raised inside a condition"
    {|
fun q(a, b) = (if divCK(a, b) > 0 then 1 else 2) handle Div => 3
fun r(a, b) = (if modCK(a, b) = 0 orelse a < 0 then 4 else 5) handle Div => 6
val x = (q(7, 2), q(7, 0), r(8, 4), r(8, 0))
|}
    "x"
    (Vtuple [| Vint 1; Vint 3; Vint 4; Vint 6 |]);
  both "andalso and orelse short-circuit"
    {|
val log = ref ""
fun t s = (log := !log ^ s; true)
fun f s = (log := !log ^ s; false)
val x = (if f "a" andalso t "b" then 1 else 2, if t "c" orelse f "d" then 3 else 4,
         f "e" orelse t "g", t "h" andalso f "i", !log)
|}
    "x"
    (Vtuple [| Vint 2; Vint 3; Vbool true; Vbool false; Vstring "aceghi" |])

let test_constructors () =
  (* tags are positions, so [Circle], [Cross] and [Small] all have tag 0:
     a match only ever compares tags of one type *)
  both "constructors match by tag"
    {|
datatype shape = Circle of int | Square of int | Dot
datatype mark = Cross | Ring of int
fun area(Circle r) = 3 * r * r
  | area(Square s) = s * s
  | area(Dot) = 0
fun weight(Cross) = 1
  | weight(Ring n) = n
fun name(s) = case s of Dot => "dot" | Circle _ => "circle" | Square _ => "square"
fun kind(m) = case m of Cross => 0 | Ring _ => 1
val x = (area(Circle 2) + area(Square 3) + area(Dot), weight(Cross) + weight(Ring 5),
         name(Dot), name(Square 1), kind(Cross), kind(Ring 2))
|}
    "x"
    (Vtuple [| Vint 21; Vint 6; Vstring "dot"; Vstring "square"; Vint 0; Vint 1 |]);
  (* a constructor name cannot be declared twice, so [Lower] never resolves
     a shadowed one: the checker refuses the program first *)
  List.iter
    (fun src ->
      match Pipeline.check_valid_s (Session.create ()) src with
      | Ok _ -> Alcotest.failf "accepted a redeclared constructor: %s" src
      | Error _ -> ())
    [
      "datatype a = Dot | Line\ndatatype b = Dot";
      "datatype a = Dot | Line\nexception Dot";
      "exception Boom\nval x = let exception Boom in 1 end";
    ];
  both "exception constructors"
    {|
exception Small of int
exception Big
fun classify(n) = (if n < 10 then raise Small(n) else raise Big) handle Small k => k | Big => 100
fun sub0(a) = subCK(a, 5) handle Subscript => ~1
val x = (classify(4), classify(40), sub0(array(2, 0)))
|}
    "x"
    (Vtuple [| Vint 4; Vint 100; Vint (-1) |])

(* --- frames and known calls --------------------------------------------------- *)

let test_frames () =
  both "known function shadowed by a later val"
    {|
fun f(a, b) = a - b
val g = f(10, 3)
val f = fn (a, b) => a * b
val h = let fun k(a, b) = a - b val k = fn (a, b) => a + b in k(10, 3) end
val x = (g, f(10, 3), h)
|}
    "x"
    (Vtuple [| Vint 7; Vint 30; Vint 13 |]);
  both "known function passed first-class"
    {|
fun add(a, b) = a + b
fun fold(f, acc, l) = case l of nil => acc | y :: ys => fold(f, f(acc, y), ys)
val x = fold(add, 0, 1 :: 2 :: 3 :: nil) + add(100, 0)
|}
    "x" (Vint 106);
  both "non-literal tuple argument"
    {|
fun f(a, b) = a * 10 + b
val p = (4, 2)
fun g(q) = f q
val x = (f p, g (1, 3))
|}
    "x"
    (Vtuple [| Vint 42; Vint 13 |]);
  both "closures capture their own activation"
    {|
fun build(i, acc) =
  if i = 0 then acc else let val j = i * i in build(i - 1, (fn u => j + u) :: acc) end
fun callAll(nil, k) = 0
  | callAll(f :: fs, k) = k * f 0 + callAll(fs, k + 1)
val x = callAll(build(3, nil), 1)
|}
    "x" (Vint 36);
  both "variables several nestings out"
    {|
fun outer(a) = let
  fun mid(b) = let fun inner(c) = a * 100 + b * 10 + c in inner(3) end
in
  mid(2)
end
fun l1(a) = let
  fun l2(b) = let fun l3(c) = let fun l4(d) = a + b + c + d in l4(4000) end in l3(300) end
in
  l2(20)
end
val x = (outer(1), l1(1), (fn a => fn b => fn c => a * 100 + b * 10 + c) 4 5 6)
|}
    "x"
    (Vtuple [| Vint 123; Vint 4321; Vint 456 |]);
  both "clause fails inside a nested constructor pattern"
    {|
fun pick(SOME (x :: 0 :: _)) = x
  | pick(SOME (y :: _)) = y * 10
  | pick(NONE) = ~1
  | pick(SOME nil) = ~2
fun firstZero(x :: 0 :: _, k) = x + k
  | firstZero(y :: _, k) = y * k
  | firstZero(nil, k) = k
val x = (pick(SOME (5 :: 7 :: nil)), pick(SOME (5 :: 0 :: nil)), pick(NONE), pick(SOME nil),
         firstZero(3 :: 1 :: nil, 2), firstZero(3 :: 0 :: nil, 2), firstZero(nil, 2))
|}
    "x"
    (Vtuple [| Vint 50; Vint 5; Vint (-1); Vint (-2); Vint 6; Vint 5; Vint 2 |]);
  both "handle arm binder"
    {|
exception Fail of int
fun risky(n) = if n > 2 then raise Fail(n * 2) else n
val x = (risky(5) handle Fail k => k + 1) + (risky(1) handle Fail k => 100)
|}
    "x" (Vint 12)

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
    (Vtuple [| Vbool true; Vbool false |])

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
    (Vtuple [| Vbool true; Vbool false; Vbool false |])

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
      Alcotest.check value "in bounds" (Vint 0) (call (Vtuple [| of_int_array [| 0; 0 |]; Vint 1 |]));
      Alcotest.check_raises "out of bounds" Prims.Subscript (fun () ->
          ignore (call (Vtuple [| of_int_array [| 0; 0 |]; Vint 2 |])));
      Alcotest.check_raises "negative" Prims.Subscript (fun () ->
          ignore (call (Vtuple [| of_int_array [| 0; 0 |]; Vint (-1) |]))))
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

(* Known calls are tail calls: a 2e6-step loop runs in constant stack on both
   instances, under a stack limit that a non-tail loop of the same depth
   overflows. *)
let test_tail_calls () =
  let tprog =
    typecheck "tail loops"
      {|
fun count(i, n, acc) = if i = n then acc else count(i + 1, n, acc + 2)
fun down(n) = if n = 0 then 7 else down(n - 1)
fun deep(n) = if n = 0 then 0 else 1 + deep(n - 1)
|}
  in
  let with_small_stack f =
    let saved = Gc.get () in
    Gc.set { saved with Gc.stack_limit = 1 lsl 20 };
    Fun.protect f ~finally:(fun () -> Gc.set saved)
  in
  List.iter
    (fun b ->
      let call name v = as_fun (b.run Prims.Unchecked tprog name) v in
      with_small_stack (fun () ->
          Alcotest.check value (b.b_name ^ ": tuple loop") (Vint 4000000)
            (call "count" (Vtuple [| Vint 0; Vint 2000000; Vint 0 |]));
          Alcotest.check value (b.b_name ^ ": one-argument loop") (Vint 7) (call "down" (Vint 2000000));
          match call "deep" (Vint 2000000) with
          | _ -> Alcotest.fail (b.b_name ^ ": the non-tail control did not overflow")
          | exception Stack_overflow -> ()))
    backends

(* Cycles of a known-call loop, from the cost table in compile.mli: a known
   call charges app 2 + var 1 (+ tuple 2+n), on entry.
   - [loop(10, 0)]: call 2+1+4 with two literal operands = 9; each of the ten
     stepping iterations: if 1, [i = 0] 1+1+1, call 7, [i - 1] 1+1+1,
     [acc + i] 1+1+1 = 17; the last: if 1, [i = 0] 3, [acc] 1 = 5.
     9 + 170 + 5 = 184.
   - [down(10)]: call 2+1 with one literal = 4; each step: if 1, [n = 0] 3,
     call 3, [n - 1] 3 = 10; the last: 1 + 3 + 1 = 5.  4 + 100 + 5 = 109. *)
let test_known_call_cycles () =
  let cycles src =
    let counters = Prims.new_counters () in
    ignore (costed_backend.run Prims.Unchecked ~counters (typecheck "cycles" src) "r");
    counters.Prims.cycles
  in
  (* a curried known call of k operands charges the application chain it
     replaces, k apps and the var: [loopc 10 0] 2+2+1 with two literals = 7;
     each stepping iteration: if 1, [i = 0] 3, call 5, [i - 1] 3, [acc + i] 3
     = 15; the last 5.  7 + 150 + 5 = 162.  Reaching it through a partial
     application costs one more, the read of [p]. *)
  Alcotest.(check int) "curried loop" 162
    (cycles {|
fun loopc i acc = if i = 0 then acc else loopc (i - 1) (acc + i)
val r = loopc 10 0
|});
  Alcotest.(check int) "curried loop through a partial application" 163
    (cycles
       {|
fun loopc i acc = if i = 0 then acc else loopc (i - 1) (acc + i)
val p = loopc 10
val r = p 0
|});
  Alcotest.(check int) "tuple loop" 184
    (cycles {|
fun loop(i, acc) = if i = 0 then acc else loop(i - 1, acc + i)
val r = loop(10, 0)
|});
  Alcotest.(check int) "one-argument loop" 109
    (cycles {|
fun down(n) = if n = 0 then 0 else down(n - 1)
val r = down(10)
|})

let test_match_failure () =
  let tprog =
    typecheck "partial"
      {|
fun head(x :: _) = x
val f = head
fun sign(c) = case c of LESS => ~1 | GREATER => 1
val g = fn () => sign(EQUAL)
|}
  in
  List.iter
    (fun b ->
      let f = b.run Prims.Checked tprog "f" in
      (match as_fun f (Vtag Value.nil) with
      | _ -> Alcotest.fail "expected a match failure"
      | exception Compile.Match_failure_dml _ -> ());
      (* a tag with no arm in a dispatch on nullary constructors *)
      match as_fun (b.run Prims.Checked tprog "g") unit_v with
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
          Alcotest.test_case "frames and known calls" `Quick test_frames;
          Alcotest.test_case "curried known calls" `Quick test_curried_calls;
          Alcotest.test_case "typed int and bool paths" `Quick test_typed_paths;
          Alcotest.test_case "constructor tags" `Quick test_constructors;
        ] );
      ( "checking",
        [
          Alcotest.test_case "subCK raises" `Quick test_subck_raises;
          Alcotest.test_case "check counters" `Quick test_counters;
          Alcotest.test_case "backends agree" `Quick test_backends_agree;
          Alcotest.test_case "match failure" `Quick test_match_failure;
          Alcotest.test_case "tail calls" `Quick test_tail_calls;
          Alcotest.test_case "known-call cycles" `Quick test_known_call_cycles;
        ] );
    ]
