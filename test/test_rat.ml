module B = Dml_numeric.Bigint
module R = Dml_numeric.Rat

let rat = Alcotest.testable R.pp R.equal

let r a b = R.make (B.of_int a) (B.of_int b)

let test_normalisation () =
  Alcotest.check rat "6/4 = 3/2" (r 3 2) (r 6 4);
  Alcotest.check rat "neg den" (r (-3) 2) (r 3 (-2));
  Alcotest.check rat "zero" R.zero (r 0 17);
  Alcotest.(check string) "print" "3/2" (R.to_string (r 6 4));
  Alcotest.(check string) "print int" "5" (R.to_string (r 10 2))

let test_zero_denominator () =
  Alcotest.check_raises "make" Division_by_zero (fun () -> ignore (r 1 0));
  Alcotest.check_raises "div" Division_by_zero (fun () -> ignore (R.div R.one R.zero));
  Alcotest.check_raises "inv" Division_by_zero (fun () -> ignore (R.inv R.zero))

let test_arithmetic () =
  Alcotest.check rat "1/2 + 1/3" (r 5 6) (R.add (r 1 2) (r 1 3));
  Alcotest.check rat "1/2 - 1/3" (r 1 6) (R.sub (r 1 2) (r 1 3));
  Alcotest.check rat "2/3 * 3/4" (r 1 2) (R.mul (r 2 3) (r 3 4));
  Alcotest.check rat "(1/2) / (3/4)" (r 2 3) (R.div (r 1 2) (r 3 4))

let test_floor_ceil () =
  Alcotest.(check string) "floor 7/2" "3" (B.to_string (R.floor (r 7 2)));
  Alcotest.(check string) "floor -7/2" "-4" (B.to_string (R.floor (r (-7) 2)));
  Alcotest.(check string) "ceil 7/2" "4" (B.to_string (R.ceil (r 7 2)));
  Alcotest.(check string) "ceil -7/2" "-3" (B.to_string (R.ceil (r (-7) 2)));
  Alcotest.(check bool) "is_integer 4/2" true (R.is_integer (r 4 2));
  Alcotest.(check bool) "is_integer 5/2" false (R.is_integer (r 5 2))

let test_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true (R.lt (r 1 3) (r 1 2));
  Alcotest.(check bool) "-1/3 > -1/2" true (R.gt (r (-1) 3) (r (-1) 2));
  Alcotest.(check int) "sign" (-1) (R.sign (r (-3) 7))

let small = QCheck.int_range (-1000) 1000
let nonzero = QCheck.map (fun n -> if n = 0 then 1 else n) small
let frac = QCheck.map (fun (a, b) -> r a b) QCheck.(pair small nonzero)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:300 ~name gen f)

let properties =
  [
    prop "add commutative" QCheck.(pair frac frac) (fun (a, b) ->
        R.equal (R.add a b) (R.add b a));
    prop "mul associative" QCheck.(triple frac frac frac) (fun (a, b, c) ->
        R.equal (R.mul a (R.mul b c)) (R.mul (R.mul a b) c));
    prop "distributivity" QCheck.(triple frac frac frac) (fun (a, b, c) ->
        R.equal (R.mul a (R.add b c)) (R.add (R.mul a b) (R.mul a c)));
    prop "sub then add" QCheck.(pair frac frac) (fun (a, b) ->
        R.equal a (R.add (R.sub a b) b));
    prop "inv . inv" frac (fun a -> R.is_zero a || R.equal a (R.inv (R.inv a)));
    prop "floor <= x < floor+1" frac (fun a ->
        let f = R.of_num (R.floor a) in
        R.le f a && R.lt a (R.add f R.one));
    prop "normalised: den positive and coprime" frac (fun a ->
        B.sign (R.den a) = 1 && B.equal (B.gcd (R.num a) (R.den a)) B.one
        || (R.is_zero a && B.equal (R.den a) B.one));
  ]

let () =
  Alcotest.run "rat"
    [
      ( "unit",
        [
          Alcotest.test_case "normalisation" `Quick test_normalisation;
          Alcotest.test_case "zero denominator" `Quick test_zero_denominator;
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "floor/ceil" `Quick test_floor_ceil;
          Alcotest.test_case "compare" `Quick test_compare;
        ] );
      ("properties", properties);
    ]
