(* Strings and characters, with the length-indexed [string(n)] family:
   string literals are singletons of their length, [string_sub] carries the
   same dependent signature as [sub], and a string-based KMP matcher runs
   with its bound checks eliminated. *)

open Dml_core
open Dml_eval
open Value

let typecheck name src =
  match Pipeline.check_valid_s (Session.create ()) src with
  | Ok r -> r
  | Error msg -> Alcotest.failf "%s: %s" name msg

let run ?counters mode tprog name =
  let ce = Compile.initial_fast mode ?counters () in
  Compile.lookup (Compile.run_program ce tprog) name

let value = Alcotest.testable Value.pp Value.equal

let both name src binding expected =
  let r = typecheck name src in
  Alcotest.check value name expected (run Prims.Checked r.Pipeline.rp_tprog binding);
  Alcotest.check value (name ^ " (unchecked)") expected
    (run Prims.Unchecked r.Pipeline.rp_tprog binding)

let test_literals () =
  both "string literal" {| val s = "hello" |} "s" (Vstring "hello");
  both "escapes" {| val s = "a\nb\t\"c\"\\" |} "s" (Vstring "a\nb\t\"c\"\\");
  both "char literal" {| val c = #"x" |} "c" (Vchar 'x');
  both "empty string" {| val s = "" |} "s" (Vstring "")

let test_operations () =
  both "size of literal" {| val n = size("hello") |} "n" (Vint 5);
  both "concat" {| val s = "foo" ^ "bar" ^ "!" |} "s" (Vstring "foobar!");
  (* ord(c)+1 can be 256, so the checked chr is required for the +1 *)
  both "ord/chr roundtrip" {| val c = chrCK(ord(#"A") + 1) |} "c" (Vchar 'B');
  both "ord/chr exact" {| val c = chr(ord(#"B")) |} "c" (Vchar 'B');
  both "char comparisons" {| val x = (ceq(#"a", #"a"), clt(#"a", #"b")) |} "x"
    (Vtuple [| Vbool true; Vbool true |]);
  both "substring" {| val s = substring("typechecking", 4, 5) |} "s" (Vstring "check");
  both "int_to_string" {| val s = int_to_string(42) ^ "!" |} "s" (Vstring "42!")

let test_singleton_lengths () =
  (* literal indices are exact: in-bounds literal accesses are proven *)
  both "literal access" {| val c = string_sub("hello", 4) |} "c" (Vchar 'o');
  (* out of bounds is rejected statically *)
  (match Pipeline.check_s (Session.create ()) {| val c = string_sub("hello", 5) |} with
  | Ok r when not r.Pipeline.rp_valid -> ()
  | Ok _ -> Alcotest.fail "out-of-bounds literal access accepted"
  | Error f -> Alcotest.failf "unexpected: %s" (Pipeline.failure_to_string f));
  (* concatenation adds lengths at the index level *)
  both "length through concat"
    {|
fun both_sizes(a, b) = size(a ^ b)
where both_sizes <| {m:nat} {n:nat} string(m) * string(n) -> int(m+n)
val x = both_sizes("ab", "cde")
|}
    "x" (Vint 5);
  (* chr of a proven-small value runs unchecked *)
  both "chr proven" {|
fun low(c) = chr(ord(c) mod 256)
where low <| char -> char
val x = low(#"Q")
|} "x" (Vchar 'Q')

let test_string_patterns () =
  both "string patterns"
    {|
fun greet("hi") = 1
  | greet("bye") = 2
  | greet(_) = 0
val x = (greet("hi"), greet("bye"), greet("what"))
|}
    "x"
    (Vtuple [| Vint 1; Vint 2; Vint 0 |]);
  both "char patterns"
    {|
fun classify(#"a") = 1
  | classify(#"b") = 2
  | classify(_) = 0
val x = (classify(#"a"), classify(#"z"))
|}
    "x"
    (Vtuple [| Vint 1; Vint 0 |]);
  (* matching a string literal pins the length index *)
  both "length hypothesis from a string pattern"
    {|
fun f(s) = case s of
    "abc" => string_sub(s, 2)
  | _ => #"?"
where f <| {n:nat} string(n) -> char
val x = f("abc")
|}
    "x" (Vchar 'c')

(* KMP over real strings: the loop invariants transfer verbatim *)
let string_kmp =
  {|
fun kmpString(text, pat) = let
  val tlen = size(text)
  val plen = size(pat)
  fun mloop(s, p) =
    if s < tlen then
      (if p < plen then
        (if ceq(string_sub(text, s), string_sub(pat, p)) then mloop(s + 1, p + 1)
         else if p = 0 then mloop(s + 1, p)
         else mloop(s - p + 1, 0))
       else s - plen)
    else if p = plen then s - plen
    else ~1
  where mloop <| {s:nat} {p:nat | p <= s} int(s) * int(p) -> int
in
  mloop(0, 0)
end
where kmpString <| {t:nat} {q:nat} string(t) * string(q) -> int
|}

let test_string_search () =
  let r = typecheck "string kmp" string_kmp in
  let counters = Prims.new_counters () in
  let f = run ~counters Prims.Unchecked r.Pipeline.rp_tprog "kmpString" in
  let search text pat = as_int (as_fun f (Vtuple [| Vstring text; Vstring pat |])) in
  Alcotest.(check int) "find word" 16 (search "the quick brown fox" "fox");
  Alcotest.(check int) "find at start" 0 (search "abcabc" "abc");
  Alcotest.(check int) "find at end" 4 (search "xxxxyz" "yz");
  Alcotest.(check int) "absent" (-1) (search "aaaa" "ab");
  Alcotest.(check int) "empty pattern" 0 (search "abc" "");
  Alcotest.(check bool) "checks eliminated" true (counters.Prims.eliminated_checks > 0);
  Alcotest.(check int) "no residual checks" 0 counters.Prims.dynamic_checks

let test_subscript_observable () =
  both "string_subCK raises and is handled"
    {|
fun at(s, i) = string_subCK(s, i) handle Subscript => #"?"
val x = (at("hey", 1), at("hey", 9))
|}
    "x"
    (Vtuple [| Vchar 'e'; Vchar '?' |])

let () =
  Alcotest.run "strings"
    [
      ( "values",
        [
          Alcotest.test_case "literals" `Quick test_literals;
          Alcotest.test_case "operations" `Quick test_operations;
          Alcotest.test_case "patterns" `Quick test_string_patterns;
        ] );
      ( "indexed lengths",
        [
          Alcotest.test_case "singleton lengths" `Quick test_singleton_lengths;
          Alcotest.test_case "string search (KMP)" `Quick test_string_search;
          Alcotest.test_case "subscript observable" `Quick test_subscript_observable;
        ] );
    ]
