(* Text scanning over the length-indexed string family: every character
   access in the scanners is proven in bounds and compiled unchecked; the
   one access the checker cannot prove (head of a possibly-empty string)
   uses the checked primitive and an in-language handler.

   Run with: dune exec examples/text_scan.exe *)

open Dml_core
open Dml_eval

let source =
  {|
fun countChar(s, c) = let
  val n = size(s)
  fun loop(i, acc) =
    if i < n then
      (if ceq(string_sub(s, i), c) then loop(i + 1, acc + 1) else loop(i + 1, acc))
    else acc
  where loop <| {i:nat} int(i) * int -> int
in
  loop(0, 0)
end
where countChar <| {n:nat} string(n) * char -> int

fun countWords(s) = let
  val n = size(s)
  fun loop(i, inWord, acc) =
    if i < n then
      (if ceq(string_sub(s, i), #" ")
       then loop(i + 1, false, acc)
       else if inWord then loop(i + 1, true, acc)
       else loop(i + 1, true, acc + 1))
    else acc
  where loop <| {i:nat} int(i) * bool * int -> int
in
  loop(0, false, 0)
end
where countWords <| {n:nat} string(n) -> int

fun headOr(s, dflt) = string_subCK(s, 0) handle Subscript => dflt
where headOr <| string * char -> char
|}

let () =
  let report =
    match Pipeline.check_valid_s (Session.create ()) source with
    | Ok r -> r
    | Error msg -> failwith msg
  in
  Format.printf "text scanner checks: %d constraints, all proven.@."
    report.Pipeline.rp_constraints;
  let counters = Prims.new_counters () in
  let ce = Compile.initial_fast Prims.Unchecked ~counters () in
  let ce = Compile.run_program ce report.Pipeline.rp_tprog in
  let call1 name a = Value.as_fun (Compile.lookup ce name) a in
  let call2 name a b = Value.as_fun (Compile.lookup ce name) (Value.Vtuple [| a; b |]) in

  let text = "the quick brown fox jumps over the lazy dog" in
  let vtext = Value.Vstring text in
  Format.printf "text: %S@." text;
  Format.printf "words: %a@." Value.pp (call1 "countWords" vtext);
  List.iter
    (fun c ->
      Format.printf "count %C = %a@." c Value.pp (call2 "countChar" vtext (Value.Vchar c)))
    [ 'o'; 'q'; 'z' ];
  Format.printf "headOr \"\" '?' = %a@." Value.pp
    (call2 "headOr" (Value.Vstring "") (Value.Vchar '?'));
  Format.printf "unchecked character accesses: %d, residual checks: %d@."
    counters.Prims.eliminated_checks counters.Prims.dynamic_checks;
  assert (Value.equal (call1 "countWords" vtext) (Value.Vint 9))
