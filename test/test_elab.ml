open Dml_core

let check_ok name src =
  match Pipeline.check_valid_s (Session.create ()) src with
  | Ok report -> report
  | Error msg -> Alcotest.failf "%s: %s" name msg

let check_fails name src =
  match Pipeline.check_s (Session.create ()) src with
  | Error f -> Alcotest.failf "%s: failed before solving: %s" name (Pipeline.failure_to_string f)
  | Ok report ->
      if report.Pipeline.rp_valid then Alcotest.failf "%s: expected unproven constraints" name

let check_static_error name src =
  match Pipeline.check_s (Session.create ()) src with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected a static error" name

(* --- Figure 1: dot product ------------------------------------------------ *)

let dotprod_src =
  {|
fun dotprod(v1, v2) = let
  fun loop(i, n, sum) =
    if i = n then sum
    else loop(i+1, n, sum + sub(v1, i) * sub(v2, i))
  where loop <| {n:nat | n <= p} {i:nat | i <= n} int(i) * int(n) * int -> int
in
  loop(0, length v1, 0)
end
where dotprod <| {p:nat} {q:nat | p <= q} int array(p) * int array(q) -> int
|}

let test_dotprod () =
  let r = check_ok "dotprod" dotprod_src in
  Alcotest.(check bool) "has constraints" true (r.Pipeline.rp_constraints > 0)

(* the same program with the loop guard changed from i = n to i <= n would
   allow i to reach n and overrun: sub(v1, n) must fail *)
let test_dotprod_bad_guard () =
  check_fails "dotprod bad guard"
    {|
fun dotprod(v1, v2) = let
  fun loop(i, n, sum) =
    if i > n then sum
    else loop(i+1, n, sum + sub(v1, i) * sub(v2, i))
  where loop <| {n:nat | n <= p} {i:nat | i <= n} int(i) * int(n) * int -> int
in
  loop(0, length v1, 0)
end
where dotprod <| {p:nat} {q:nat | p <= q} int array(p) * int array(q) -> int
|}

(* swapping p and q must fail: v2 may be shorter *)
let test_dotprod_swapped () =
  check_fails "dotprod swapped arrays"
    {|
fun dotprod(v1, v2) = let
  fun loop(i, n, sum) =
    if i = n then sum
    else loop(i+1, n, sum + sub(v1, i) * sub(v2, i))
  where loop <| {n:nat | n <= p} {i:nat | i <= n} int(i) * int(n) * int -> int
in
  loop(0, length v2, 0)
end
where dotprod <| {p:nat} {q:nat | p <= q} int array(p) * int array(q) -> int
|}

(* --- Figure 2: reverse ------------------------------------------------------- *)

let reverse_src =
  {|
fun reverse(l) = let
  fun rev(nil, ys) = ys
    | rev(x::xs, ys) = rev(xs, x::ys)
  where rev <| {m:nat} {n:nat} 'a list(m) * 'a list(n) -> 'a list(m+n)
in
  rev(l, nil)
end
where reverse <| {n:nat} 'a list(n) -> 'a list(n)
|}

let test_reverse () = ignore (check_ok "reverse" reverse_src)

(* reverse with a wrong invariant: claiming the result has length m must fail *)
let test_reverse_wrong_length () =
  check_fails "reverse wrong length"
    {|
fun reverse(l) = let
  fun rev(nil, ys) = ys
    | rev(x::xs, ys) = rev(xs, x::ys)
  where rev <| {m:nat} {n:nat} 'a list(m) * 'a list(n) -> 'a list(m)
in
  rev(l, nil)
end
where reverse <| {n:nat} 'a list(n) -> 'a list(n)
|}

(* --- filter: existential result ----------------------------------------------- *)

let filter_src =
  {|
fun filter p nil = nil
  | filter p (x::xs) = if p(x) then x :: (filter p xs) else filter p xs
where filter <| {m:nat} ('a -> bool) -> 'a list(m) -> [n:nat | n <= m] 'a list(n)
|}

let test_filter () = ignore (check_ok "filter" filter_src)

(* claiming filter preserves length exactly must fail *)
let test_filter_exact () =
  check_fails "filter exact length"
    {|
fun filter p nil = nil
  | filter p (x::xs) = if p(x) then x :: (filter p xs) else filter p xs
where filter <| {m:nat} ('a -> bool) -> 'a list(m) -> 'a list(m)
|}

(* --- Figure 3: binary search ----------------------------------------------------- *)

let bsearch_src =
  {|
fun('a){size:nat} bsearch cmp (key, arr) = let
  fun look(lo, hi) =
    if hi >= lo then
      let
        val m = lo + (hi - lo) div 2
        val x = sub(arr, m)
      in
        case cmp(key, x) of
          LESS => look(lo, m-1)
        | EQUAL => SOME(m, x)
        | GREATER => look(m+1, hi)
      end
    else NONE
  where look <| {l:nat | 0 <= l <= size} {h:int | 0 <= h+1 <= size}
               int(l) * int(h) -> (int * 'a) option
in
  look(0, length arr - 1)
end
where bsearch <| ('a * 'a -> order) -> 'a * 'a array(size) -> (int * 'a) option
|}

let test_bsearch () = ignore (check_ok "bsearch" bsearch_src)

(* off-by-one: starting at length arr (not length arr - 1) must fail *)
let test_bsearch_off_by_one () =
  check_fails "bsearch off by one"
    {|
fun('a){size:nat} bsearch cmp (key, arr) = let
  fun look(lo, hi) =
    if hi >= lo then
      let
        val m = lo + (hi - lo) div 2
        val x = sub(arr, m)
      in
        case cmp(key, x) of
          LESS => look(lo, m-1)
        | EQUAL => SOME(m, x)
        | GREATER => look(m+1, hi)
      end
    else NONE
  where look <| {l:nat | 0 <= l <= size} {h:int | 0 <= h+1 <= size}
               int(l) * int(h) -> (int * 'a) option
in
  look(0, length arr)
end
where bsearch <| ('a * 'a -> order) -> 'a * 'a array(size) -> (int * 'a) option
|}

(* --- smaller checks ------------------------------------------------------------------ *)

let test_literal_bounds () =
  ignore
    (check_ok "constant index"
       {|
val a = array(3, 0)
val x = sub(a, 2)
|});
  check_fails "constant overrun" {|
val a = array(3, 0)
val x = sub(a, 3)
|};
  check_fails "negative index" {|
val a = array(3, 0)
val x = sub(a, ~1)
|};
  (* n's sort mentions m: applying pick opens both binders, and n's
     refinement must speak of m's instance, not of the signature's m *)
  ignore
    (check_ok "later sort mentions an earlier binder"
       {|
fun pick(m, n) = n
where pick <| {m:nat} {n:nat | n < m} int(m) * int(n) -> int(n)
val x = pick(5, 3)
|});
  check_fails "earlier binder bounds a later one"
    {|
fun pick(m, n) = n
where pick <| {m:nat} {n:nat | n < m} int(m) * int(n) -> int(n)
val x = pick(3, 5)
|};
  (* applied to m alone, pick's type keeps n's binder, whose sort must then
     speak of the solved m *)
  ignore
    (check_ok "partial application keeps a later binder's sort"
       {|
fun pick m n = n
where pick <| {m:nat} {n:nat | n < m} int(m) -> int(n) -> int(n)
val f = pick 5
val x = f 3
|});
  check_fails "partial application bounds the later binder"
    {|
fun pick m n = n
where pick <| {m:nat} {n:nat | n < m} int(m) -> int(n) -> int(n)
val f = pick 5
val x = f 7
|}

let test_update () =
  ignore
    (check_ok "update in loop"
       {|
fun fill(a) = let
  fun loop(i, m) =
    if i < m then (update(a, i, i); loop(i+1, m)) else ()
  where loop <| {i:nat} int(i) * int(n) -> unit
in
  loop(0, length a)
end
where fill <| {n:nat} int array(n) -> unit
|});
  check_fails "update past end"
    {|
fun fill(a) = let
  fun loop(i, m) =
    if i <= m then (update(a, i, i); loop(i+1, m)) else ()
  where loop <| {i:nat} int(i) * int(n) -> unit
in
  loop(0, length a)
end
where fill <| {n:nat} int array(n) -> unit
|}

let test_checked_variants_always_ok () =
  (* subCK needs no proof even with unknowable indices *)
  ignore
    (check_ok "subCK"
       {|
fun get(a, i) = subCK(a, i)
where get <| int array * int -> int
|})

let test_unannotated_passthrough () =
  (* plain ML code with no annotations elaborates with no constraints *)
  let r =
    check_ok "plain ML" {|
fun double(x) = x + x
val y = double(21)
|}
  in
  ignore r

let test_list_ops () =
  ignore
    (check_ok "hd/tl safe"
       {|
fun second(l) = hd(tl(l))
where second <| {n:nat | n >= 2} 'a list(n) -> 'a
|});
  check_fails "hd of possibly-empty tl" {|
fun second(l) = hd(tl(l))
where second <| {n:nat | n >= 1} 'a list(n) -> 'a
|};
  ignore
    (check_ok "nth in range"
       {|
fun third(l) = nth(l, 2)
where third <| {n:nat | n > 2} 'a list(n) -> 'a
|})

let test_append () =
  ignore
    (check_ok "append"
       {|
fun append(nil, ys) = ys
  | append(x::xs, ys) = x :: append(xs, ys)
where append <| {m:nat} {n:nat} 'a list(m) * 'a list(n) -> 'a list(m+n)
|})

let test_zip () =
  ignore
    (check_ok "zip of equal lengths"
       {|
fun zip(nil, nil) = nil
  | zip(x::xs, y::ys) = (x, y) :: zip(xs, ys)
where zip <| {n:nat} 'a list(n) * 'b list(n) -> ('a * 'b) list(n)
|})

let test_static_errors () =
  check_static_error "nonexistent index var" {|
fun f(x) = x
where f <| int(z) -> int(z)
|};
  check_static_error "bool index on int" {|
fun f(x) = x
where f <| {b:bool} int(b) -> int(b)
|};
  check_static_error "wrong index count"
    {|
fun f(x) = x
where f <| {m:int} {n:int} int(m, n) -> int
|}

let test_existential_elimination_path () =
  (* a Sigma-typed intermediary flows into an indexed position: the witness
     must be recovered (the Section 3.1 machinery) *)
  ignore
    (check_ok "sigma to pi"
       {|
fun clamp(n) = if n < 0 then 0 else n
where clamp <| int -> [r:nat] int(r)

fun safe_get(a, i) =
  let val j = clamp(i) in
    if j < length a then sub(a, j) else sub(a, 0)
  end
where safe_get <| {n:nat | n > 0} int array(n) * int -> int
|})

let test_andalso_guard () =
  ignore
    (check_ok "andalso guards the second operand"
       {|
fun get(a, i) =
  if 0 <= i andalso i < length a then sub(a, i) else 0
where get <| int array * int -> int
|});
  check_fails "or does not guard"
    {|
fun get(a, i) =
  if 0 <= i orelse i < length a then sub(a, i) else 0
where get <| int array * int -> int
|}

let test_bool_singleton_through_case () =
  (* the scrutinee's boolean index becomes a hypothesis through the
     true/false patterns, not just through if *)
  ignore
    (check_ok "case on a comparison"
       {|
fun get(a, i) =
  case 0 <= i andalso i < length a of
    true => sub(a, i)
  | false => 0
where get <| int array * int -> int
|});
  check_fails "case with swapped arms"
    {|
fun get(a, i) =
  case 0 <= i andalso i < length a of
    false => sub(a, i)
  | true => 0
where get <| int array * int -> int
|}

let test_indexed_element_type_preserved () =
  (* the instantiation 'a := int array(c) keeps its index through sub, so
     the result can be a singleton of the inner dimension *)
  ignore
    (check_ok "row length is c"
       {|
fun rowlen(m) = length (sub(m, 0))
where rowlen <| {r:nat | r > 0} {c:nat} int array(c) array(r) -> int(c)
|});
  check_fails "wrong singleton result"
    {|
fun rowlen(m) = length (sub(m, 0))
where rowlen <| {r:nat | r > 0} {c:nat} int array(c) array(r) -> int(c+1)
|}

let test_sigma_pair_binding () =
  ignore
    (check_ok "existential pair"
       {|
fun halves(n) = (n div 2, n - n div 2)
where halves <| {n:nat} int(n) -> [p:nat, q:nat | p + q = n] (int(p) * int(q))
|});
  check_fails "wrong pair invariant"
    {|
fun halves(n) = (n div 2, n div 2)
where halves <| {n:nat} int(n) -> [p:nat, q:nat | p + q = n] (int(p) * int(q))
|}


(* --- Substitution into dependent types ------------------------------------------- *)

let test_dtype_subst () =
  let open Dml_index in
  let a = Ivar.fresh "a" and c = Ivar.fresh "c" and p = Ivar.fresh "p" and q = Ivar.fresh "q" in
  let seven = Idx.Iconst 7 and nine = Idx.Iconst 9 in
  let ints l = List.fold_left (fun m (v, e) -> Ivar.Map.add v e m) Ivar.Map.empty l in
  let check what want got =
    Alcotest.(check string) what (Dtype.to_string want) (Dtype.to_string got);
    Alcotest.(check bool) (what ^ " (structurally)") true (want = got)
  in
  (* a Pi binder hides its own variable; the occurrence outside it is replaced *)
  let shadow = Dtype.Dpi (a, Idx.Sint, Dtype.int_ (Idx.Ivar a)) in
  check "shadowing Pi binder"
    (Dtype.Darrow (Dtype.int_ seven, shadow))
    (Dtype.subst (ints [ (a, seven) ]) Ivar.Map.empty
       (Dtype.Darrow (Dtype.int_ (Idx.Ivar a), shadow)));
  (* a subset sort's binder hides its own variable from its condition *)
  let sort x = Idx.Ssubset (a, Idx.Sint, Idx.cmp Idx.Rlt (Idx.Ivar a) x) in
  check "subset-sort binder"
    (Dtype.Dsigma (p, sort nine, Dtype.int_ (Idx.Ivar p)))
    (Dtype.subst (ints [ (a, seven); (c, nine) ]) Ivar.Map.empty
       (Dtype.Dsigma (p, sort (Idx.Ivar c), Dtype.int_ (Idx.Ivar p))));
  (* a bool-sorted variable is renamed at its Bvar occurrences, by subst
     and by the prefix opener alike *)
  let renamed = Dtype.bool_ (Idx.bnot (Idx.Bvar q)) in
  check "bool-sorted variable"
    renamed
    (Dtype.subst (ints [ (p, Idx.Ivar q) ]) (Ivar.Map.singleton p (Idx.Bvar q))
       (Dtype.bool_ (Idx.bnot (Idx.Bvar p))));
  check "bool-sorted binder opened"
    renamed
    (Dtype.open_prefix
       ~pi:(fun _ _ -> q)
       (Dtype.Dpi (p, Idx.Sbool, Dtype.bool_ (Idx.bnot (Idx.Bvar p)))));
  Alcotest.(check bool) "empty maps return the type itself" true
    (Dtype.subst Ivar.Map.empty Ivar.Map.empty shadow == shadow)

(* --- Elaboration golden ----------------------------------------------------- *)

(* Every corpus program and its erased twin, elaborated through the
   pipeline's front end, recorded as one row: obligation count, goal count
   after existential elimination, and the MD5 of the rendered obligations
   before and after elimination.  Nothing in the solver reads this far
   upstream, so a change to elaboration, substitution or quantifier
   closing that alters a single constraint node shows up here even when
   every verdict survives.

   Regenerating after an intentional change to the generated constraints:
     DML_OBLIGATIONS_GOLDEN=$PWD/test/obligations_golden.txt \
       dune exec test/test_elab.exe -- test golden *)

module Pr = Dml_programs.Programs
open Dml_constr

let obligation_row name src =
  match Pipeline.frontend src with
  | Error f -> Alcotest.failf "%s: %s" name (Pipeline.failure_to_string f)
  | Ok fe ->
      let constrs = List.map (fun ob -> ob.Elab.ob_constr) fe.Pipeline.fe_obligations in
      let eliminated = List.map Constr.eliminate_existentials constrs in
      let goals =
        List.fold_left
          (fun n phi -> match Constr.goals phi with Ok gs -> n + List.length gs | Error _ -> n)
          0 eliminated
      in
      let digest phis =
        Digest.to_hex (Digest.string (String.concat "\n" (List.map Constr.to_string phis)))
      in
      Printf.sprintf "%s\t%d\t%d\t%s\t%s" name (List.length constrs) goals (digest constrs)
        (digest eliminated)

let obligation_rows () =
  List.concat_map
    (fun (b : Pr.benchmark) ->
      [
        obligation_row b.Pr.name b.Pr.source;
        obligation_row (b.Pr.name ^ ":unannotated") (Pr.unannotated b);
      ])
    Pr.all

let obligations_golden_path () =
  if Sys.file_exists "obligations_golden.txt" then "obligations_golden.txt"
  else "test/obligations_golden.txt"

let test_obligations_golden () =
  let got = String.concat "\n" (obligation_rows ()) ^ "\n" in
  match Sys.getenv_opt "DML_OBLIGATIONS_GOLDEN" with
  | Some out ->
      Out_channel.with_open_bin out (fun oc -> output_string oc got);
      print_endline ("wrote golden obligations to " ^ out)
  | None ->
      let want = In_channel.with_open_bin (obligations_golden_path ()) In_channel.input_all in
      Alcotest.(check string) "obligation rows match the golden file" want got

let () =
  Alcotest.run "elab"
    [
      ( "paper figures",
        [
          Alcotest.test_case "Figure 1: dotprod" `Quick test_dotprod;
          Alcotest.test_case "dotprod bad guard" `Quick test_dotprod_bad_guard;
          Alcotest.test_case "dotprod swapped" `Quick test_dotprod_swapped;
          Alcotest.test_case "Figure 2: reverse" `Quick test_reverse;
          Alcotest.test_case "reverse wrong invariant" `Quick test_reverse_wrong_length;
          Alcotest.test_case "filter (existential)" `Quick test_filter;
          Alcotest.test_case "filter exact (rejected)" `Quick test_filter_exact;
          Alcotest.test_case "Figure 3: bsearch" `Quick test_bsearch;
          Alcotest.test_case "bsearch off-by-one" `Quick test_bsearch_off_by_one;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "literal bounds" `Quick test_literal_bounds;
          Alcotest.test_case "update" `Quick test_update;
          Alcotest.test_case "checked variants" `Quick test_checked_variants_always_ok;
          Alcotest.test_case "plain ML passthrough" `Quick test_unannotated_passthrough;
          Alcotest.test_case "list operations" `Quick test_list_ops;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "append" `Quick test_append;
          Alcotest.test_case "zip" `Quick test_zip;
          Alcotest.test_case "existential elimination" `Quick test_existential_elimination_path;
          Alcotest.test_case "andalso guard" `Quick test_andalso_guard;
          Alcotest.test_case "bool singleton through case" `Quick
            test_bool_singleton_through_case;
          Alcotest.test_case "indexed element types" `Quick test_indexed_element_type_preserved;
          Alcotest.test_case "existential pairs" `Quick test_sigma_pair_binding;
          Alcotest.test_case "substitution into types" `Quick test_dtype_subst;
        ] );
      ( "static errors",
        [ Alcotest.test_case "resolution errors" `Quick test_static_errors ] );
      ( "golden",
        [ Alcotest.test_case "corpus obligations" `Quick test_obligations_golden ] );
    ]
