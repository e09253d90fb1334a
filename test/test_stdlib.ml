(* The DML standard library (lib/programs/stdlib_dml.ml): type checks,
   every function agrees with its OCaml counterpart on random inputs, and
   invariant-breaking mutants are rejected. *)

open Dml_core
open Dml_eval
open Value

let report =
  lazy
    (match Pipeline.check_valid_s (Session.create ()) Dml_programs.Stdlib_dml.source with
    | Ok r -> r
    | Error msg -> Alcotest.failf "stdlib: %s" msg)

let env =
  lazy
    (let r = Lazy.force report in
     let ce = Compile.initial_fast Prims.Unchecked () in
     Compile.run_program ce r.Pipeline.rp_tprog)

let fn name = Compile.lookup (Lazy.force env) name
let call = as_fun
let call2 f a b = as_fun (as_fun f a) b
let value = Alcotest.testable Value.pp Value.equal

let rng = ref 11

let next bound =
  rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
  !rng mod bound

let random_list n = List.init n (fun _ -> next 1000)

let test_typechecks () =
  let r = Lazy.force report in
  Alcotest.(check bool) "constraints generated" true (r.Pipeline.rp_constraints > 20)

let test_append () =
  for _ = 1 to 20 do
    let a = random_list (next 30) and b = random_list (next 30) in
    Alcotest.check value "append" (of_int_list (a @ b))
      (call (fn "append") (Vtuple [| of_int_list a; of_int_list b |]))
  done

let test_map () =
  let double = Vfun (fun v -> Vint (2 * as_int v)) in
  for _ = 1 to 20 do
    let a = random_list (next 40) in
    Alcotest.check value "map" (of_int_list (List.map (fun x -> 2 * x) a))
      (call2 (fn "map") double (of_int_list a))
  done

let test_zip_unzip () =
  for _ = 1 to 20 do
    let n = next 30 in
    let a = random_list n and b = random_list n in
    let zipped = call (fn "zip") (Vtuple [| of_int_list a; of_int_list b |]) in
    let unzipped = call (fn "unzip") zipped in
    Alcotest.check value "unzip (zip a b) = (a, b)"
      (Vtuple [| of_int_list a; of_int_list b |])
      unzipped
  done

let take_ocaml l i = List.filteri (fun j _ -> j < i) l
let drop_ocaml l i = List.filteri (fun j _ -> j >= i) l

let test_take_drop () =
  for _ = 1 to 20 do
    let n = next 30 in
    let a = random_list n in
    let i = if n = 0 then 0 else next (n + 1) in
    Alcotest.check value "take" (of_int_list (take_ocaml a i))
      (call (fn "take") (Vtuple [| of_int_list a; Vint i |]));
    Alcotest.check value "drop" (of_int_list (drop_ocaml a i))
      (call (fn "drop") (Vtuple [| of_int_list a; Vint i |]))
  done

let test_last () =
  Alcotest.check value "last" (Vint 3) (call (fn "last") (of_int_list [ 1; 2; 3 ]));
  Alcotest.check value "last singleton" (Vint 9) (call (fn "last") (of_int_list [ 9 ]))

let test_sorts () =
  List.iter
    (fun name ->
      for _ = 1 to 15 do
        let a = random_list (next 60) in
        Alcotest.check value name
          (of_int_list (List.sort compare a))
          (call (fn name) (of_int_list a))
      done)
    [ "isort"; "msort" ]

let test_merge () =
  for _ = 1 to 20 do
    let a = List.sort compare (random_list (next 30)) in
    let b = List.sort compare (random_list (next 30)) in
    Alcotest.check value "merge"
      (of_int_list (List.merge compare a b))
      (call (fn "merge") (Vtuple [| of_int_list a; of_int_list b |]))
  done

let test_split () =
  for _ = 1 to 20 do
    let n = next 40 in
    let a = random_list n in
    match call (fn "split") (of_int_list a) with
    | Vtuple [| l; r |] ->
        let l = to_int_list l and r = to_int_list r in
        Alcotest.(check int) "split lengths" n (List.length l + List.length r);
        Alcotest.(check (list int)) "split partition" (List.sort compare a)
          (List.sort compare (l @ r))
    | v -> Alcotest.failf "split: %s" (Value.to_string v)
  done

let test_array_utilities () =
  (* afill *)
  let a = of_int_array (Array.make 10 0) in
  ignore (call (fn "afill") (Vtuple [| a; Vint 7 |]));
  Alcotest.check value "afill" (of_int_array (Array.make 10 7)) a;
  (* amap *)
  let src = Array.init 12 (fun i -> i) in
  let dst = of_int_array (Array.make 12 0) in
  let inc = Vfun (fun v -> Vint (as_int v + 1)) in
  ignore (call (fn "amap") (Vtuple [| inc; of_int_array src; dst |]));
  Alcotest.check value "amap" (of_int_array (Array.map (fun x -> x + 1) src)) dst;
  (* afoldl *)
  let plus = Vfun (function Vtuple [| a; b |] -> Vint (as_int a + as_int b) | _ -> assert false) in
  let sum = call (fn "afoldl") (Vtuple [| plus; Vint 0; of_int_array src |]) in
  Alcotest.check value "afoldl" (Vint (Array.fold_left ( + ) 0 src)) sum;
  (* amax *)
  for _ = 1 to 10 do
    let n = 1 + next 30 in
    let data = Array.init n (fun _ -> next 10000) in
    Alcotest.check value "amax"
      (Vint (Array.fold_left max data.(0) data))
      (call (fn "amax") (of_int_array data))
  done;
  (* arev, odd and even lengths *)
  List.iter
    (fun n ->
      let data = Array.init n (fun i -> i * 3) in
      let v = of_int_array data in
      ignore (call (fn "arev") v);
      let expected = Array.init n (fun i -> data.(n - 1 - i)) in
      Alcotest.check value (Printf.sprintf "arev %d" n) (of_int_array expected) v)
    [ 0; 1; 2; 7; 8 ]

(* --- invariant-breaking mutants are rejected ---------------------------------- *)

let rejected name src =
  match Pipeline.check_s (Session.create ()) src with
  | Error _ -> ()
  | Ok r ->
      if r.Pipeline.rp_valid then Alcotest.failf "%s: mutant unexpectedly accepted" name

let test_mutants () =
  rejected "insert that drops elements"
    {|
fun insert(x, nil) = x :: nil
  | insert(x, y :: ys) = if x <= y then x :: ys else y :: insert(x, ys)
where insert <| {n:nat} int * int list(n) -> int list(n+1)
|};
  rejected "take that takes one extra"
    {|
fun take(nil, i) = nil
  | take(x :: xs, i) = if i = 0 then x :: nil else x :: take(xs, i - 1)
where take <| {n:nat} {i:nat | i <= n} 'a list(n) * int(i) -> 'a list(i)
|};
  rejected "merge that forgets a side"
    {|
fun merge(nil, ys) = ys
  | merge(xs, nil) = nil
  | merge(x :: xs, y :: ys) =
      if x <= y then x :: merge(xs, y :: ys) else y :: merge(x :: xs, ys)
where merge <| {m:nat} {n:nat} int list(m) * int list(n) -> int list(m+n)
|};
  rejected "arev reading past the end"
    {|
fun arev(a) = let
  val half = length a div 2
  fun loop(i) =
    if i < half then
      let val t = sub(a, i) in
        (update(a, i, sub(a, length a - i));
         update(a, length a - i, t);
         loop(i + 1))
      end
    else ()
  where loop <| {i:nat} int(i) -> unit
in
  loop(0)
end
where arev <| {n:nat} int array(n) -> unit
|};
  rejected "amax on possibly-empty array"
    {|
fun amax(a) = let
  fun loop(i, m, best) =
    if i < m then
      (if sub(a, i) > best then loop(i + 1, m, sub(a, i)) else loop(i + 1, m, best))
    else best
  where loop <| {i:nat | i > 0} int(i) * int(n) * int -> int
in
  loop(1, length a, sub(a, 0))
end
where amax <| {n:nat} int array(n) -> int
|}

let () =
  Alcotest.run "stdlib"
    [
      ( "lists",
        [
          Alcotest.test_case "typechecks" `Quick test_typechecks;
          Alcotest.test_case "append" `Quick test_append;
          Alcotest.test_case "map" `Quick test_map;
          Alcotest.test_case "zip/unzip" `Quick test_zip_unzip;
          Alcotest.test_case "take/drop" `Quick test_take_drop;
          Alcotest.test_case "last" `Quick test_last;
          Alcotest.test_case "insertion and merge sort" `Quick test_sorts;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "split" `Quick test_split;
        ] );
      ("arrays", [ Alcotest.test_case "afill/amap/afoldl/amax/arev" `Quick test_array_utilities ]);
      ("mutants", [ Alcotest.test_case "rejected" `Quick test_mutants ]);
    ]
