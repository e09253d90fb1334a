open Dml_index
open Dml_constr
open Dml_solver
open Idx

let v = Ivar.fresh

let eq a b = Bcmp (Req, a, b)
let le a b = Bcmp (Rle, a, b)
let lt a b = Bcmp (Rlt, a, b)
let ge a b = Bcmp (Rge, a, b)

let goal vars hyps concl = { Constr.goal_vars = vars; goal_hyps = hyps; goal_concl = concl }

let check_valid ?method_ name g =
  match Solver.check_goal ?method_ g with
  | Solver.Valid -> ()
  | other -> Alcotest.failf "%s: %a" name Solver.pp_verdict other

let check_not_valid ?method_ name g =
  match Solver.check_goal ?method_ g with
  | Solver.Valid -> Alcotest.failf "%s: unexpectedly valid" name
  | Solver.Not_valid _ -> ()
  | other -> Alcotest.failf "%s: %a" name Solver.pp_verdict other

(* --- basic validity ----------------------------------------------------- *)

let test_tautologies () =
  let n = v "n" and m = v "m" in
  check_valid "0 + n = n" (goal [ (n, Sint) ] [] (eq (Iadd (Iconst 0, Ivar n)) (Ivar n)));
  check_valid "(m+1)+n = m+(n+1)"
    (goal
       [ (m, Sint); (n, Sint) ]
       []
       (eq (Iadd (Iadd (Ivar m, Iconst 1), Ivar n)) (Iadd (Ivar m, Iadd (Ivar n, Iconst 1)))));
  check_valid "n <= n" (goal [ (n, Sint) ] [] (le (Ivar n) (Ivar n)));
  check_valid "hyps imply" (goal [ (n, Sint) ] [ ge (Ivar n) (Iconst 3) ] (ge (Ivar n) (Iconst 1)))

let test_invalid () =
  let n = v "n" in
  check_not_valid "n <= 5" (goal [ (n, Sint) ] [] (le (Ivar n) (Iconst 5)));
  check_not_valid "n >= 0 unhyp" (goal [ (n, Sint) ] [] (ge (Ivar n) (Iconst 0)));
  check_not_valid "contradictory-looking"
    (goal [ (n, Sint) ] [ ge (Ivar n) (Iconst 0) ] (lt (Ivar n) (Iconst 100)))

let test_counterexample_hint () =
  let n = v "n" in
  match Solver.check_goal (goal [ (n, Sint) ] [ ge (Ivar n) (Iconst 10) ] (le (Ivar n) (Iconst 20))) with
  | Solver.Not_valid hint ->
      Alcotest.(check bool) "mentions counterexample" true
        (String.length hint > 0
        && String.sub hint 0 (Stdlib.min 14 (String.length hint)) = "counterexample")
  | other -> Alcotest.failf "expected Not_valid, got %a" Solver.pp_verdict other

(* A Gaussian substitution is replayed when the model is rebuilt: the
   substituted variable takes its image's value, so the equality [w0 = w1]
   gets the same counterexample as [w0 <= w1 /\ w0 >= w1], on both lanes. *)
let test_counterexample_substitution () =
  let w0 = v "w0" and w1 = v "w1" in
  let ctx = [ (w0, Sint); (w1, Sint) ] and concl = le (Ivar w0) (Iconst 0) in
  List.iter
    (fun (name, hyps) ->
      List.iter
        (fun lane ->
          match Solver.check_goal ~lane (goal ctx hyps concl) with
          | Solver.Not_valid hint ->
              Alcotest.(check string) name "counterexample: w0 = 1, w1 = 1" hint
          | other -> Alcotest.failf "%s: expected Not_valid, got %a" name Solver.pp_verdict other)
        [ Solver.Lane_bignum; Solver.Lane_native ])
    [
      ("equality", [ eq (Ivar w0) (Ivar w1) ]);
      ("two inequalities", [ le (Ivar w0) (Ivar w1); ge (Ivar w0) (Ivar w1) ]);
    ]

(* --- disjunction, negation, booleans ------------------------------------ *)

let test_boolean_structure () =
  let n = v "n" in
  check_valid "case split"
    (goal
       [ (n, Sint) ]
       [ Bor (le (Ivar n) (Iconst 0), ge (Ivar n) (Iconst 1)) ]
       (Bor (le (Ivar n) (Iconst 0), ge (Ivar n) (Iconst 1))));
  check_valid "ne as or"
    (goal [ (n, Sint) ]
       [ Bcmp (Rne, Ivar n, Iconst 0) ]
       (Bor (le (Ivar n) (Iconst (-1)), ge (Ivar n) (Iconst 1))));
  let b = v "b" in
  check_valid "bool var tautology" (goal [ (b, Sbool) ] [] (Bor (Bvar b, Bnot (Bvar b))));
  check_not_valid "bool var alone" (goal [ (b, Sbool) ] [] (Bvar b));
  check_valid "bool contradiction hyp"
    (goal [ (b, Sbool) ] [ Bvar b; Bnot (Bvar b) ] (Bconst false))

(* --- trichotomy and integrality ----------------------------------------- *)

let test_integrality () =
  let n = v "n" in
  (* over the integers, n > 0 /\ n < 1 is unsat: 1 <= n <= 0 *)
  check_valid "no integer strictly between"
    (goal [ (n, Sint) ] [ Bcmp (Rgt, Ivar n, Iconst 0) ] (ge (Ivar n) (Iconst 1)));
  (* 2n = 1 has no integer solution: hyp is false, anything follows *)
  check_valid "odd/even"
    (goal [ (n, Sint) ] [ eq (Imul (Iconst 2, Ivar n)) (Iconst 1) ] (Bconst false));
  (* 3n = 6 => n = 2 needs the gcd normalisation on equalities *)
  check_valid "divide equality"
    (goal [ (n, Sint) ] [ eq (Imul (Iconst 3, Ivar n)) (Iconst 6) ] (eq (Ivar n) (Iconst 2)))

let test_tightening_ablation () =
  let n = v "n" in
  (* 3 <= 2n <= 3 has no integer solution but a rational one (n = 3/2);
     the tightened FM refutes it, the rational methods cannot. *)
  let g =
    goal [ (n, Sint) ]
      [ le (Iconst 3) (Imul (Iconst 2, Ivar n)); le (Imul (Iconst 2, Ivar n)) (Iconst 3) ]
      (Bconst false)
  in
  check_valid ~method_:Solver.Fm_tightened "tightened refutes" g;
  check_not_valid ~method_:Solver.Simplex_rational "simplex cannot" g

(* --- non-affine operators ------------------------------------------------ *)

let test_div () =
  let h = v "h" and l = v "l" and size = v "size" in
  (* binary search invariant: the paper's Figure 4, first constraint:
     0 <= h+1 <= size /\ 0 <= l <= size /\ h >= l
     implies l + (h - l) div 2 + 1 <= size *)
  let m = Iadd (Ivar l, Idiv (Isub (Ivar h, Ivar l), Iconst 2)) in
  let hyps =
    [
      le (Iconst 0) (Iadd (Ivar h, Iconst 1));
      le (Iadd (Ivar h, Iconst 1)) (Ivar size);
      le (Iconst 0) (Ivar l);
      le (Ivar l) (Ivar size);
      ge (Ivar h) (Ivar l);
    ]
  in
  let ctx = [ (h, Sint); (l, Sint); (size, Sint) ] in
  check_valid "bsearch mid upper" (goal ctx hyps (lt m (Ivar size)));
  check_valid "bsearch mid lower" (goal ctx hyps (ge m (Iconst 0)));
  check_valid "bsearch mid+1 lower" (goal ctx hyps (ge (Iadd (m, Iconst 1)) (Iconst 0)));
  check_valid "bsearch mid-1+1 nonneg" (goal ctx hyps (ge (Iadd (m, Iconst 0)) (Ivar l)));
  (* and an invalid one: m < l is not implied *)
  check_not_valid "mid below lower bound" (goal ctx hyps (lt m (Ivar l)))

let test_min_max_abs_sgn_mod () =
  let a = v "a" and b = v "b" in
  let ctx = [ (a, Sint); (b, Sint) ] in
  check_valid "min <= a" (goal ctx [] (le (Imin (Ivar a, Ivar b)) (Ivar a)));
  check_valid "min is one of" (goal ctx []
     (Bor (eq (Imin (Ivar a, Ivar b)) (Ivar a), eq (Imin (Ivar a, Ivar b)) (Ivar b))));
  check_valid "max >= b" (goal ctx [] (ge (Imax (Ivar a, Ivar b)) (Ivar b)));
  check_valid "abs nonneg" (goal ctx [] (ge (Iabs (Ivar a)) (Iconst 0)));
  check_valid "abs upper" (goal ctx [] (le (Ivar a) (Iabs (Ivar a))));
  check_not_valid "abs not strict" (goal ctx [] (Bcmp (Rgt, Iabs (Ivar a), Iconst 0)));
  check_valid "sgn range"
    (goal ctx []
       (Band (le (Iconst (-1)) (Isgn (Ivar a)), le (Isgn (Ivar a)) (Iconst 1))));
  check_valid "mod bound"
    (goal ctx []
       (Band
          ( le (Iconst 0) (Imod (Ivar a, Iconst 5)),
            le (Imod (Ivar a, Iconst 5)) (Iconst 4) )));
  check_valid "mod decomposition"
    (goal ctx []
       (eq (Ivar a) (Iadd (Imul (Iconst 5, Idiv (Ivar a, Iconst 5)), Imod (Ivar a, Iconst 5)))))

let test_nonlinear_rejected () =
  let a = v "a" and b = v "b" in
  match
    Solver.check_goal (goal [ (a, Sint); (b, Sint) ] [] (ge (Imul (Ivar a, Ivar b)) (Iconst 0)))
  with
  | Solver.Unsupported _ -> ()
  | other -> Alcotest.failf "expected Unsupported, got %a" Solver.pp_verdict other

(* --- Figure 4: all five sample constraints from binary search ------------ *)

let test_figure4 () =
  let h = v "h" and l = v "l" and size = v "size" in
  let ctx = [ (h, Sint); (l, nat); (size, nat) ] in
  let hyps =
    [
      le (Iconst 0) (Iadd (Ivar h, Iconst 1));
      le (Iadd (Ivar h, Iconst 1)) (Ivar size);
      le (Iconst 0) (Ivar l);
      le (Ivar l) (Ivar size);
      ge (Ivar h) (Ivar l);
    ]
  in
  (* m = l + (h - l) div 2 *)
  let m = Iadd (Ivar l, Idiv (Isub (Ivar h, Ivar l), Iconst 2)) in
  (* 1: l + (h-l)/2 < size  (array access at m) *)
  check_valid "fig4 c1" (goal ctx hyps (lt m (Ivar size)));
  (* 2: 0 <= l + (h-l)/2 - 1 + 1  (the recursive call look(lo, m-1)) *)
  check_valid "fig4 c2" (goal ctx hyps (ge (Iadd (Isub (m, Iconst 1), Iconst 1)) (Iconst 0)));
  (* 3: l + (h-l)/2 - 1 + 1 <= size *)
  check_valid "fig4 c3" (goal ctx hyps (le (Iadd (Isub (m, Iconst 1), Iconst 1)) (Ivar size)));
  (* 4: 0 <= l + (h-l)/2 + 1  (the recursive call look(m+1, hi)) *)
  check_valid "fig4 c4" (goal ctx hyps (ge (Iadd (m, Iconst 1)) (Iconst 0)));
  (* 5: l + (h-l)/2 + 1 <= size *)
  check_valid "fig4 c5" (goal ctx hyps (le (Iadd (m, Iconst 1)) (Ivar size)))

(* --- Fourier internals ---------------------------------------------------- *)

let test_fourier_direct () =
  let x = v "x" and y = v "y" in
  let f_x = Linear.var x and f_y = Linear.var y in
  (* x <= 3, y <= 4, -(x + y) + 8 <= 0 i.e. x + y >= 8: unsat *)
  let sys =
    [
      Linear.cstr_le (Linear.sub f_x (Linear.of_int 3));
      Linear.cstr_le (Linear.sub f_y (Linear.of_int 4));
      Linear.cstr_le (Linear.add (Linear.neg (Linear.add f_x f_y)) (Linear.of_int 8));
    ]
  in
  Alcotest.(check bool) "unsat" true (Fourier.check ~tighten:true sys = Fourier.Unsat);
  Alcotest.(check bool) "simplex agrees" true (Simplex.check sys = Simplex.Unsat);
  (* drop the last constraint: sat, and the model must verify *)
  let sys' = [ List.nth sys 0; List.nth sys 1 ] in
  Alcotest.(check bool) "sat" true (Fourier.check ~tighten:true sys' = Fourier.Sat);
  (match Fourier.rational_model sys' with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a model");
  Alcotest.(check bool) "simplex sat" true (Simplex.check sys' = Simplex.Sat)

let test_gauss_substitution () =
  let x = v "x" and y = v "y" and z = v "z" in
  (* x = y + 1, y = z + 1, x <= z: unsat (x = z + 2 > z) *)
  let f v = Linear.var v in
  let sys =
    [
      Linear.cstr_eq (Linear.sub (f x) (Linear.add (f y) (Linear.of_int 1)));
      Linear.cstr_eq (Linear.sub (f y) (Linear.add (f z) (Linear.of_int 1)));
      Linear.cstr_le (Linear.sub (f x) (f z));
    ]
  in
  let stats = Fourier.new_stats () in
  Alcotest.(check bool) "unsat" true (Fourier.check ~stats ~tighten:true sys = Fourier.Unsat);
  (* Gaussian elimination should leave no variables for the FM phase *)
  Alcotest.(check int) "no FM eliminations needed" 0 stats.Fourier.eliminations

(* --- property: FM verdict agrees with brute force on small systems -------- *)

(* Systems [a*x + b*y + c <= 0] of one to five constraints over two
   variables, small enough to search exhaustively. *)
let two_var_systems =
  QCheck.make
    ~print:(fun cs ->
      String.concat "; " (List.map (fun (a, b, c) -> Printf.sprintf "%dx+%dy+%d<=0" a b c) cs))
    QCheck.Gen.(
      list_size (int_range 1 5) (triple (int_range (-4) 4) (int_range (-4) 4) (int_range (-6) 6)))

let prop_fm_vs_bruteforce =
  let x = v "x" and y = v "y" in
  let gen = two_var_systems in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400 ~name:"FM agrees with brute force" gen (fun cs ->
         let sys =
           List.map
             (fun (a, b, c) ->
               Linear.cstr_le
                 (Linear.add
                    (Linear.add
                       (Linear.scale (Dml_numeric.Bigint.of_int a) (Linear.var x))
                       (Linear.scale (Dml_numeric.Bigint.of_int b) (Linear.var y)))
                    (Linear.of_int c)))
             cs
         in
         let brute_sat =
           (* Search the half-integer grid x = xi/2, y = yi/2 with
              xi, yi in [-24, 24]; each constraint becomes
              a*xi + b*yi + 2c <= 0. *)
           let vals = List.init 49 (fun i -> i - 24) in
           List.exists
             (fun xi ->
               List.exists
                 (fun yi ->
                   List.for_all (fun (a, b, c) -> (a * xi) + (b * yi) + (2 * c) <= 0) cs)
                 vals)
             vals
         in
         let fm_sat = Fourier.check ~tighten:false sys = Fourier.Sat in
         (* brute force searches half-integer grid: x = xi/2.  If brute force
            finds a solution, FM must report Sat.  (The converse does not hold
            on a bounded grid.) *)
         (not brute_sat) || fm_sat))

(* --- the opposed-pair pre-pass ------------------------------------------------ *)

let test_opposed_pair () =
  let x = v "x" and y = v "y" in
  let open Linear in
  let f = add (var x) (scale (Dml_numeric.Bigint.of_int 2) (var y)) in
  let k n = of_int n in
  let refutes name expected sys =
    Alcotest.(check bool) name expected (Fourier.opposed_pair sys);
    if expected then
      Alcotest.(check bool) (name ^ ": check agrees") true
        (Fourier.check ~tighten:false sys = Fourier.Unsat)
  in
  (* f <= 2 and f >= 3 *)
  refutes "opposed bounds" true [ cstr_le (sub f (k 2)); cstr_le (add (neg f) (k 3)) ];
  (* f <= 3 and f >= 3 *)
  refutes "touching bounds" false [ cstr_le (sub f (k 3)); cstr_le (add (neg f) (k 3)) ];
  (* f = 5 and f <= 3: the equality bounds f from below too *)
  refutes "equality above a bound" true [ cstr_eq (sub f (k 5)); cstr_le (sub f (k 3)) ];
  refutes "bound below an equality" true [ cstr_le (sub f (k 3)); cstr_eq (sub f (k 5)) ];
  refutes "equality within a bound" false [ cstr_eq (sub f (k 3)); cstr_le (sub f (k 5)) ];
  (* f = 5 and -f = -3, f = 5 and f = 3, f = 5 and -f = -5 *)
  refutes "opposed equalities" true [ cstr_eq (sub f (k 5)); cstr_eq (add (neg f) (k 3)) ];
  refutes "parallel equalities" true [ cstr_eq (sub f (k 5)); cstr_eq (sub f (k 3)) ];
  refutes "one equality twice" false [ cstr_eq (sub f (k 5)); cstr_eq (add (neg f) (k 5)) ];
  (* x + 2y <= 2 and -x + 2y + 3 <= 0 do not cancel *)
  refutes "different variable parts" false
    [ cstr_le (sub f (k 2)); cstr_le (add (sub (scale (Dml_numeric.Bigint.of_int 2) (var y)) (var x)) (k 3)) ];
  (* the pre-pass counts its refutations and leaves the FM counters alone *)
  let stats = Fourier.new_stats () in
  ignore (Fourier.check ~stats ~tighten:true [ cstr_le (sub f (k 2)); cstr_le (add (neg f) (k 3)) ]);
  Alcotest.(check int) "pair_refuted" 1 stats.Fourier.pair_refuted;
  Alcotest.(check int) "no eliminations" 0 stats.Fourier.eliminations

(* Whenever the pair test refutes a normalised system, that system has no
   rational solution (the simplex agrees) and the original has no integer
   one (exhaustive search agrees).  Each generated system is tried as
   drawn and with its first constraint an equality. *)
module Pair_prop
    (L : Linear.S)
    (F : Fourier.S with type num = L.num)
    (S : Simplex.S with type num = L.num) =
struct
  (* [None] when normalisation alone refutes the system *)
  let normalised ~tighten cs =
    List.fold_right
      (fun c acc ->
        match acc with
        | None -> None
        | Some acc -> (
            match L.normalize ~tighten c with
            | None -> Some acc
            | Some c -> if L.is_trivially_false c then None else Some (c :: acc)))
      cs (Some [])

  let prop ~lane ~tighten =
    let x = v "x" and y = v "y" in
    let name = Printf.sprintf "pair refutation is sound (%s lane, tighten %b)" lane tighten in
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:400 ~name two_var_systems (fun cs ->
           let holds ~first_eq i (a, b, c) xi yi =
             let r = (a * xi) + (b * yi) + c in
             if first_eq && i = 0 then r = 0 else r <= 0
           in
           let integer_sat ~first_eq =
             let vals = List.init 49 (fun i -> i - 24) in
             List.exists
               (fun xi ->
                 List.exists
                   (fun yi ->
                     List.for_all Fun.id
                       (List.mapi (fun i abc -> holds ~first_eq i abc xi yi) cs))
                   vals)
               vals
           in
           let system ~first_eq =
             List.mapi
               (fun i (a, b, c) ->
                 let f =
                   L.add
                     (L.add (L.scale (L.N.of_int a) (L.var x)) (L.scale (L.N.of_int b) (L.var y)))
                     (L.of_int c)
                 in
                 if first_eq && i = 0 then L.cstr_eq f else L.cstr_le f)
               cs
           in
           List.for_all
             (fun first_eq ->
               match normalised ~tighten (system ~first_eq) with
               | None -> true
               | Some n ->
                   (not (F.opposed_pair n))
                   || ((not (integer_sat ~first_eq)) && S.check n = Simplex.Unsat))
             [ false; true ]))
end

module Pair_bignum = Pair_prop (Linear) (Fourier) (Simplex)

module Pair_native = struct
  module L = Linear.Make (Dml_numeric.Checked)
  module R = Dml_numeric.Rat.Make (Dml_numeric.Checked)
  include Pair_prop (L) (Fourier.Make (L) (R)) (Simplex.Make (R))
end

let prop_fm_simplex_agree =
  let x = v "x" and y = v "y" and z = v "z" in
  let gen =
    QCheck.make
      ~print:(fun cs ->
        String.concat "; "
          (List.map (fun (a, b, c, d) -> Printf.sprintf "%dx+%dy+%dz+%d<=0" a b c d) cs))
      QCheck.Gen.(
        list_size (int_range 1 6)
          (quad (int_range (-3) 3) (int_range (-3) 3) (int_range (-3) 3) (int_range (-8) 8)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"plain FM and simplex agree (rational)" gen (fun cs ->
         let sys =
           List.map
             (fun (a, b, c, d) ->
               let open Linear in
               cstr_le
                 (add
                    (add
                       (add
                          (scale (Dml_numeric.Bigint.of_int a) (var x))
                          (scale (Dml_numeric.Bigint.of_int b) (var y)))
                       (scale (Dml_numeric.Bigint.of_int c) (var z)))
                    (of_int d)))
             cs
         in
         (* Both are exact over the rationals for pure inequality systems. *)
         (Fourier.check ~tighten:false sys = Fourier.Unsat)
         = (Simplex.check sys = Simplex.Unsat)))

(* property: tightened FM never refutes a system with an integer solution *)
let prop_tighten_sound =
  let x = v "x" and y = v "y" in
  let gen =
    QCheck.make
      ~print:(fun cs ->
        String.concat "; "
          (List.map (fun (a, b, c) -> Printf.sprintf "%dx+%dy+%d<=0" a b c) cs))
      QCheck.Gen.(
        list_size (int_range 1 5)
          (triple (int_range (-5) 5) (int_range (-5) 5) (int_range (-9) 9)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"tightened FM is sound for integers" gen (fun cs ->
         let sys =
           List.map
             (fun (a, b, c) ->
               let open Linear in
               cstr_le
                 (add
                    (add
                       (scale (Dml_numeric.Bigint.of_int a) (var x))
                       (scale (Dml_numeric.Bigint.of_int b) (var y)))
                    (of_int c)))
             cs
         in
         let int_solution_exists =
           let vals = List.init 41 (fun i -> i - 20) in
           List.exists
             (fun xi ->
               List.exists
                 (fun yi ->
                   List.for_all (fun (a, b, c) -> (a * xi) + (b * yi) + c <= 0) cs)
                 vals)
             vals
         in
         (* soundness: a found integer solution implies FM must answer Sat *)
         (not int_solution_exists) || Fourier.check ~tighten:true sys = Fourier.Sat))

(* property: on single-variable systems with divisibility-style gaps, the
   tightened procedure decides integer satisfiability exactly *)
let prop_tighten_exact_1d =
  let x = v "x" in
  let gen =
    QCheck.make
      ~print:(fun (k, lo, hi) -> Printf.sprintf "%d <= %dx <= %d" lo k hi)
      QCheck.Gen.(triple (int_range 1 7) (int_range (-30) 30) (int_range (-30) 30))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"tightened FM exact on k*x in [lo,hi]" gen
       (fun (k, lo, hi) ->
         (* lo <= k*x /\ k*x <= hi *)
         let open Linear in
         let kx = scale (Dml_numeric.Bigint.of_int k) (var x) in
         let sys =
           [ cstr_le (sub (of_int lo) kx); cstr_le (add kx (of_int (-hi))) ]
         in
         let has_int_solution =
           (* exists x: lo <= kx <= hi  <=>  ceil(lo/k) <= floor(hi/k) *)
           let fdiv a b = (a - (((a mod b) + b) mod b)) / b in
           let ceil_div a b = -fdiv (-a) b in
           ceil_div lo k <= fdiv hi k
         in
         (Fourier.check ~tighten:true sys = Fourier.Sat) = has_int_solution))

(* end-to-end soundness across purify + DNF + FM: when the solver declares a
   goal Valid, the formula must hold on every point of a small integer box
   (this exercises the div/mod/min/max/abs encodings of Purify) *)
let prop_goal_soundness =
  let x = v "x" and y = v "y" in
  let gen =
    let open QCheck.Gen in
    let atom_i =
      oneof
        [
          return (Ivar x);
          return (Ivar y);
          map (fun c -> Iconst c) (int_range (-6) 6);
        ]
    in
    let iexp =
      oneof
        [
          atom_i;
          map2 (fun a b -> Iadd (a, b)) atom_i atom_i;
          map2 (fun a b -> Isub (a, b)) atom_i atom_i;
          map2 (fun a b -> Imin (a, b)) atom_i atom_i;
          map2 (fun a b -> Imax (a, b)) atom_i atom_i;
          map (fun a -> Iabs a) atom_i;
          map (fun a -> Isgn a) atom_i;
          map2 (fun a k -> Idiv (a, Iconst k)) atom_i (int_range 1 4);
          map2 (fun a k -> Imod (a, Iconst k)) atom_i (int_range 1 4);
        ]
    in
    let rel = oneofl [ Rlt; Rle; Req; Rne; Rge; Rgt ] in
    let atom_b = map3 (fun r a b -> Bcmp (r, a, b)) rel iexp iexp in
    let bexp =
      oneof
        [
          atom_b;
          map2 (fun a b -> Band (a, b)) atom_b atom_b;
          map2 (fun a b -> Bor (a, b)) atom_b atom_b;
          map (fun a -> Bnot a) atom_b;
        ]
    in
    QCheck.make
      ~print:(fun (hyps, concl) ->
        Printf.sprintf "%s |- %s"
          (String.concat " /\\ " (List.map bexp_to_string hyps))
          (bexp_to_string concl))
      QCheck.Gen.(pair (list_size (int_range 0 2) bexp) bexp)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400 ~name:"Valid goals hold pointwise" gen
       (fun (hyps, concl) ->
         let g = goal [ (x, Sint); (y, Sint) ] hyps concl in
         match Solver.check_goal g with
         | Solver.Not_valid _ | Solver.Unsupported _ | Solver.Timeout _ -> true
         | Solver.Valid ->
             (* check every point of the box *)
             let ok = ref true in
             for xi = -8 to 8 do
               for yi = -8 to 8 do
                 let env =
                   Ivar.Map.add x (Vint xi) (Ivar.Map.singleton y (Vint yi))
                 in
                 let holds b = eval_bexp env b in
                 if List.for_all holds hyps && not (holds concl) then ok := false
               done
             done;
             !ok))

let () =
  Alcotest.run "solver"
    [
      ( "validity",
        [
          Alcotest.test_case "tautologies" `Quick test_tautologies;
          Alcotest.test_case "invalid goals" `Quick test_invalid;
          Alcotest.test_case "counterexample hint" `Quick test_counterexample_hint;
          Alcotest.test_case "counterexample through a substitution" `Quick
            test_counterexample_substitution;
          Alcotest.test_case "boolean structure" `Quick test_boolean_structure;
        ] );
      ( "integers",
        [
          Alcotest.test_case "integrality" `Quick test_integrality;
          Alcotest.test_case "tightening ablation" `Quick test_tightening_ablation;
        ] );
      ( "non-affine",
        [
          Alcotest.test_case "div (binary search)" `Quick test_div;
          Alcotest.test_case "min/max/abs/sgn/mod" `Quick test_min_max_abs_sgn_mod;
          Alcotest.test_case "nonlinear rejected" `Quick test_nonlinear_rejected;
          Alcotest.test_case "Figure 4 constraints" `Quick test_figure4;
        ] );
      ( "internals",
        [
          Alcotest.test_case "fourier direct" `Quick test_fourier_direct;
          Alcotest.test_case "gauss substitution" `Quick test_gauss_substitution;
        ] );
      ( "pair-prepass",
        [
          Alcotest.test_case "opposed pairs" `Quick test_opposed_pair;
          Pair_bignum.prop ~lane:"bignum" ~tighten:true;
          Pair_bignum.prop ~lane:"bignum" ~tighten:false;
          Pair_native.prop ~lane:"native" ~tighten:true;
          Pair_native.prop ~lane:"native" ~tighten:false;
        ] );
      ( "properties",
        [
          prop_fm_vs_bruteforce;
          prop_fm_simplex_agree;
          prop_tighten_sound;
          prop_tighten_exact_1d;
          prop_goal_soundness;
        ]
      );
    ]
