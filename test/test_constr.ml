open Dml_index
open Dml_constr
open Idx

let v = Ivar.fresh

let eq a b = Bcmp (Req, a, b)
let le a b = Bcmp (Rle, a, b)

(* --- smart constructors ------------------------------------------------ *)

let test_smart () =
  Alcotest.(check bool) "conj top" true (Constr.is_top (Constr.conj Constr.top Constr.top));
  Alcotest.(check bool) "pred true" true (Constr.is_top (Constr.pred (Bconst true)));
  Alcotest.(check bool) "impl false" true
    (Constr.is_top (Constr.impl (Bconst false) (Constr.pred (Bconst false))));
  let n = v "n" in
  Alcotest.(check bool) "vacuous forall dropped" true
    (match Constr.forall n Sint (Constr.pred (le (Iconst 0) (Iconst 1))) with
    | Constr.Forall _ -> false
    | _ -> true)

(* --- the free-variable reference ------------------------------------------ *)

(* The checker once built these sets at every binder to ask whether one
   variable occurs.  They stay here as the reference the occurs walks, and
   the smart constructors built on them, must agree with exactly. *)

let rec fv = function
  | Constr.Top -> Ivar.Set.empty
  | Constr.Pred b -> fv_bexp b
  | Constr.Conj (a, b) -> Ivar.Set.union (fv a) (fv b)
  | Constr.Impl (b, phi) -> Ivar.Set.union (fv_bexp b) (fv phi)
  | Constr.Forall (a, g, phi) | Constr.Exists (a, g, phi) ->
      Ivar.Set.union (fv_bexp (sort_refinement a g)) (Ivar.Set.remove a (fv phi))

let rec fv_sort = function
  | Sint | Sbool -> Ivar.Set.empty
  | Ssubset (a, g, b) -> Ivar.Set.union (fv_sort g) (Ivar.Set.remove a (fv_bexp b))

let rec fv_dtype =
  let open Dml_core.Dtype in
  let union_map f l = List.fold_left (fun acc x -> Ivar.Set.union acc (f x)) Ivar.Set.empty l in
  function
  | Dvar _ -> Ivar.Set.empty
  | Dcon (_, targs, idxs) ->
      Ivar.Set.union (union_map fv_dtype targs)
        (union_map (function Iint i -> fv_iexp i | Ibool b -> fv_bexp b) idxs)
  | Dtuple ts -> union_map fv_dtype ts
  | Darrow (a, b) -> Ivar.Set.union (fv_dtype a) (fv_dtype b)
  | Dpi (a, g, body) | Dsigma (a, g, body) ->
      Ivar.Set.union (fv_sort g) (Ivar.Set.remove a (fv_dtype body))

let forall_ref a g phi =
  match phi with
  | Constr.Top -> Constr.Top
  | _ -> if Ivar.Set.mem a (fv phi) then Constr.Forall (a, g, phi) else phi

let exists_ref a g phi =
  match phi with
  | Constr.Top -> Constr.Top
  | _ -> if Ivar.Set.mem a (fv phi) then Constr.Exists (a, g, phi) else phi

let rec subst_sort_ref s = function
  | (Sint | Sbool) as g -> g
  | Ssubset (a, g, b) -> Ssubset (a, subst_sort_ref s g, subst_bexp (Ivar.Map.remove a s) b)

let rec subst_ref s phi =
  if Ivar.Map.is_empty s then phi
  else
    match phi with
    | Constr.Top -> Constr.Top
    | Constr.Pred b -> Constr.pred (subst_bexp s b)
    | Constr.Conj (a, b) -> Constr.conj (subst_ref s a) (subst_ref s b)
    | Constr.Impl (b, phi) -> Constr.impl (subst_bexp s b) (subst_ref s phi)
    | Constr.Forall (a, g, body) ->
        let a', body' = avoid_capture_ref s a body in
        forall_ref a' (subst_sort_ref s g) (subst_ref (Ivar.Map.remove a s) body')
    | Constr.Exists (a, g, body) ->
        let a', body' = avoid_capture_ref s a body in
        exists_ref a' (subst_sort_ref s g) (subst_ref (Ivar.Map.remove a s) body')

and avoid_capture_ref s a body =
  let s = Ivar.Map.remove a s in
  let image_fv =
    Ivar.Map.fold (fun _ e acc -> Ivar.Set.union (fv_iexp e) acc) s Ivar.Set.empty
  in
  if Ivar.Set.mem a image_fv then begin
    let a' = Ivar.refresh a in
    (a', subst_ref (Ivar.Map.singleton a (Ivar a')) body)
  end
  else (a, body)

let rec candidate_atoms phi acc =
  match phi with
  | Constr.Top -> acc
  | Constr.Pred b -> bexp_atoms b acc
  | Constr.Conj (x, y) -> candidate_atoms x (candidate_atoms y acc)
  | Constr.Impl (b, x) -> bexp_atoms b (candidate_atoms x acc)
  | Constr.Forall (_, _, x) | Constr.Exists (_, _, x) -> candidate_atoms x acc

and bexp_atoms b acc =
  match b with
  | Band (x, y) -> bexp_atoms x (bexp_atoms y acc)
  | Bcmp (Req, _, _) -> b :: acc
  | Bvar _ | Bconst _ | Bcmp _ | Bnot _ | Bor _ -> acc

let rec eliminate_ref phi =
  match phi with
  | Constr.Top | Constr.Pred _ -> phi
  | Constr.Conj (a, b) -> Constr.conj (eliminate_ref a) (eliminate_ref b)
  | Constr.Impl (b, x) -> Constr.impl b (eliminate_ref x)
  | Constr.Forall (a, g, x) -> forall_ref a g (eliminate_ref x)
  | Constr.Exists (a, g, x) ->
      let x = eliminate_ref x in
      let rec try_atoms = function
        | [] -> exists_ref a g x
        | atom :: rest -> (
            match Constr.solve_equation_for a atom with
            | Some witness when not (Ivar.Set.mem a (fv_iexp witness)) ->
                let s = Ivar.Map.singleton a witness in
                let obligation =
                  match sort_refinement a g with
                  | Bconst true -> Constr.Top
                  | refinement -> Constr.pred (subst_bexp s refinement)
                in
                eliminate_ref (Constr.conj obligation (subst_ref s x))
            | _ -> try_atoms rest)
      in
      try_atoms (candidate_atoms x [])

let test_fv_subst () =
  let n = v "n" and m = v "m" in
  let phi = Constr.forall n Sint (Constr.pred (le (Ivar n) (Ivar m))) in
  Alcotest.(check bool) "m free" true (Constr.occurs m phi);
  Alcotest.(check bool) "n bound" false (Constr.occurs n phi);
  (* capture-avoiding: substituting m := n must not capture under forall n *)
  let phi' = Constr.subst (Ivar.Map.singleton m (Ivar n)) phi in
  match phi' with
  | Constr.Forall (n', _, Constr.Pred (Bcmp (Rle, Ivar a, Ivar b))) ->
      Alcotest.(check bool) "binder renamed" true (Ivar.equal a n');
      Alcotest.(check bool) "image is old n" true (Ivar.equal b n)
  | _ -> Alcotest.fail "unexpected shape after substitution"

(* A quantifier's own binder is not free under it: [x := 1] leaves
   [forall x. x > 0] alone, and [x := 1, y := x] substitutes only [y]
   under [exists x], refreshing the binder the image would capture. *)
let test_subst_skips_binder () =
  let x = v "x" and y = v "y" in
  let phi = Constr.forall x Sint (Constr.pred (Bcmp (Rgt, Ivar x, Iconst 0))) in
  Alcotest.(check string) "forall x. x > 0 is closed" (Constr.to_string phi)
    (Constr.to_string (Constr.subst (Ivar.Map.singleton x (Iconst 1)) phi));
  let psi = Constr.exists x Sint (Constr.pred (le (Ivar x) (Ivar y))) in
  let s = Ivar.Map.add x (Iconst 1) (Ivar.Map.singleton y (Ivar x)) in
  match Constr.subst s psi with
  | Constr.Exists (x', _, Constr.Pred (Bcmp (Rle, Ivar a, Ivar b))) ->
      Alcotest.(check bool) "binder refreshed" false (Ivar.equal x' x);
      Alcotest.(check bool) "bound occurrence follows the binder" true (Ivar.equal a x');
      Alcotest.(check bool) "y replaced by the outer x" true (Ivar.equal b x)
  | other -> Alcotest.failf "unexpected shape: %s" (Constr.to_string other)

(* A subset binder scopes over its own condition only, as in
   [Idx.occurs_sort]: under [z := e] the [z] free in the inner sort of
   [{z : {w : bool | w || z >= 1} | 0 <= z}] is substituted, and the bound
   [z] of the outer condition is not. *)
let test_subst_sort_scope () =
  let z = v "z" and w = v "w" in
  let sort inner outer = Ssubset (z, Ssubset (w, Sbool, inner), outer) in
  let show g = Format.asprintf "%a" pp_sort g in
  let g = sort (Bor (Bvar w, Bcmp (Rge, Ivar z, Iconst 1))) (le (Iconst 0) (Ivar z)) in
  Alcotest.(check string) "integer map reaches the inner sort"
    (show (sort (Bor (Bvar w, Bcmp (Rge, Iconst 5, Iconst 1))) (le (Iconst 0) (Ivar z))))
    (show (subst_sort (Ivar.Map.singleton z (Iconst 5)) Ivar.Map.empty g));
  let g = sort (Bor (Bvar w, Bvar z)) (Bvar z) in
  Alcotest.(check string) "boolean map reaches the inner sort"
    (show (sort (bor (Bvar w) (Bconst false)) (Bvar z)))
    (show (subst_sort Ivar.Map.empty (Ivar.Map.singleton z (Bconst false)) g))

(* --- equation solving --------------------------------------------------- *)

let test_solve_equation () =
  let a = v "a" and n = v "n" in
  (* a = 0 *)
  (match Constr.solve_equation_for a (eq (Ivar a) (Iconst 0)) with
  | Some e -> Alcotest.(check bool) "a = 0" true (equal_iexp e (Iconst 0))
  | None -> Alcotest.fail "no solution for a = 0");
  (* a + 1 = n  =>  a = n - 1 *)
  (match Constr.solve_equation_for a (eq (Iadd (Ivar a, Iconst 1)) (Ivar n)) with
  | Some e ->
      Alcotest.(check int) "a = n-1 at n=5" 4
        (eval_iexp (Ivar.Map.singleton n (Vint 5)) e)
  | None -> Alcotest.fail "no solution for a+1 = n");
  (* n = 2*a has coefficient 2: not solvable with unit coefficient *)
  Alcotest.(check bool) "2a unsolvable" true
    (Constr.solve_equation_for a (eq (Ivar n) (Imul (Iconst 2, Ivar a))) = None);
  (* a = a + 1 is not a definition of a *)
  Alcotest.(check bool) "self-referential a" true
    (Constr.solve_equation_for a (eq (Ivar a) (Iadd (Ivar a, Iconst 1))) = None);
  (* non-affine contexts are rejected *)
  Alcotest.(check bool) "div blocks solving" true
    (Constr.solve_equation_for a (eq (Ivar a) (Idiv (Ivar n, Iconst 2))) = None)

(* --- existential elimination (Section 3.1, reverse example) ------------- *)

let test_exelim_reverse_clause1 () =
  (* forall n:nat. exists M:nat. exists N:nat. (M = 0 /\ N = n) => M + N = n *)
  let n = v "n" and mm = v "M" and nn = v "N" in
  let hyp = Band (eq (Ivar mm) (Iconst 0), eq (Ivar nn) (Ivar n)) in
  let concl = Constr.pred (eq (Iadd (Ivar mm, Ivar nn)) (Ivar n)) in
  let phi =
    Constr.forall n nat (Constr.exists mm nat (Constr.exists nn nat (Constr.impl hyp concl)))
  in
  let phi' = Constr.eliminate_existentials phi in
  (* all existentials must be gone *)
  match Constr.goals phi' with
  | Error msg -> Alcotest.fail msg
  | Ok goals ->
      Alcotest.(check bool) "some goals" true (List.length goals >= 1);
      (* every goal should now be valid: 0 + n = n under n >= 0 *)
      List.iter
        (fun g ->
          match Dml_solver.Solver.check_goal g with
          | Dml_solver.Solver.Valid -> ()
          | other ->
              Alcotest.failf "goal not valid: %a / %a" Constr.pp_goal g
                Dml_solver.Solver.pp_verdict other)
        goals

let test_exelim_unsolvable () =
  (* exists a. 2*a = n  has no unit-coefficient defining equation *)
  let n = v "n" and a = v "a" in
  let phi =
    Constr.forall n nat
      (Constr.exists a Sint (Constr.pred (eq (Imul (Iconst 2, Ivar a)) (Ivar n))))
  in
  let phi' = Constr.eliminate_existentials phi in
  match Constr.goals phi' with
  | Error _ -> () (* expected: residual existential reported *)
  | Ok _ -> Alcotest.fail "expected residual existential"

let test_exelim_sort_obligation () =
  (* exists a:nat. a = n - 5 /\ a <= n : witness n-5 must be proved >= 0,
     which fails without a hypothesis n >= 5. *)
  let n = v "n" and a = v "a" in
  let body =
    Constr.conj
      (Constr.pred (eq (Ivar a) (Isub (Ivar n, Iconst 5))))
      (Constr.pred (le (Ivar a) (Ivar n)))
  in
  let phi = Constr.forall n nat (Constr.exists a nat body) in
  let phi' = Constr.eliminate_existentials phi in
  match Constr.goals phi' with
  | Error msg -> Alcotest.fail msg
  | Ok goals ->
      let verdicts = List.map (fun g -> Dml_solver.Solver.check_goal g) goals in
      (* the n - 5 >= 0 obligation must be among the goals and must fail *)
      Alcotest.(check bool) "an obligation fails" true
        (List.exists (function Dml_solver.Solver.Valid -> false | _ -> true) verdicts)

let test_goals_structure () =
  let n = v "n" and i = v "i" in
  let phi =
    Constr.forall n nat
      (Constr.forall i nat
         (Constr.impl (le (Ivar i) (Ivar n))
            (Constr.conj
               (Constr.pred (le (Iconst 0) (Ivar i)))
               (Constr.pred (le (Ivar i) (Iadd (Ivar n, Iconst 1)))))))
  in
  match Constr.goals phi with
  | Error msg -> Alcotest.fail msg
  | Ok goals ->
      Alcotest.(check int) "two goals" 2 (List.length goals);
      List.iter
        (fun g ->
          Alcotest.(check int) "two quantified vars" 2 (List.length g.Constr.goal_vars);
          (* hyps: two sort refinements + the implication antecedent *)
          Alcotest.(check int) "three hyps" 3 (List.length g.Constr.goal_hyps))
        goals

let test_size () =
  let n = v "n" in
  let phi =
    Constr.conj
      (Constr.pred (le (Ivar n) (Iconst 3)))
      (Constr.impl (le (Iconst 0) (Ivar n)) (Constr.pred (eq (Ivar n) (Ivar n))))
  in
  Alcotest.(check int) "size" 3 (Constr.size phi)

(* --- occurs against the reference, on random constraints -------------- *)

(* A small pool of variables, used both free and as binders, so shadowing,
   a quantifier whose own refinement names its binder, and a subset binder
   that is also a free variable elsewhere all come up.  Terms use the raw
   constructors: building a sort refinement re-simplifies them (a product
   with zero, a conjunction with false), which can drop a syntactic
   occurrence, and the walks must see exactly what [fv] sees. *)
let pool = [ v "x"; v "y"; v "z"; v "w" ]

let gen_var = QCheck.Gen.oneofl pool

let gen_iexp =
  let open QCheck.Gen in
  let leaf = oneof [ map (fun a -> Ivar a) gen_var; map (fun n -> Iconst n) (int_bound 2) ] in
  fix
    (fun self n ->
      if n = 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (2, map2 (fun a b -> Iadd (a, b)) (self (n - 1)) (self (n - 1)));
            (1, map2 (fun a b -> Isub (a, b)) (self (n - 1)) (self (n - 1)));
            (2, map2 (fun a b -> Imul (a, b)) (self (n - 1)) (self (n - 1)));
            (1, map2 (fun a b -> Idiv (a, b)) (self (n - 1)) (self (n - 1)));
            (1, map2 (fun a b -> Imin (a, b)) (self (n - 1)) (self (n - 1)));
            (1, map (fun a -> Ineg a) (self (n - 1)));
            (1, map (fun a -> Iabs a) (self (n - 1)));
          ])
    2

let gen_bexp =
  let open QCheck.Gen in
  let rel = oneofl [ Rlt; Rle; Req; Rne; Rge; Rgt ] in
  let leaf =
    frequency
      [
        (1, map (fun a -> Bvar a) gen_var);
        (1, map (fun b -> Bconst b) bool);
        (3, map3 (fun r a b -> Bcmp (r, a, b)) rel gen_iexp gen_iexp);
        (2, map2 (fun a e -> Bcmp (Req, Ivar a, e)) gen_var gen_iexp);
      ]
  in
  fix
    (fun self n ->
      if n = 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (1, map (fun a -> Bnot a) (self (n - 1)));
            (2, map2 (fun a b -> Band (a, b)) (self (n - 1)) (self (n - 1)));
            (1, map2 (fun a b -> Bor (a, b)) (self (n - 1)) (self (n - 1)));
          ])
    2

let gen_sort =
  let open QCheck.Gen in
  fix
    (fun self n ->
      if n = 0 then oneofl [ Sint; Sbool ]
      else
        frequency
          [
            (2, oneofl [ Sint; Sbool ]);
            (3, map3 (fun a g b -> Ssubset (a, g, b)) gen_var (self (n - 1)) gen_bexp);
          ])
    2

let gen_constr =
  let open QCheck.Gen in
  sized_size (int_bound 6)
  @@ fix (fun self n ->
         if n = 0 then oneof [ return Constr.Top; map (fun b -> Constr.Pred b) gen_bexp ]
         else
           frequency
             [
               (1, map (fun b -> Constr.Pred b) gen_bexp);
               (2, map2 (fun a b -> Constr.Conj (a, b)) (self (n / 2)) (self (n / 2)));
               (2, map2 (fun b x -> Constr.Impl (b, x)) gen_bexp (self (n - 1)));
               (3, map3 (fun a g x -> Constr.Forall (a, g, x)) gen_var gen_sort (self (n - 1)));
               (3, map3 (fun a g x -> Constr.Exists (a, g, x)) gen_var gen_sort (self (n - 1)));
             ])

let gen_dtype =
  let open QCheck.Gen in
  let open Dml_core.Dtype in
  let leaf =
    oneof
      [
        map (fun i -> Dcon ("int", [], [ Iint i ])) gen_iexp;
        map (fun b -> Dcon ("bool", [], [ Ibool b ])) gen_bexp;
        return (Dvar "a");
      ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               (1, map2 (fun t i -> Dcon ("array", [ t ], [ Iint i ])) (self (n - 1)) gen_iexp);
               (1, map2 (fun a b -> Dtuple [ a; b ]) (self (n / 2)) (self (n / 2)));
               (1, map2 (fun a b -> Darrow (a, b)) (self (n / 2)) (self (n / 2)));
               (2, map3 (fun a g t -> Dpi (a, g, t)) gen_var gen_sort (self (n - 1)));
               (2, map3 (fun a g t -> Dsigma (a, g, t)) gen_var gen_sort (self (n - 1)));
             ])

let gen_subst =
  let open QCheck.Gen in
  map
    (fun l -> List.fold_left (fun s (a, e) -> Ivar.Map.add a e s) Ivar.Map.empty l)
    (list_size (int_bound 3) (pair gen_var gen_iexp))

(* Structural equality up to the variables each side refreshed: a variable
   made after [mark] matches one of the same name made after [mark], one to
   one; every older variable must be identical. *)
let same_node ~mark x y =
  let fwd = Hashtbl.create 8 and bwd = Hashtbl.create 8 in
  let var (a : Ivar.t) (b : Ivar.t) =
    if a.id <= mark || b.id <= mark then Ivar.equal a b
    else
      a.name = b.name
      &&
      match (Hashtbl.find_opt fwd a.id, Hashtbl.find_opt bwd b.id) with
      | Some b', Some a' -> b' = b.id && a' = a.id
      | None, None ->
          Hashtbl.add fwd a.id b.id;
          Hashtbl.add bwd b.id a.id;
          true
      | _ -> false
  in
  let rec iexp x y =
    match (x, y) with
    | Ivar a, Ivar b -> var a b
    | Iconst m, Iconst n -> m = n
    | Iadd (a, b), Iadd (c, d)
    | Isub (a, b), Isub (c, d)
    | Imul (a, b), Imul (c, d)
    | Idiv (a, b), Idiv (c, d)
    | Imod (a, b), Imod (c, d)
    | Imin (a, b), Imin (c, d)
    | Imax (a, b), Imax (c, d) ->
        iexp a c && iexp b d
    | Ineg a, Ineg b | Iabs a, Iabs b | Isgn a, Isgn b -> iexp a b
    | _ -> false
  in
  let rec bexp x y =
    match (x, y) with
    | Bvar a, Bvar b -> var a b
    | Bconst a, Bconst b -> a = b
    | Bcmp (r, a, b), Bcmp (r', c, d) -> r = r' && iexp a c && iexp b d
    | Bnot a, Bnot b -> bexp a b
    | Band (a, b), Band (c, d) | Bor (a, b), Bor (c, d) -> bexp a c && bexp b d
    | _ -> false
  in
  let rec sort x y =
    match (x, y) with
    | Sint, Sint | Sbool, Sbool -> true
    | Ssubset (a, g, b), Ssubset (a', g', b') -> var a a' && sort g g' && bexp b b'
    | _ -> false
  in
  let rec constr x y =
    match (x, y) with
    | Constr.Top, Constr.Top -> true
    | Constr.Pred a, Constr.Pred b -> bexp a b
    | Constr.Conj (a, b), Constr.Conj (c, d) -> constr a c && constr b d
    | Constr.Impl (a, p), Constr.Impl (b, q) -> bexp a b && constr p q
    | Constr.Forall (a, g, p), Constr.Forall (b, h, q)
    | Constr.Exists (a, g, p), Constr.Exists (b, h, q) ->
        var a b && sort g h && constr p q
    | _ -> false
  in
  constr x y

(* Run the library function and its reference on the same input, so each
   refreshes its binders after a common mark. *)
let agrees f f_ref x =
  let mark = (Ivar.fresh "mark").id in
  let got = f x in
  let want = f_ref x in
  same_node ~mark got want

let arb_constr = QCheck.make ~print:Constr.to_string gen_constr

let occurs_agrees_with_fv =
  QCheck.Test.make ~name:"occurs agrees with fv" ~count:1000
    (QCheck.make
       ~print:(fun (phi, t) -> Constr.to_string phi ^ "  /  " ^ Dml_core.Dtype.to_string t)
       (QCheck.Gen.pair gen_constr gen_dtype))
    (fun (phi, t) ->
      let rec bexps acc = function
        | Constr.Top -> acc
        | Constr.Pred b -> b :: acc
        | Constr.Conj (x, y) -> bexps (bexps acc x) y
        | Constr.Impl (b, x) -> bexps (b :: acc) x
        | Constr.Forall (a, g, x) | Constr.Exists (a, g, x) ->
            bexps (sort_refinement a g :: acc) x
      in
      let rec sorts acc = function
        | Constr.Top | Constr.Pred _ -> acc
        | Constr.Conj (x, y) -> sorts (sorts acc x) y
        | Constr.Impl (_, x) -> sorts acc x
        | Constr.Forall (a, g, x) | Constr.Exists (a, g, x) -> sorts ((a, g) :: acc) x
      in
      let rec iexps acc = function
        | Bcmp (_, x, y) -> x :: y :: acc
        | Bvar _ | Bconst _ -> acc
        | Bnot x -> iexps acc x
        | Band (x, y) | Bor (x, y) -> iexps (iexps acc x) y
      in
      let bs = bexps [] phi in
      List.for_all
        (fun a ->
          Constr.occurs a phi = Ivar.Set.mem a (fv phi)
          && Dml_core.Dtype.occurs a t = Ivar.Set.mem a (fv_dtype t)
          && List.for_all (fun b -> occurs_bexp a b = Ivar.Set.mem a (fv_bexp b)) bs
          && List.for_all
               (fun e -> occurs_iexp a e = Ivar.Set.mem a (fv_iexp e))
               (List.fold_left iexps [] bs)
          && List.for_all
               (fun (b, g) ->
                 occurs_sort a g = Ivar.Set.mem a (fv_sort g)
                 && occurs_refinement a b g
                    = Ivar.Set.mem a (fv_bexp (sort_refinement b g)))
               (sorts [] phi))
        pool)

let constructors_agree_with_reference =
  QCheck.Test.make ~name:"forall, exists and subst build the reference node" ~count:1000
    (QCheck.make
       ~print:(fun (phi, (a, (g, s))) ->
         Format.asprintf "%s  under %a : %a  with [%s]" (Constr.to_string phi) Ivar.pp a pp_sort
           g
           (String.concat "; "
              (List.map
                 (fun (b, e) -> Ivar.to_string b ^ " := " ^ iexp_to_string e)
                 (Ivar.Map.bindings s))))
       QCheck.Gen.(pair gen_constr (pair gen_var (pair gen_sort gen_subst))))
    (fun (phi, (a, (g, s))) ->
      Constr.forall a g phi = forall_ref a g phi
      && Constr.exists a g phi = exists_ref a g phi
      && agrees (Constr.subst s) (subst_ref s) phi)

let elimination_agrees_with_reference =
  QCheck.Test.make ~name:"existential elimination builds the reference node" ~count:1000
    arb_constr
    (agrees Constr.eliminate_existentials eliminate_ref)

let () =
  Alcotest.run "constr"
    [
      ( "structure",
        [
          Alcotest.test_case "smart constructors" `Quick test_smart;
          Alcotest.test_case "fv and capture-avoiding subst" `Quick test_fv_subst;
          Alcotest.test_case "subst leaves a quantifier's binder alone" `Quick
            test_subst_skips_binder;
          Alcotest.test_case "subst_sort scopes a subset binder over its condition" `Quick
            test_subst_sort_scope;
          Alcotest.test_case "size" `Quick test_size;
          Alcotest.test_case "goal extraction" `Quick test_goals_structure;
        ] );
      ( "existentials",
        [
          Alcotest.test_case "solve linear equation" `Quick test_solve_equation;
          Alcotest.test_case "reverse clause 1 (paper 3.1)" `Quick test_exelim_reverse_clause1;
          Alcotest.test_case "unsolvable existential" `Quick test_exelim_unsolvable;
          Alcotest.test_case "witness sort obligation" `Quick test_exelim_sort_obligation;
        ] );
      ( "occurs",
        List.map QCheck_alcotest.to_alcotest
          [
            occurs_agrees_with_fv;
            constructors_agree_with_reference;
            elimination_agrees_with_reference;
          ] );
    ]
