(* Differential solver fuzzing: random linear goals (bounded coefficients,
   div/mod in the shapes binary search and byte-copy produce) cross-check
   Fourier--Motzkin against the rational simplex, with random-assignment
   falsification as a soundness oracle.  Metamorphic companions check that
   satisfiability is invariant under conjunct permutation, variable renaming
   and positive coefficient scaling — and that the cache canonicalizer maps
   all three onto the same digest, so a cached verdict is replayed for
   exactly the goals it is valid for. *)

open Dml_index
open Dml_constr
module Solver = Dml_solver.Solver
module Canon = Dml_cache.Canon
module Cache = Dml_cache.Cache

(* --- a first-order description of a goal (marshallable, shrinkable) --------- *)

type texp =
  | Tvar of int  (* index into the goal's variable pool *)
  | Tconst of int
  | Tadd of texp * texp
  | Tsub of texp * texp
  | Tmulc of int * texp
  | Tdiv of texp * int  (* divisor in {2,4,8}: the binary-search shapes *)
  | Tmod of texp * int

type tatom = { ta_rel : Idx.rel; ta_lhs : texp; ta_rhs : texp }
type tgoal = { tg_nvars : int; tg_hyps : tatom list; tg_concl : tatom }

let rec sexp_of_texp = function
  | Tvar i -> Printf.sprintf "v%d" i
  | Tconst c -> string_of_int c
  | Tadd (a, b) -> Printf.sprintf "(+ %s %s)" (sexp_of_texp a) (sexp_of_texp b)
  | Tsub (a, b) -> Printf.sprintf "(- %s %s)" (sexp_of_texp a) (sexp_of_texp b)
  | Tmulc (k, e) -> Printf.sprintf "(* %d %s)" k (sexp_of_texp e)
  | Tdiv (e, d) -> Printf.sprintf "(div %s %d)" (sexp_of_texp e) d
  | Tmod (e, d) -> Printf.sprintf "(mod %s %d)" (sexp_of_texp e) d

let rel_name = function
  | Idx.Rlt -> "<"
  | Idx.Rle -> "<="
  | Idx.Req -> "="
  | Idx.Rne -> "<>"
  | Idx.Rge -> ">="
  | Idx.Rgt -> ">"

let sexp_of_tatom a =
  Printf.sprintf "(%s %s %s)" (rel_name a.ta_rel) (sexp_of_texp a.ta_lhs)
    (sexp_of_texp a.ta_rhs)

let sexp_of_tgoal g =
  Printf.sprintf "(goal (vars %d) (hyps %s) (concl %s))" g.tg_nvars
    (String.concat " " (List.map sexp_of_tatom g.tg_hyps))
    (sexp_of_tatom g.tg_concl)

(* --- realization as a solver goal -------------------------------------------- *)

let rec iexp_of_texp vars = function
  | Tvar i -> Idx.Ivar vars.(i mod Array.length vars)
  | Tconst c -> Idx.Iconst c
  | Tadd (a, b) -> Idx.Iadd (iexp_of_texp vars a, iexp_of_texp vars b)
  | Tsub (a, b) -> Idx.Isub (iexp_of_texp vars a, iexp_of_texp vars b)
  | Tmulc (k, e) -> Idx.Imul (Idx.Iconst k, iexp_of_texp vars e)
  | Tdiv (e, d) -> Idx.Idiv (iexp_of_texp vars e, Idx.Iconst d)
  | Tmod (e, d) -> Idx.Imod (iexp_of_texp vars e, Idx.Iconst d)

let bexp_of_tatom vars a =
  Idx.Bcmp (a.ta_rel, iexp_of_texp vars a.ta_lhs, iexp_of_texp vars a.ta_rhs)

let fresh_vars tg = Array.init tg.tg_nvars (fun i -> Ivar.fresh (Printf.sprintf "v%d" i))

let goal_with_vars vars tg =
  {
    Constr.goal_vars = Array.to_list (Array.map (fun v -> (v, Idx.Sint)) vars);
    goal_hyps = List.map (bexp_of_tatom vars) tg.tg_hyps;
    goal_concl = bexp_of_tatom vars tg.tg_concl;
  }

let goal_of_tgoal tg = goal_with_vars (fresh_vars tg) tg

(* --- verdict classes ---------------------------------------------------------- *)

type cls = Cvalid | Cnot | Cundecided

let cls = function
  | Solver.Valid -> Cvalid
  | Solver.Not_valid _ -> Cnot
  | Solver.Unsupported _ | Solver.Timeout _ -> Cundecided

let cls_name = function Cvalid -> "valid" | Cnot -> "not-valid" | Cundecided -> "undecided"
let check m g = cls (Solver.check_goal ~method_:m g)

let methods =
  [
    (Solver.Fm_plain, "fm-plain");
    (Solver.Fm_tightened, "fm");
    (Solver.Simplex_rational, "simplex");
  ]

(* --- random-assignment falsification ------------------------------------------ *)

(* a deterministic spread of assignments in [-6..6]; if some assignment
   satisfies every hypothesis and falsifies the conclusion, the goal is not
   valid and no method may claim otherwise *)
let counterexample_assignment tg =
  let vars = fresh_vars tg in
  let g = goal_with_vars vars tg in
  let found = ref None in
  (try
     for trial = 0 to 39 do
       let env =
         Array.to_seq vars
         |> Seq.mapi (fun j v ->
                (v, Idx.Vint ((((trial * 7) + (j * 13) + (trial * trial * 3)) mod 13) - 6)))
         |> Ivar.Map.of_seq
       in
       if
         List.for_all (fun h -> Idx.eval_bexp env h) g.Constr.goal_hyps
         && not (Idx.eval_bexp env g.Constr.goal_concl)
       then begin
         found := Some env;
         raise Exit
       end
     done
   with Exit -> ());
  !found

(* --- generator ----------------------------------------------------------------- *)

let gen_texp ~div nvars =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun i -> Tvar i) (int_bound (nvars - 1));
        map (fun c -> Tconst c) (int_range (-8) 8);
      ]
  in
  sized_size (int_bound 4) @@ fix (fun self n ->
      if n = 0 then leaf
      else
        frequency
          ([
             (2, map2 (fun a b -> Tadd (a, b)) (self (n / 2)) (self (n / 2)));
             (2, map2 (fun a b -> Tsub (a, b)) (self (n / 2)) (self (n / 2)));
             (2, map2 (fun k e -> Tmulc (k, e)) (int_bound 4) (self (n - 1)));
             (2, leaf);
           ]
          @
          if div then
            [
              (1, map2 (fun e d -> Tdiv (e, d)) (self (n - 1)) (oneofl [ 2; 4; 8 ]));
              (1, map2 (fun e d -> Tmod (e, d)) (self (n - 1)) (oneofl [ 2; 4; 8 ]));
            ]
          else []))

let gen_tatom ~div nvars =
  let open QCheck.Gen in
  map3
    (fun r l rhs -> { ta_rel = r; ta_lhs = l; ta_rhs = rhs })
    (oneofl [ Idx.Rlt; Idx.Rle; Idx.Req; Idx.Rne; Idx.Rge; Idx.Rgt ])
    (gen_texp ~div nvars) (gen_texp ~div nvars)

let gen_tgoal ~div =
  let open QCheck.Gen in
  int_range 1 3 >>= fun nvars ->
  map2
    (fun hyps concl -> { tg_nvars = nvars; tg_hyps = hyps; tg_concl = concl })
    (list_size (int_bound 4) (gen_tatom ~div nvars))
    (gen_tatom ~div nvars)

let rec shrink_texp t yield =
  match t with
  | Tvar _ -> ()
  | Tconst c -> QCheck.Shrink.int c (fun c' -> yield (Tconst c'))
  | Tadd (a, b) | Tsub (a, b) ->
      yield a;
      yield b;
      let rebuild x y = match t with Tadd _ -> Tadd (x, y) | _ -> Tsub (x, y) in
      shrink_texp a (fun a' -> yield (rebuild a' b));
      shrink_texp b (fun b' -> yield (rebuild a b'))
  | Tmulc (k, e) ->
      yield e;
      QCheck.Shrink.int k (fun k' -> yield (Tmulc (k', e)));
      shrink_texp e (fun e' -> yield (Tmulc (k, e')))
  | Tdiv (e, d) ->
      yield e;
      shrink_texp e (fun e' -> yield (Tdiv (e', d)))
  | Tmod (e, d) ->
      yield e;
      shrink_texp e (fun e' -> yield (Tmod (e', d)))

let shrink_tatom a yield =
  shrink_texp a.ta_lhs (fun l -> yield { a with ta_lhs = l });
  shrink_texp a.ta_rhs (fun r -> yield { a with ta_rhs = r })

let shrink_tgoal g yield =
  QCheck.Shrink.list ~shrink:shrink_tatom g.tg_hyps (fun hyps -> yield { g with tg_hyps = hyps });
  shrink_tatom g.tg_concl (fun concl -> yield { g with tg_concl = concl })

let print_tgoal tg =
  (* recompute the verdicts so the reported counterexample carries them *)
  let g = goal_of_tgoal tg in
  Printf.sprintf "%s [%s]" (sexp_of_tgoal tg)
    (String.concat " "
       (List.map (fun (m, name) -> Printf.sprintf "%s=%s" name (cls_name (check m g))) methods))

let arb_tgoal ~div = QCheck.make ~print:print_tgoal ~shrink:shrink_tgoal (gen_tgoal ~div)

(* --- the differential property ------------------------------------------------- *)

(* Fm_plain and Simplex_rational are both complete rational procedures over
   the same linearized systems: whenever both decide, they must agree.
   Integral tightening only ever proves more: simplex-valid implies
   tightened-valid, and a tightened refutation (an integer model exists)
   implies a rational refutation.  A concrete falsifying assignment beats
   them all: no method may claim Valid over it. *)
let differential tg =
  let g = goal_of_tgoal tg in
  let plain = check Solver.Fm_plain g in
  let tight = check Solver.Fm_tightened g in
  let simplex = check Solver.Simplex_rational g in
  let agree =
    match (plain, simplex) with
    | Cundecided, _ | _, Cundecided -> true
    | a, b -> a = b
  in
  let monotone_valid = not (simplex = Cvalid && tight = Cnot) in
  let monotone_refute = not (tight = Cnot && simplex = Cvalid) in
  let sound =
    match counterexample_assignment tg with
    | None -> true
    | Some _ -> plain <> Cvalid && tight <> Cvalid && simplex <> Cvalid
  in
  if not agree then QCheck.Test.fail_report "fm-plain and simplex disagree";
  if not (monotone_valid && monotone_refute) then
    QCheck.Test.fail_report "tightening lost a verdict";
  if not sound then QCheck.Test.fail_report "method claims Valid against a concrete model";
  true

let diff_test =
  QCheck.Test.make ~count:1000 ~name:"fm vs simplex differential" (arb_tgoal ~div:true)
    differential

(* --- lane parity: the machine-int fast path vs bignum --------------------------- *)

(* Adversarial coefficient generator: atoms of the shape [K*v_i <= v_j + c]
   with K near max_int/2, so that eliminating v_i combines two constraints
   whose coefficients multiply to ~K^2 — far past 63 bits.  Chained over
   several hypotheses this forces the native lane through its overflow
   escalation; smaller K (2^20, 2^31) exercise goals that stay native all
   the way through. *)
let gen_adversarial =
  let open QCheck.Gen in
  int_range 2 3 >>= fun nvars ->
  let big = oneofl [ (max_int / 2) - 1; max_int / 3; (1 lsl 40) + 11; (1 lsl 31) - 1; 1 lsl 20 ] in
  let atom =
    big >>= fun k ->
    int_bound (nvars - 1) >>= fun i ->
    int_bound (nvars - 1) >>= fun j ->
    oneofl [ Idx.Rlt; Idx.Rle; Idx.Req; Idx.Rge; Idx.Rgt ] >>= fun r ->
    int_range (-4) 4 >>= fun c ->
    return { ta_rel = r; ta_lhs = Tmulc (k, Tvar i); ta_rhs = Tadd (Tvar j, Tconst c) }
  in
  map2
    (fun hyps concl -> { tg_nvars = nvars; tg_hyps = hyps; tg_concl = concl })
    (list_size (int_range 1 4) atom)
    atom

(* ~3/4 ordinary goals (native fast path all the way), ~1/4 adversarial
   (forced escalation): parity must hold across the boundary *)
let gen_mixed =
  QCheck.Gen.frequency [ (3, gen_tgoal ~div:true); (1, gen_adversarial) ]

let arb_mixed = QCheck.make ~print:print_tgoal ~shrink:shrink_tgoal gen_mixed

(* Bit-for-bit verdict equality, hints included: the native lane either
   completes with the exact verdict the bignum lane would compute (both are
   one algorithm body over two number types) or overflows and re-solves on
   bignum — in both cases the observable answer is identical. *)
let lane_parity tg =
  let g = goal_of_tgoal tg in
  List.for_all
    (fun (m, name) ->
      let native = Solver.check_goal ~method_:m ~lane:Solver.Lane_native g in
      let bignum = Solver.check_goal ~method_:m ~lane:Solver.Lane_bignum g in
      if native <> bignum then
        QCheck.Test.fail_reportf "lanes disagree under %s: native=%s bignum=%s" name
          (Solver.verdict_slug native) (Solver.verdict_slug bignum);
      true)
    methods

let lane_test =
  QCheck.Test.make ~count:1000 ~name:"native vs bignum lane parity" arb_mixed lane_parity

(* --- metamorphic properties ----------------------------------------------------- *)

(* a deterministic permutation that actually moves elements *)
let permute_hyps g = { g with tg_hyps = List.rev g.tg_hyps }

let metamorphic_permutation tg =
  let vars = fresh_vars tg in
  let g = goal_with_vars vars tg in
  let g' = goal_with_vars vars (permute_hyps tg) in
  List.for_all (fun (m, _) -> check m g = check m g') methods
  && Canon.digest g = Canon.digest g'

let metamorphic_renaming tg =
  (* two independent [fresh_vars] pools: alpha-renaming plus fresh ids *)
  let g = goal_of_tgoal tg in
  let g' = goal_of_tgoal tg in
  List.for_all (fun (m, _) -> check m g = check m g') methods
  && Canon.digest g = Canon.digest g'

let rec affine = function
  | Tvar _ | Tconst _ -> true
  | Tadd (a, b) | Tsub (a, b) -> affine a && affine b
  | Tmulc (_, e) -> affine e
  | Tdiv _ | Tmod _ -> false

let affine_goal tg =
  List.for_all (fun a -> affine a.ta_lhs && affine a.ta_rhs) (tg.tg_concl :: tg.tg_hyps)

let scale_atom k a = { a with ta_lhs = Tmulc (k, a.ta_lhs); ta_rhs = Tmulc (k, a.ta_rhs) }

(* Scaling interacts with the integrality rewrite of strict atoms:
   [a < b] becomes [a <= b-1] at scale 1 but only [ka <= kb-1] at scale k,
   which is rationally weaker — so the rational procedures may lose a proof
   on the scaled twin (never gain one).  The tightened elimination's
   gcd/floor normalization maps [ka <= kc-1] back to [a <= c-1] exactly, so
   its verdict is invariant outright. *)
let metamorphic_scaling tg =
  QCheck.assume (affine_goal tg);
  let vars = fresh_vars tg in
  let g = goal_with_vars vars tg in
  List.for_all
    (fun k ->
      let tg' =
        {
          tg with
          tg_hyps = List.map (scale_atom k) tg.tg_hyps;
          tg_concl = scale_atom k tg.tg_concl;
        }
      in
      let g' = goal_with_vars vars tg' in
      check Solver.Fm_tightened g = check Solver.Fm_tightened g'
      && List.for_all
           (fun m -> not (check m g = Cnot && check m g' = Cvalid))
           [ Solver.Fm_plain; Solver.Simplex_rational ]
      (* digests may legitimately differ across scales (the strictness
         constant above), but a collision must still mean canonical equality *)
      && (Canon.digest g <> Canon.digest g' || Canon.canonical g = Canon.canonical g'))
    [ 2; 3; 5 ]

(* the permuted twin must hit the cache (same digest) and the replayed
   verdict must be the one the solver would have computed *)
let metamorphic_cache tg =
  let vars = fresh_vars tg in
  let g = goal_with_vars vars tg in
  let g' = goal_with_vars vars (permute_hyps tg) in
  (Canon.digest g = Canon.digest g' && Canon.canonical g = Canon.canonical g')
  &&
  let cache = Cache.create () in
  let stats = Solver.new_stats () in
  let v = cls (Solver.check_goal ~stats ~cache g) in
  let v' = cls (Solver.check_goal ~stats ~cache g') in
  let cold = check Solver.Fm_tightened g' in
  v = v' && v' = cold && stats.Solver.cache_hits >= 1

let meta_tests =
  [
    QCheck.Test.make ~count:300 ~name:"sat invariant under hyp permutation"
      (arb_tgoal ~div:true) metamorphic_permutation;
    QCheck.Test.make ~count:300 ~name:"sat invariant under variable renaming"
      (arb_tgoal ~div:true) metamorphic_renaming;
    QCheck.Test.make ~count:300 ~name:"sat invariant under positive scaling"
      (arb_tgoal ~div:false) metamorphic_scaling;
    QCheck.Test.make ~count:200 ~name:"canonicalizer replays cached verdicts"
      (arb_tgoal ~div:true) metamorphic_cache;
  ]

(* --- unit regressions ------------------------------------------------------------ *)

(* the five Figure 4 binary-search goals: every obligation the paper's
   solver must discharge, div included *)
let bsearch_goals () =
  let h = Ivar.fresh "h" and l = Ivar.fresh "l" and size = Ivar.fresh "size" in
  let le a b = Idx.Bcmp (Idx.Rle, a, b) in
  let ge a b = Idx.Bcmp (Idx.Rge, a, b) in
  let lt a b = Idx.Bcmp (Idx.Rlt, a, b) in
  let iv x = Idx.Ivar x in
  let m = Idx.Iadd (iv l, Idx.Idiv (Idx.Isub (iv h, iv l), Idx.Iconst 2)) in
  let hyps =
    [
      le (Idx.Iconst 0) (Idx.Iadd (iv h, Idx.Iconst 1));
      le (Idx.Iadd (iv h, Idx.Iconst 1)) (iv size);
      le (Idx.Iconst 0) (iv l);
      le (iv l) (iv size);
      ge (iv h) (iv l);
    ]
  in
  let ctx = [ (h, Idx.Sint); (l, Idx.Sint); (size, Idx.Sint) ] in
  let goal concl = { Constr.goal_vars = ctx; goal_hyps = hyps; goal_concl = concl } in
  [
    goal (lt m (iv size));
    goal (ge (Idx.Iadd (Idx.Isub (m, Idx.Iconst 1), Idx.Iconst 1)) (Idx.Iconst 0));
    goal (le (Idx.Iadd (Idx.Isub (m, Idx.Iconst 1), Idx.Iconst 1)) (iv size));
    goal (ge (Idx.Iadd (m, Idx.Iconst 1)) (Idx.Iconst 0));
    goal (le (Idx.Iadd (m, Idx.Iconst 1)) (iv size));
  ]

let test_bsearch_regression () =
  List.iteri
    (fun i g ->
      Alcotest.(check string)
        (Printf.sprintf "goal %d valid under the paper's solver" i)
        "valid"
        (Solver.verdict_slug (Solver.check_goal ~method_:Solver.Fm_tightened g)))
    (bsearch_goals ())

(* parity contradiction x = 2y /\ x = 2z+1 |- false: rationally satisfiable
   (so the rational procedures answer Not_valid) but integrally absurd —
   only the tightened elimination refutes it *)
let test_divisibility_separation () =
  let x = Ivar.fresh "x" and y = Ivar.fresh "y" and z = Ivar.fresh "z" in
  let g =
    {
      Constr.goal_vars = [ (x, Idx.Sint); (y, Idx.Sint); (z, Idx.Sint) ];
      goal_hyps =
        [
          Idx.Bcmp (Idx.Req, Idx.Ivar x, Idx.Imul (Idx.Iconst 2, Idx.Ivar y));
          Idx.Bcmp
            ( Idx.Req,
              Idx.Ivar x,
              Idx.Iadd (Idx.Imul (Idx.Iconst 2, Idx.Ivar z), Idx.Iconst 1) );
        ];
      goal_concl = Idx.Bconst false;
    }
  in
  Alcotest.(check string) "tightened refutes the parity clash" "valid"
    (Solver.verdict_slug (Solver.check_goal ~method_:Solver.Fm_tightened g));
  Alcotest.(check string) "plain elimination cannot" "not-valid"
    (Solver.verdict_slug (Solver.check_goal ~method_:Solver.Fm_plain g));
  Alcotest.(check string) "rational simplex cannot" "not-valid"
    (Solver.verdict_slug (Solver.check_goal ~method_:Solver.Simplex_rational g))

(* big*x <= y /\ y <= big*x |- y <= 0 with big = 2^40: eliminating x pairs
   the two hypotheses, and the combination multiplies big by big — past 63
   bits.  The native lane must raise internally, escalate once, and still
   hand back exactly the bignum verdict. *)
let test_forced_overflow_escalation () =
  let x = Ivar.fresh "x" and y = Ivar.fresh "y" in
  let big = 1 lsl 40 in
  let g =
    {
      Constr.goal_vars = [ (x, Idx.Sint); (y, Idx.Sint) ];
      goal_hyps =
        [
          Idx.Bcmp (Idx.Rle, Idx.Imul (Idx.Iconst big, Idx.Ivar x), Idx.Ivar y);
          Idx.Bcmp (Idx.Rle, Idx.Ivar y, Idx.Imul (Idx.Iconst big, Idx.Ivar x));
        ];
      goal_concl = Idx.Bcmp (Idx.Rle, Idx.Ivar y, Idx.Iconst 0);
    }
  in
  let sn = Solver.new_stats () in
  let vn = Solver.check_goal ~method_:Solver.Fm_plain ~lane:Solver.Lane_native ~stats:sn g in
  let sb = Solver.new_stats () in
  let vb = Solver.check_goal ~method_:Solver.Fm_plain ~lane:Solver.Lane_bignum ~stats:sb g in
  Alcotest.(check bool) "lanes agree on the overflowing goal" true (vn = vb);
  Alcotest.(check bool) "native lane overflow-escalated" true
    (sn.Solver.overflow_escalations >= 1);
  Alcotest.(check int) "bignum lane never overflow-escalates" 0 sb.Solver.overflow_escalations

(* 2x = 1 |- false: integrally absurd, rationally satisfiable at x = 1/2.
   The integer witness walk cannot represent that point (floor division used
   to truncate it to x = 0, which fails verification and lost the hint);
   the rational fallback must reconstruct it exactly. *)
let test_fractional_witness () =
  let x = Ivar.fresh "x" in
  let g =
    {
      Constr.goal_vars = [ (x, Idx.Sint) ];
      goal_hyps = [ Idx.Bcmp (Idx.Req, Idx.Imul (Idx.Iconst 2, Idx.Ivar x), Idx.Iconst 1) ];
      goal_concl = Idx.Bconst false;
    }
  in
  (match Solver.check_goal ~method_:Solver.Fm_plain g with
  | Solver.Not_valid hint ->
      Alcotest.(check string) "fractional counterexample reconstructed"
        "counterexample: x = 1/2" hint
  | v -> Alcotest.fail ("expected not-valid, got " ^ Solver.verdict_slug v));
  (* the tightened elimination sees the parity clash and proves the goal *)
  Alcotest.(check string) "tightened still refutes 2x = 1" "valid"
    (Solver.verdict_slug (Solver.check_goal ~method_:Solver.Fm_tightened g))

(* v1 = v2 - (0 div 4) /\ 2*v1 + v2 = -1 |- v0 <= v1: the hypotheses force
   3*v1 = -1, so the goal holds over the integers.  Which unit equality the
   Gaussian pre-pass substitutes first used to follow hypothesis order, and
   only one order left an equality the tightening rule could refute
   (QCHECK_SEED=886000087).  Both orders must now give the same verdicts. *)
let test_hyp_order_regression () =
  let tg =
    {
      tg_nvars = 3;
      tg_hyps =
        [
          { ta_rel = Idx.Req; ta_lhs = Tvar 1; ta_rhs = Tsub (Tvar 2, Tdiv (Tconst 0, 4)) };
          { ta_rel = Idx.Req; ta_lhs = Tadd (Tadd (Tvar 1, Tvar 1), Tvar 2); ta_rhs = Tconst (-1) };
        ];
      tg_concl = { ta_rel = Idx.Rle; ta_lhs = Tvar 0; ta_rhs = Tvar 1 };
    }
  in
  List.iter
    (fun (order, tg) ->
      List.iter
        (fun (m, name, expected) ->
          Alcotest.(check string)
            (Printf.sprintf "%s, %s order" name order)
            expected
            (cls_name (check m (goal_of_tgoal tg))))
        [
          (Solver.Fm_tightened, "fm", "valid");
          (Solver.Fm_plain, "fm-plain", "not-valid");
          (Solver.Simplex_rational, "simplex", "not-valid");
        ])
    [ ("given", tg); ("reversed", permute_hyps tg) ]

let () =
  Alcotest.run "solver-diff"
    [
      ("differential", [ QCheck_alcotest.to_alcotest diff_test ]);
      ("lane-parity", [ QCheck_alcotest.to_alcotest lane_test ]);
      ("metamorphic", List.map QCheck_alcotest.to_alcotest meta_tests);
      ( "regressions",
        [
          Alcotest.test_case "figure 4 binary search goals" `Quick test_bsearch_regression;
          Alcotest.test_case "divisibility separates the methods" `Quick
            test_divisibility_separation;
          Alcotest.test_case "overflow escalates to the bignum lane" `Quick
            test_forced_overflow_escalation;
          Alcotest.test_case "fractional witness survives reconstruction" `Quick
            test_fractional_witness;
          Alcotest.test_case "hypothesis order does not move the verdict" `Quick
            test_hyp_order_regression;
        ] );
    ]
