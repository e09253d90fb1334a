(* The liquid-qualifier annotation-inference engine: every unannotated twin
   must check like its annotated original (or carry a documented residual),
   and inference must never prove a site that is genuinely unsafe. *)

open Dml_core
module Engine = Dml_infer.Engine
module Programs = Dml_programs.Programs

let session ?(options = Session.default_options) () = Session.create ~options ()

let infer ?vocab_keep src =
  match Engine.check_s ?vocab_keep (session ()) src with
  | Ok oc -> oc
  | Error f -> Alcotest.failf "inference failed: %s" (Pipeline.failure_to_string f)

let render_unproven r =
  String.concat "; "
    (List.map
       (fun (co : Pipeline.checked_obligation) ->
         Format.asprintf "%s (%a)" co.Pipeline.co_obligation.Elab.ob_what Dml_lang.Loc.pp
           co.Pipeline.co_obligation.Elab.ob_loc)
       (Pipeline.unproven r))

(* --- smoke: the README quickstart program --------------------------------- *)

let dotprod_unannot =
  {|
fun dotprod(v1, v2) = let
  fun loop(i, n, sum) =
    if i = n then sum
    else loop(i+1, n, sum + sub(v1, i) * sub(v2, i))
in
  loop(0, length v1, 0)
end

val a = array(10, 1)
val b = array(10, 2)
val d = dotprod(a, b)
|}

let test_dotprod_smoke () =
  let oc = infer dotprod_unannot in
  let r = oc.Engine.oc_report in
  Alcotest.(check int) "no hand-written annotations" 0 r.Pipeline.rp_annotations;
  Alcotest.(check bool) "no abandon" true (oc.Engine.oc_abandoned = None);
  Alcotest.(check bool) "some liquid vars" true (oc.Engine.oc_stats.Engine.st_liquid_vars > 0);
  if not r.Pipeline.rp_valid then
    Alcotest.failf "residual %d of %d: %s" r.Pipeline.rp_residual r.Pipeline.rp_constraints
      (render_unproven r)

(* --- the inferred-vs-annotated oracle -------------------------------------- *)

(* The inference outcome per twin, pinned: (residual sites, constraints,
   liquid variables, weakening rounds, qualifiers tested, qualifiers kept).
   A nonzero residual is a site no annotation-free program can avoid:
   - "matrix mult" (2): the driver builds rows with [array(8, array(8, 1))],
     and the elaborator instantiates the element type variable covariantly,
     which erases the inner length index (the [3 :: nil : int list] rule) —
     so row regularity cannot reach the call.  The *annotated* matmult fails
     on the same driver too (one residual at its call site): parity holds on
     equal inputs; the gap is the driver's type, not the inference.
   - "kmp" (1): the library typedef [intPrefix] erases to [int] at the ML
     level, so the synthesized template for [computePrefix] cannot restate
     the element refinement; the one residual site is a [subPrefixCK] call
     that performs its own runtime check by design. *)
let pinned =
  [
    ("bcopy", (0, 20, 5, 6, 346, 92));
    ("binary search", (0, 9, 5, 7, 338, 57));
    ("bubble sort", (0, 14, 6, 9, 470, 53));
    ("matrix mult", (2, 24, 14, 10, 1332, 93));
    ("queen", (0, 19, 10, 17, 994, 54));
    ("quick sort", (0, 22, 11, 14, 1102, 92));
    ("hanoi towers", (0, 17, 14, 50, 3424, 191));
    ("list access", (0, 20, 5, 22, 1073, 42));
    ("dotprod", (0, 8, 7, 7, 375, 49));
    ("reverse", (0, 10, 5, 9, 322, 26));
    ("filter", (0, 10, 2, 9, 204, 9));
    ("kmp", (1, 34, 10, 12, 1011, 75));
  ]

let test_oracle () =
  Alcotest.(check (list string)) "one pin per program"
    (List.map (fun (b : Programs.benchmark) -> b.Programs.name) Programs.all)
    (List.map fst pinned);
  List.iter
    (fun (b : Programs.benchmark) ->
      let name = b.Programs.name in
      (* baseline: the annotated original proves every site *)
      let annotated =
        match Pipeline.check_s (session ()) b.Programs.source with
        | Error f -> Alcotest.failf "%s annotated: %s" name (Pipeline.failure_to_string f)
        | Ok r ->
            if not r.Pipeline.rp_valid then
              Alcotest.failf "%s annotated left residual sites: %s" name (render_unproven r);
            r
      in
      let oc =
        match Engine.check_s (session ()) (Programs.unannotated b) with
        | Error f -> Alcotest.failf "%s twin: %s" name (Pipeline.failure_to_string f)
        | Ok oc -> oc
      in
      (match oc.Engine.oc_abandoned with
      | Some why -> Alcotest.failf "%s: inference abandoned (%s)" name why
      | None -> ());
      let r = oc.Engine.oc_report in
      (* the twins really are stripped: no annotations at all, except
         kmp's retained library [type]/[assert] signatures, which must
         still be fewer than the original's *)
      if String.equal name "kmp" then
        Alcotest.(check bool)
          (name ^ " twin strictly less annotated") true
          (r.Pipeline.rp_annotations < annotated.Pipeline.rp_annotations)
      else Alcotest.(check int) (name ^ " twin is annotation-free") 0 r.Pipeline.rp_annotations;
      let residual, constraints, liquid, iterations, tested, kept = List.assoc name pinned in
      if r.Pipeline.rp_residual <> residual then
        Alcotest.failf "%s: %d residual site(s), %d pinned: %s" name r.Pipeline.rp_residual
          residual (render_unproven r);
      let st = oc.Engine.oc_stats in
      List.iter
        (fun (what, pin, got) -> Alcotest.(check int) (name ^ " " ^ what) pin got)
        [
          ("constraints", constraints, r.Pipeline.rp_constraints);
          ("liquid vars", liquid, st.Engine.st_liquid_vars);
          ("iterations", iterations, st.Engine.st_iterations);
          ("qualifiers tested", tested, st.Engine.st_quals_tested);
          ("qualifiers kept", kept, st.Engine.st_quals_kept);
        ])
    Programs.all

(* --- soundness under vocabulary subsetting --------------------------------- *)

(* dotprod with an off-by-one driver loop bound: the access at
   [i = length v1] is genuinely unsafe, so no inferred annotation may ever
   prove it — under the full vocabulary or any random subset of it. *)
let dotprod_off_by_one =
  {|
fun dotprod(v1, v2) = let
  fun loop(i, n, sum) =
    if i = n then sum
    else loop(i+1, n, sum + sub(v1, i) * sub(v2, i))
in
  loop(0, length v1 + 1, 0)
end

val a = array(10, 1)
val b = array(10, 2)
val d = dotprod(a, b)
|}

let keep_of_seed seed q = Hashtbl.hash (seed, q) land 1 = 0

let fuzz_vocab_soundness =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:24 ~name:"no sub-vocabulary proves the unsafe access"
       QCheck.small_int (fun seed ->
         let oc = infer ~vocab_keep:(keep_of_seed seed) dotprod_off_by_one in
         let r = oc.Engine.oc_report in
         (not r.Pipeline.rp_valid) && r.Pipeline.rp_residual >= 1))

let test_full_vocab_sound () =
  let oc = infer dotprod_off_by_one in
  Alcotest.(check bool) "unsafe access stays residual" false
    oc.Engine.oc_report.Pipeline.rp_valid

(* --- budgets: a starved solver degrades sites, never hangs the fixpoint ---- *)

let test_budget_degrades () =
  let options =
    {
      Session.default_options with
      Session.op_solve = { Session.default_solve_config with Session.sc_fuel = Some 1 };
    }
  in
  match
    Engine.check_s (session ~options ())
      (match Programs.find "bubble sort" with
      | Some b -> Programs.unannotated b
      | None -> Alcotest.fail "bubble sort missing")
  with
  | Error f -> Alcotest.failf "front end failed: %s" (Pipeline.failure_to_string f)
  | Ok oc ->
      (* with one fuel unit per obligation every qualifier test exhausts its
         budget, so the fixpoint must still terminate (kept sets only
         shrink) and the starved sites surface as ordinary residuals *)
      Alcotest.(check bool) "fixpoint terminated" true
        (oc.Engine.oc_stats.Engine.st_iterations >= 1);
      Alcotest.(check bool) "starved sites degrade, not hang" true
        (oc.Engine.oc_report.Pipeline.rp_residual > 0)

(* --- harvest: the bcopy twin's word loop is aligned to 4 ----------------- *)

let test_harvest_divisor () =
  match Programs.find "bcopy" with
  | None -> Alcotest.fail "bcopy missing"
  | Some b ->
      let prog = Dml_lang.Parser.parse_program (Programs.unannotated b) in
      Alcotest.(check (list int)) "divisors" [ 4 ]
        (Dml_infer.Qualifier.harvest prog).Dml_infer.Qualifier.h_divisors

(* --- cache keying: --infer lives in a separate memo world ------------------ *)

let test_fingerprint_separation () =
  let base = Session.default_options in
  let infer_opts = { base with Session.op_infer = true } in
  Alcotest.(check bool) "fingerprints differ" false
    (String.equal (Session.fingerprint base) (Session.fingerprint infer_opts));
  let key opts = Dml_server.Server.memo_key opts ~program:"dotprod" dotprod_unannot in
  Alcotest.(check bool) "server memo keys differ on the same source" false
    (String.equal (key base) (key infer_opts))

(* --- the fixpoint memoises its qualifier tests ------------------------------ *)

(* Rounds re-test the same goals, so [Engine.check_s] memoises them even
   when the session has no verdict cache; the outcome is the one a cached
   session gets. *)
let test_memoises_qualifier_tests () =
  let b = Option.get (Programs.find "dotprod") in
  let src = Programs.unannotated b in
  let run session =
    match Engine.check_s session src with
    | Ok oc -> oc
    | Error f -> Alcotest.failf "dotprod twin: %s" (Pipeline.failure_to_string f)
  in
  let hits = Dml_obs.Metrics.counter "cache.hits" in
  let hits0 = Dml_obs.Metrics.value hits in
  let plain = run (Session.create ()) in
  Alcotest.(check bool) "an uncached session still hits a cache" true
    (Dml_obs.Metrics.value hits > hits0);
  let cached =
    run
      (session
         ~options:
           { Session.default_options with Session.op_cache = Some Dml_cache.Cache.default_config }
         ())
  in
  Alcotest.(check bool) "same stats" true (plain.Engine.oc_stats = cached.Engine.oc_stats);
  Alcotest.(check bool) "same solution" true
    (plain.Engine.oc_solution = cached.Engine.oc_solution);
  Alcotest.(check int) "same residual" cached.Engine.oc_report.Pipeline.rp_residual
    plain.Engine.oc_report.Pipeline.rp_residual;
  Alcotest.(check string) "same unproven sites"
    (render_unproven cached.Engine.oc_report)
    (render_unproven plain.Engine.oc_report)

let () =
  Alcotest.run "infer"
    [
      ("smoke", [ Alcotest.test_case "dotprod unannotated" `Quick test_dotprod_smoke ]);
      ("oracle", [ Alcotest.test_case "inferred vs annotated corpus" `Slow test_oracle ]);
      ( "soundness",
        [
          Alcotest.test_case "full vocabulary" `Quick test_full_vocab_sound;
          fuzz_vocab_soundness;
        ] );
      ("budget", [ Alcotest.test_case "starved solver degrades" `Quick test_budget_degrades ]);
      ("harvest", [ Alcotest.test_case "bcopy twin divisor" `Quick test_harvest_divisor ]);
      ( "memo",
        [
          Alcotest.test_case "fingerprint separation" `Quick test_fingerprint_separation;
          Alcotest.test_case "inference memoises its own qualifier tests" `Quick
            test_memoises_qualifier_tests;
        ] );
    ]
