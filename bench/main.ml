(* Benchmark harness: one Bechamel test per reproduced table, plus the
   ablations called out in DESIGN.md.

   - table1/<program>        : the full checking pipeline (parse, infer,
                               elaborate, solve) per benchmark program — the
                               work behind Table 1's generation/solving time.
   - table2/<program>/<mode> : the cost-model workload under both access
                               disciplines (virtual platform A).
   - table3/<program>/<mode> : the compiled backend workload under both
                               access disciplines (wall-clock platform B).
   - ablation/solver/*       : tightened/plain Fourier-Motzkin vs rational
                               simplex on the Figure 4 goal set.
   - ablation/tighten/*      : the bcopy divisibility obligations with and
                               without the integral tightening rule.
   - ablation/cache/*        : the checking pipeline over the kernel corpus
                               with no cache, a cold cache, and a warm shared
                               cache (verdict lookups instead of solving).

   Absolute per-table rows come from `dmlc table1` / `dmlc table23`; this
   harness measures the machinery itself and the design alternatives. *)

open Bechamel
open Toolkit

(* session constructors for the deleted optional-argument front doors *)
let session () = Dml_core.Session.create ()

let session_of_method method_ =
  Dml_core.Session.create
    ~options:
      {
        Dml_core.Session.default_options with
        Dml_core.Session.op_solve =
          {
            Dml_core.Session.default_solve_config with
            Dml_core.Session.sc_method = method_;
          };
      }
    ()

(* --- Table 1: the checking pipeline -------------------------------------- *)

let pipeline_tests =
  List.map
    (fun (b : Dml_programs.Programs.benchmark) ->
      Test.make
        ~name:("table1/" ^ b.Dml_programs.Programs.name)
        (Staged.stage (fun () ->
             match Dml_core.Pipeline.check_s (session ()) b.Dml_programs.Programs.source with
             | Ok r -> assert r.Dml_core.Pipeline.rp_valid
             | Error _ -> assert false)))
    Dml_programs.Programs.table_benchmarks

(* --- Tables 2/3 kernels ----------------------------------------------------- *)

(* the lighter workloads keep Bechamel iterations short; full-size rows come
   from the dmlc harness *)
let bench_kernel_names = [ "queen"; "hanoi towers"; "list access" ]

(* only the kernels above are exercised below, so restrict the (expensive)
   up-front pipeline runs to them instead of checking every table benchmark *)
let checked_programs =
  List.filter_map
    (fun (b : Dml_programs.Programs.benchmark) ->
      if not (List.mem b.Dml_programs.Programs.name bench_kernel_names) then None
      else
        match Dml_core.Pipeline.check_valid_s (session ()) b.Dml_programs.Programs.source with
        | Ok r -> Some (b, r.Dml_core.Pipeline.rp_tprog)
        | Error _ -> None)
    Dml_programs.Programs.table_benchmarks

let backend_tests =
  List.concat_map
    (fun ((b : Dml_programs.Programs.benchmark), tprog) ->
      List.concat_map
        (fun (mode, mode_name) ->
          [
            Test.make
              ~name:(Printf.sprintf "table2/%s/%s" b.Dml_programs.Programs.name mode_name)
              (Staged.stage (fun () ->
                   let counters = Dml_eval.Prims.new_counters () in
                   let ce = Dml_eval.Compile.initial_costed mode counters in
                   let ce = Dml_eval.Compile.run_program ce tprog in
                   ignore
                     (b.Dml_programs.Programs.run
                        { Dml_programs.Workloads.lookup = Dml_eval.Compile.lookup ce }
                        ~scale:1)));
            Test.make
              ~name:(Printf.sprintf "table3/%s/%s" b.Dml_programs.Programs.name mode_name)
              (Staged.stage (fun () ->
                   let ce = Dml_eval.Compile.initial_fast mode () in
                   let ce = Dml_eval.Compile.run_program ce tprog in
                   ignore
                     (b.Dml_programs.Programs.run
                        { Dml_programs.Workloads.lookup = Dml_eval.Compile.lookup ce }
                        ~scale:1)));
          ])
        [ (Dml_eval.Prims.Checked, "checked"); (Dml_eval.Prims.Unchecked, "unchecked") ])
    checked_programs

(* --- Ablation A: solver comparison on the Figure 4 goals --------------------- *)

let bsearch_goals =
  let open Dml_index in
  let open Dml_constr in
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

let solver_tests =
  List.map
    (fun (method_, name) ->
      Test.make
        ~name:("ablation/solver/" ^ name)
        (Staged.stage (fun () ->
             List.iter (fun g -> ignore (Dml_solver.Solver.check_goal ~method_ g)) bsearch_goals)))
    [
      (Dml_solver.Solver.Fm_tightened, "fm-tightened");
      (Dml_solver.Solver.Fm_plain, "fm-plain");
      (Dml_solver.Solver.Simplex_rational, "simplex");
    ]

(* --- Ablation B: integral tightening on the bcopy obligations ----------------- *)

let tighten_tests =
  List.map
    (fun (method_, name) ->
      Test.make
        ~name:("ablation/tighten/" ^ name)
        (Staged.stage (fun () ->
             match
               Dml_core.Pipeline.check_s (session_of_method method_)
                 Dml_programs.Sources.bcopy
             with
             | Ok r ->
                 (* with tightening every obligation is proven; without, the
                    divisibility obligations stay open (the solver also pays
                    for the failed refutation and the model search) *)
                 ignore r.Dml_core.Pipeline.rp_valid
             | Error _ -> assert false)))
    [ (Dml_solver.Solver.Fm_tightened, "with"); (Dml_solver.Solver.Fm_plain, "without") ]

(* --- Ablation C: verdict-cache amortization over the table corpus --------------- *)

(* cold re-creates the cache each run (canonicalization + store overhead on
   top of full solving); warm shares one pre-filled cache, so every goal is
   answered by lookup — the gap is the amortized solving cost the batch
   front-end recovers *)
let cache_corpus =
  List.filter
    (fun (b : Dml_programs.Programs.benchmark) ->
      List.mem b.Dml_programs.Programs.name bench_kernel_names)
    Dml_programs.Programs.table_benchmarks

let check_corpus cache =
  List.iter
    (fun (b : Dml_programs.Programs.benchmark) ->
      match
        Dml_core.Pipeline.check_s
          (Dml_core.Session.create ?cache ())
          b.Dml_programs.Programs.source
      with
      | Ok r -> assert r.Dml_core.Pipeline.rp_valid
      | Error _ -> assert false)
    cache_corpus

let cache_tests =
  let warm = Dml_cache.Cache.create () in
  check_corpus (Some warm);
  [
    Test.make ~name:"ablation/cache/off"
      (Staged.stage (fun () -> check_corpus None));
    Test.make ~name:"ablation/cache/cold"
      (Staged.stage (fun () -> check_corpus (Some (Dml_cache.Cache.create ()))));
    Test.make ~name:"ablation/cache/warm"
      (Staged.stage (fun () -> check_corpus (Some warm)));
  ]

(* --- Parallel batch executor: sequential vs sharded worker pools ----------------- *)

(* the whole table corpus through the batch runner: seq is the in-process
   reference, jN forks N workers (program-sharded), the obligations variant
   shards at the constraint grain.  Speedup = par/batch/seq over par/batch/jN;
   on a single-core runner expect jN ≈ seq + fork/marshal overhead. *)
let par_targets =
  List.map
    (fun (b : Dml_programs.Programs.benchmark) ->
      {
        Dml_par.Runner.tg_name = b.Dml_programs.Programs.name;
        tg_source = Ok b.Dml_programs.Programs.source;
      })
    Dml_programs.Programs.table_benchmarks

let par_check mode shard =
  List.iter
    (fun (r : Dml_par.Runner.row) ->
      match r.Dml_par.Runner.row_result with
      | Ok s -> assert s.Dml_par.Runner.sm_valid
      | Error _ -> assert false)
    (Dml_par.Runner.check_targets_s
       {
         Dml_core.Session.default_options with
         Dml_core.Session.op_jobs =
           (match mode with
           | Dml_par.Runner.Sequential -> None
           | Dml_par.Runner.Workers n -> Some n);
         op_shard_obligations = shard;
       }
       par_targets)

let par_tests =
  [
    Test.make ~name:"par/batch/seq"
      (Staged.stage (fun () -> par_check Dml_par.Runner.Sequential false));
    Test.make ~name:"par/batch/j1"
      (Staged.stage (fun () -> par_check (Dml_par.Runner.Workers 1) false));
    Test.make ~name:"par/batch/j2"
      (Staged.stage (fun () -> par_check (Dml_par.Runner.Workers 2) false));
    Test.make ~name:"par/batch/j4"
      (Staged.stage (fun () -> par_check (Dml_par.Runner.Workers 4) false));
    Test.make ~name:"par/batch/j4-obligations"
      (Staged.stage (fun () -> par_check (Dml_par.Runner.Workers 4) true));
  ]

(* --- stdlib kernels: the verified merge/insertion sorts -------------------------- *)

let stdlib_tests =
  match Dml_core.Pipeline.check_valid_s (session ()) Dml_programs.Stdlib_dml.source with
  | Error _ -> []
  | Ok r ->
      let tprog = r.Dml_core.Pipeline.rp_tprog in
      let input = Dml_eval.Value.of_int_list (List.init 400 (fun i -> (i * 7919) mod 1000)) in
      List.map
        (fun fname ->
          Test.make ~name:("stdlib/" ^ fname)
            (Staged.stage (fun () ->
                 let ce = Dml_eval.Compile.initial_fast Dml_eval.Prims.Unchecked () in
                 let ce = Dml_eval.Compile.run_program ce tprog in
                 ignore
                   (Dml_eval.Value.as_fun (Dml_eval.Compile.lookup ce fname) input))))
        [ "isort"; "msort" ]

(* --- driver --------------------------------------------------------------------- *)

let () =
  (* [--out FILE] also writes the rows as schema dml-bench/1, the machine
     half of the BENCH_* artifacts (see `make bench-json`); the empty
     default keeps the bare invocation human-readable only *)
  let json_file = ref "" in
  Arg.parse
    (Dml_gate.Benchout.spec json_file)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench [--out FILE]";
  let tests =
    pipeline_tests @ solver_tests @ tighten_tests @ cache_tests @ par_tests
    @ backend_tests @ stdlib_tests
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:None () in
  let raw =
    Benchmark.all cfg Instance.[ monotonic_clock ] (Test.make_grouped ~name:"dml" tests)
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let est =
          match Analyze.OLS.estimates result with Some [ e ] -> e | _ -> Float.nan
        in
        (name, est) :: acc)
      results []
  in
  let rows = List.sort compare rows in
  Printf.printf "%-44s %16s\n" "benchmark" "ns/run";
  List.iter (fun (name, est) -> Printf.printf "%-44s %16.0f\n" name est) rows;
  match !json_file with
  | "" -> ()
  | file ->
      let module J = Dml_obs.Json in
      let doc =
        J.Obj
          [
            ("schema", J.String "dml-bench/1");
            ( "rows",
              J.List
                (List.map
                   (fun (name, est) ->
                     J.Obj [ ("name", J.String name); ("ns_per_run", J.Float est) ])
                   rows) );
          ]
      in
      Dml_gate.Benchout.write ~bench:"bench" file doc
