(* One benchmark run:

     bench.exe --workload check-batch|serve-edit|run-kernels --seed N
               --seconds S --trace 0|1 --work DIR --dmld PATH

   prints progress on stderr and, as the last line of stdout, one JSON
   object {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics of an untraced run, or the per-layer metrics of a traced one.
   A traced run also writes its per-operation spans to
   .perfbench_out/trace-WORKLOAD-seedN.json.  Exits 1 when any operation
   gave a wrong answer, 2 on bad arguments. *)

open Perfbench
module J = Dml_obs.Json
module H = Harness

let metric name unit value = (name, J.Obj [ ("value", J.Float value); ("unit", J.String unit) ])

let best (m : Suite.measured) = Array.to_list (Array.map snd m.Suite.ops)
let total xs = List.fold_left ( +. ) 0. xs

(* Latencies are each operation's best over the run's passes. *)
let end_to_end (o : Suite.outcome) =
  let m = o.Suite.untraced in
  [
    metric "setup_s" "s" o.Suite.setup_s;
    metric "op_p50_ms" "ms" (1000. *. H.quantile 0.5 (best m));
    metric "op_p90_ms" "ms" (1000. *. H.quantile 0.9 (best m));
    metric "pass_s" "s" (total (best m));
    metric "peak_rss_mb" "MiB" m.Suite.peak_rss_mb;
  ]

(* Sum of the best run times of one backend and discipline over the kernels
   (operation kinds are "closure-<kernel>-checked" and the like). *)
let kernel_sum (m : Suite.measured) ~prefix ~suffix =
  Array.fold_left
    (fun acc (k, s) -> if String.starts_with ~prefix k && String.ends_with ~suffix k then acc +. s else acc)
    0. m.Suite.ops

(* Per-layer metrics: per traced operation unless marked per run. *)
let per_layer (o : Suite.outcome) =
  let t = Option.get o.Suite.traced in
  let ops = float_of_int (max 1 !H.traced_ops) in
  let per_op name unit = metric name unit (H.get name /. ops) in
  let per_run name unit = metric name unit (H.get name) in
  let ratio name num den = metric name "ratio" (if H.get den > 0. then H.get num /. H.get den else 0.) in
  let u = o.Suite.untraced in
  let base = total (best u) in
  [
    per_op "lang.parse_s" "s/op";
    per_op "lang.basis_parse_s" "s/op";
    per_op "lang.parse_alloc_mw" "Mw/op";
    per_op "lang.bytes" "B/op";
    per_op "mltype.infer_s" "s/op";
    per_op "mltype.infer_alloc_mw" "Mw/op";
    per_op "elab.elaborate_s" "s/op";
    per_op "elab.alloc_mw" "Mw/op";
    per_op "elab.obligations" "count/op";
    per_op "constr.extract_s" "s/op";
    per_op "constr.goals" "count/op";
    per_op "solver.purify_dnf_s" "s/op";
    per_op "solver.decide_s" "s/op";
    per_op "solver.alloc_mw" "Mw/op";
    per_op "solver.disjuncts" "count/op";
    per_op "solver.fm_eliminations" "count/op";
    per_op "solver.fm_combinations" "count/op";
    per_op "solver.native_solves" "count/op";
    per_op "solver.overflow_escalations" "count/op";
    per_op "solver.refuted_goals" "count/op";
    per_op "cache.digest_s" "s/op";
    per_op "cache.lookup_s" "s/op";
    per_op "cache.hits" "count/op";
    per_op "cache.misses" "count/op";
    metric "cache.hit_ratio" "ratio"
      (let h = H.get "cache.hits" and m = H.get "cache.misses" in
       if h +. m > 0. then h /. (h +. m) else 0.);
    per_op "incr.recheck_s" "s/op";
    ratio "incr.dirty_ratio" "incr.dirty" "incr.units";
    per_op "incr.solver_calls" "count/op";
    per_op "report.build_s" "s/op";
    per_op "json.encode_s" "s/op";
    per_op "json.decode_s" "s/op";
    per_op "json.response_bytes" "B/op";
    per_op "server.handle_s" "s/op";
    per_op "server.transport_s" "s/op";
    per_op "server.memo_hits" "count/op";
    per_op "server.pool_checks" "count/op";
    per_run "eval.closure_load_s" "s";
    per_op "eval.run_alloc_mw" "Mw/op";
    per_op "eval.checks_eliminated" "count/op";
    per_op "eval.checks_residual" "count/op";
    metric "eval.closure_checked_s" "s" (kernel_sum u ~prefix:"closure-" ~suffix:"-checked");
    metric "eval.closure_unchecked_s" "s" (kernel_sum u ~prefix:"closure-" ~suffix:"-unchecked");
    per_run "codegen.emit_s" "s";
    per_run "codegen.toolchain_s" "s";
    per_run "codegen.binary_bytes" "B";
    metric "codegen.native_checked_s" "s" (kernel_sum u ~prefix:"native-" ~suffix:"-checked");
    metric "codegen.native_unchecked_s" "s" (kernel_sum u ~prefix:"native-" ~suffix:"-unchecked");
    metric "trace.coverage" "ratio"
      (if !H.traced_seconds > 0. then !H.covered_seconds /. !H.traced_seconds else 0.);
    metric "trace.overhead_pct" "%" (if base > 0. then 100. *. (total (best t) -. base) /. base else 0.);
  ]

let write_trace ~workload ~seed (o : Suite.outcome) =
  let dir = ".perfbench_out" in
  H.mkdir_p dir;
  let doc =
    J.Obj
      [
        ("schema", J.String "perfbench-trace/1");
        ("workload", J.String workload);
        ("seed", J.Int seed);
        ("setup_s", J.Float o.Suite.setup_s);
        ("ops", J.List (List.rev !H.op_records));
      ]
  in
  let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" workload seed) in
  Out_channel.with_open_bin path (fun oc -> output_string oc (J.to_string doc))

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let work = ref "" and dmld = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  check-batch, serve-edit or run-kernels");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds");
      ("--trace", Arg.Set_int trace, "0|1  untraced (end-to-end) or traced (per-layer) run");
      ("--work", Arg.Set_string work, "DIR  scratch directory for this run (removed at exit)");
      ("--dmld", Arg.Set_string dmld, "PATH  the dmld executable");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --work DIR --dmld PATH";
  if !work = "" || !dmld = "" || (!trace <> 0 && !trace <> 1) || !seconds <= 0. then begin
    prerr_endline "bench: --work and --dmld are required; --trace is 0 or 1; --seconds is positive";
    exit 2
  end;
  let cfg = { Suite.seed = !seed; seconds = !seconds; work = !work; dmld_exe = !dmld } in
  let traced = !trace = 1 in
  (* a dmld that dies mid-request must show as a failed operation, not kill the run *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  H.mkdir_p !work;
  H.on_cleanup (fun () -> H.rm_rf !work);
  at_exit H.run_cleanups;
  let outcome =
    match !workload with
    | "check-batch" -> Suite.run ~traced cfg (Suite.check_batch cfg)
    | "serve-edit" -> Suite.run ~traced cfg (Suite.serve_edit cfg)
    | "run-kernels" -> Suite.run ~traced cfg (Suite.run_kernels cfg)
    | w ->
        prerr_endline ("bench: unknown workload " ^ w);
        exit 2
  in
  H.run_cleanups ();
  let m = outcome.Suite.untraced in
  Printf.eprintf "perfbench: %s seed %d: %d passes of %d operations, %d of %d operations failed\n%!" !workload
    !seed m.Suite.passes (Array.length m.Suite.ops) H.tally.H.failed H.tally.H.attempted;
  let metrics = if traced then per_layer outcome else end_to_end outcome in
  if traced then write_trace ~workload:!workload ~seed:!seed outcome;
  let ok = H.tally.H.failed = 0 in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool ok);
            ("attempted", J.Int H.tally.H.attempted);
            ("failed", J.Int H.tally.H.failed);
            ("metrics", J.Obj metrics);
          ]));
  exit (if ok then 0 else 1)
