(* The parallel executor: pool semantics (ordering, isolation of worker
   exceptions, crashes and hangs, observability aggregation) and the
   sequential-vs-parallel oracle — every pool width must produce the same
   verdicts, degradation sites and JSON bytes as the in-process reference,
   including under injected worker crashes and timeouts. *)

open Dml_index
open Dml_constr
open Dml_par
module Json = Dml_obs.Json
module Metrics = Dml_obs.Metrics
module Trace = Dml_obs.Trace
module Solver = Dml_solver.Solver
module Programs = Dml_programs.Programs

(* --- pool unit tests -------------------------------------------------------- *)

(* the deleted optional-arg front door, expressed in session options *)
let check_targets ?task_timeout_ms ?cache ~mode targets =
  let options =
    {
      Dml_core.Session.default_options with
      Dml_core.Session.op_jobs =
        (match mode with Runner.Sequential -> None | Runner.Workers n -> Some n);
      op_cache = cache;
    }
  in
  Runner.check_targets_s ?task_timeout_ms options targets

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "task failed: %s" (Pool.error_to_string e)

let test_empty () =
  Alcotest.(check int) "no tasks, no outcomes" 0
    (List.length (Pool.run ~worker:(fun () -> ()) []))

let test_order_preserved () =
  let tasks = List.init 50 (fun i -> i) in
  let outcomes = Pool.run ~jobs:4 ~worker:(fun i -> i * i) tasks in
  Alcotest.(check (list int))
    "results in task order regardless of scheduling"
    (List.map (fun i -> i * i) tasks)
    (List.map ok_or_fail outcomes)

let test_many_tasks_few_workers () =
  let tasks = List.init 100 string_of_int in
  let outcomes = Pool.run ~jobs:2 ~worker:(fun s -> s ^ "!") tasks in
  Alcotest.(check (list string))
    "100 tasks through 2 workers"
    (List.map (fun s -> s ^ "!") tasks)
    (List.map ok_or_fail outcomes)

let test_worker_exception () =
  let outcomes =
    Pool.run ~jobs:2
      ~worker:(fun i -> if i = 3 then failwith "boom" else i)
      (List.init 6 Fun.id)
  in
  List.iteri
    (fun i o ->
      match o with
      | Ok v -> Alcotest.(check int) "untouched task" i v
      | Error (Pool.Exception msg) ->
          Alcotest.(check int) "only the raising task errors" 3 i;
          Alcotest.(check bool) "exception text shipped back" true
            (String.length msg > 0)
      | Error e -> Alcotest.failf "unexpected outcome: %s" (Pool.error_to_string e))
    outcomes

(* a worker that exits mid-task costs exactly that task; the pool respawns
   and the rest of the queue completes *)
let test_crash_isolation () =
  let outcomes =
    Pool.run ~jobs:2
      ~worker:(fun i -> if i = 2 then Unix._exit 42 else i)
      (List.init 8 Fun.id)
  in
  List.iteri
    (fun i o ->
      match o with
      | Ok v -> Alcotest.(check int) "untouched task" i v
      | Error (Pool.Crashed _) -> Alcotest.(check int) "only the exiting task dies" 2 i
      | Error e -> Alcotest.failf "unexpected outcome: %s" (Pool.error_to_string e))
    outcomes

let test_sigkill_isolation () =
  let outcomes =
    Pool.run ~jobs:2
      ~worker:(fun i ->
        if i = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
        i)
      (List.init 4 Fun.id)
  in
  List.iteri
    (fun i o ->
      match o with
      | Ok v -> Alcotest.(check int) "untouched task" i v
      | Error (Pool.Crashed _) -> Alcotest.(check int) "only the killed task dies" 1 i
      | Error e -> Alcotest.failf "unexpected outcome: %s" (Pool.error_to_string e))
    outcomes

let test_watchdog_timeout () =
  let t0 = Unix.gettimeofday () in
  let outcomes =
    Pool.run ~jobs:2 ~task_timeout_ms:300
      ~worker:(fun i ->
        if i = 0 then Unix.sleep 3600;
        i)
      (List.init 4 Fun.id)
  in
  (match List.hd outcomes with
  | Error (Pool.Timed_out s) ->
      Alcotest.(check bool) "elapsed at least the deadline" true (s >= 0.25)
  | o ->
      Alcotest.failf "hung task should time out, got %s"
        (match o with Ok _ -> "Ok" | Error e -> Pool.error_to_string e));
  List.iteri (fun i o -> if i > 0 then Alcotest.(check int) "other tasks" i (ok_or_fail o)) outcomes;
  Alcotest.(check bool) "watchdog bounds the wall clock" true
    (Unix.gettimeofday () -. t0 < 20.)

let test_metrics_aggregated () =
  let c = Metrics.counter "test.par.tasks" in
  let before = Metrics.value c in
  let outcomes =
    Pool.run ~jobs:3
      ~worker:(fun i ->
        Metrics.incr ~by:i c;
        i)
      (List.init 10 Fun.id)
  in
  List.iter (fun o -> ignore (ok_or_fail o)) outcomes;
  Alcotest.(check int) "parent registry absorbed every worker increment" (before + 45)
    (Metrics.value c)

let test_spans_adopted () =
  let sink = Trace.create_sink () in
  Trace.set_sink (Some sink);
  Fun.protect
    ~finally:(fun () -> Trace.set_sink None)
    (fun () ->
      let outcomes =
        Pool.run ~jobs:2
          ~worker:(fun i -> Trace.with_span "wtask" (fun _ -> i))
          (List.init 6 Fun.id)
      in
      List.iter (fun o -> ignore (ok_or_fail o)) outcomes);
  Alcotest.(check int) "one adopted worker span per task" 6
    (List.length
       (List.filter (fun sp -> Trace.span_name sp = "wtask") (Trace.roots sink)))

(* --- solver goals through the pool ------------------------------------------- *)

(* a small mixed family (valid and not) of marshalled goals: the pooled
   verdict slugs must equal the in-process solver's *)
let goal_family () =
  List.concat_map
    (fun a ->
      List.concat_map
        (fun b ->
          let x = Ivar.fresh "x" in
          let g concl =
            {
              Constr.goal_vars = [ (x, Idx.Sint) ];
              goal_hyps = [ Idx.Bcmp (Idx.Rge, Idx.Ivar x, Idx.Iconst a) ];
              goal_concl = concl;
            }
          in
          [
            g (Idx.Bcmp (Idx.Rge, Idx.Ivar x, Idx.Iconst (a - b)));
            g (Idx.Bcmp (Idx.Rle, Idx.Ivar x, Idx.Iconst (a + b)));
          ])
        [ 0; 1; 2; 3; 4 ])
    [ 0; 1; 2; 3; 4 ]

let test_goal_batch_oracle () =
  let goals = goal_family () in
  let seq = List.map (fun g -> Solver.verdict_slug (Solver.check_goal g)) goals in
  let par =
    Pool.run ~jobs:4 ~worker:(fun g -> Solver.verdict_slug (Solver.check_goal g)) goals
    |> List.map ok_or_fail
  in
  Alcotest.(check (list string)) "pooled goal verdicts match sequential" seq par

(* --- the runner oracle -------------------------------------------------------- *)

let corpus_targets () =
  List.map
    (fun (b : Programs.benchmark) ->
      { Runner.tg_name = b.Programs.name; tg_source = Ok b.Programs.source })
    Programs.all

(* the schedule-independent projection of a row: verdict-derived fields and
   per-obligation slugs/locations, but no times and no cache-topology
   figures (a shared sequential cache and per-worker caches legitimately
   differ on hit counts) *)
let proj_row (r : Runner.row) =
  match r.Runner.row_result with
  | Error e -> Printf.sprintf "%s ERROR %s" r.Runner.row_name e
  | Ok s ->
      Printf.sprintf "%s valid=%b cons=%d resid=%d timeouts=%d goals=%d obs=[%s]"
        r.Runner.row_name s.Runner.sm_valid s.Runner.sm_constraints s.Runner.sm_residual
        s.Runner.sm_timeouts s.Runner.sm_goals
        (String.concat "; "
           (List.map
              (fun (o : Runner.obligation_row) ->
                Printf.sprintf "%s@%s:%s" o.Runner.or_what o.Runner.or_loc
                  o.Runner.or_verdict)
              s.Runner.sm_obligations))

let doc_bytes rows =
  Json.to_string_pretty
    (Runner.batch_json ~options:Dml_core.Session.default_options ~passes:[ rows ] ())

let test_corpus_oracle () =
  let targets = corpus_targets () in
  let cache = Dml_cache.Cache.default_config in
  let run mode = check_targets ~mode ~cache targets in
  let base = run Runner.Sequential in
  let base_proj = List.map proj_row base in
  let base_json = doc_bytes base in
  Alcotest.(check bool) "corpus checks under the reference" true
    (List.for_all (fun r -> Result.is_ok r.Runner.row_result) base);
  let modes =
    [
      ("j1", Runner.Workers 1);
      ("j4", Runner.Workers 4);
      ("jnproc", Runner.Workers (Pool.cpu_count ()));
    ]
    @
    (* CI exports DML_PAR_JOBS to pin an extra width into the oracle *)
    match Sys.getenv_opt "DML_PAR_JOBS" with
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n > 0 -> [ ("env-j" ^ s, Runner.Workers n) ]
        | _ -> [])
    | None -> []
  in
  List.iter
    (fun (label, mode) ->
      let rows = run mode in
      Alcotest.(check (list string)) (label ^ ": rows") base_proj (List.map proj_row rows);
      Alcotest.(check string) (label ^ ": JSON bytes") base_json (doc_bytes rows))
    modes

let with_env var value f =
  Unix.putenv var value;
  (* unset is not portable; the empty string never matches a program name *)
  Fun.protect ~finally:(fun () -> Unix.putenv var "") f

let test_injected_crash () =
  let targets = corpus_targets () in
  with_env "DML_PAR_TEST_CRASH" "queen" (fun () ->
      let r1 = check_targets ~mode:(Runner.Workers 1) targets in
      let r4 = check_targets ~mode:(Runner.Workers 4) targets in
      List.iter
        (fun rows ->
          let crashed = List.find (fun r -> r.Runner.row_name = "queen") rows in
          Alcotest.(check bool) "injected program degrades to an error row" true
            (crashed.Runner.row_result = Error "worker crashed");
          Alcotest.(check int) "every other program still checks"
            (List.length targets - 1)
            (List.length (List.filter (fun r -> Result.is_ok r.Runner.row_result) rows)))
        [ r1; r4 ];
      Alcotest.(check string) "degraded JSON identical across -j" (doc_bytes r1)
        (doc_bytes r4))

let test_injected_hang () =
  let targets = corpus_targets () in
  let t0 = Unix.gettimeofday () in
  with_env "DML_PAR_TEST_HANG" "list access" (fun () ->
      let rows =
        check_targets ~mode:(Runner.Workers 2) ~task_timeout_ms:500 targets
      in
      let hung = List.find (fun r -> r.Runner.row_name = "list access") rows in
      Alcotest.(check bool) "hung program degrades to a timeout row" true
        (hung.Runner.row_result = Error "worker timed out");
      Alcotest.(check int) "every other program still checks"
        (List.length targets - 1)
        (List.length (List.filter (fun r -> Result.is_ok r.Runner.row_result) rows)));
  Alcotest.(check bool) "watchdog bounds the batch" true
    (Unix.gettimeofday () -. t0 < 30.)

(* a front-end failure is diagnosed in process or in a worker — same row
   either way.  The in-process path against a caller's session (what [dmlc
   batch] without -j and [dmld] use) gives the same rows too, and its
   second pass over the same session is all cache hits with an unchanged
   document. *)
let test_failure_rows_match () =
  let targets =
    corpus_targets ()
    @ [
        { Runner.tg_name = "bad"; tg_source = Ok "fun f(x) = (" };
        { Runner.tg_name = "unreadable"; tg_source = Error "no such file" };
      ]
  in
  let seq = check_targets ~mode:Runner.Sequential targets in
  let j2 = check_targets ~mode:(Runner.Workers 2) targets in
  let options =
    { Dml_core.Session.default_options with op_cache = Some Dml_cache.Cache.default_config }
  in
  let session = Dml_core.Session.create ~options () in
  let pass1 = Runner.check_targets_s ~session options targets in
  let pass2 = Runner.check_targets_s ~session options targets in
  Alcotest.(check (list string)) "pooled failure rows"
    (List.map proj_row seq) (List.map proj_row j2);
  Alcotest.(check (list string)) "in-process session failure rows"
    (List.map proj_row seq) (List.map proj_row pass1);
  (match (List.find (fun r -> r.Runner.row_name = "bad") pass1).Runner.row_result with
  | Error e ->
      Alcotest.(check bool) ("failure row carries its location: " ^ e) true
        (String.starts_with ~prefix:"syntax error at line 1" e)
  | Ok _ -> Alcotest.fail "the unparsable program checked");
  let pass_bytes rows = Json.to_string (Json.List (Runner.rows_json rows)) in
  Alcotest.(check string) "second pass: same rows" (pass_bytes pass1) (pass_bytes pass2);
  let a1 = Runner.aggregate pass1 and a2 = Runner.aggregate pass2 in
  Alcotest.(check bool) "first pass fills the cache" true (a1.Runner.ag_cache_misses > 0);
  Alcotest.(check int) "second pass: no cache misses" 0 a2.Runner.ag_cache_misses;
  Alcotest.(check int) "second pass: every goal a hit" a2.Runner.ag_goals a2.Runner.ag_cache_hits

(* --- frame codec ---------------------------------------------------------------- *)

let with_pipe f =
  let r, w = Unix.pipe () in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally:(fun () -> List.iter close [ r; w ]) (fun () -> f r w)

let write_string fd s = ignore (Unix.write_substring fd s 0 (String.length s))

(* Encode the payloads, deliver the stream in chunks of the given sizes
   (cycled), and decode incrementally after every chunk. *)
let prop_decoder_chunking =
  QCheck.Test.make ~count:300 ~name:"decoder is invariant under chunking"
    QCheck.(pair (small_list small_string) (small_list small_nat))
    (fun (payloads, sizes) ->
      let stream = String.concat "" (List.map Frame.encode payloads) in
      let sizes = Array.of_list (List.map (fun n -> 1 + n) sizes) in
      with_pipe (fun r w ->
          let d = Frame.decoder () in
          let got = ref [] in
          let rec drain () =
            match Frame.decode d with
            | `Frame p ->
                got := p :: !got;
                drain ()
            | `Need _ -> ()
            | `Oversized n -> QCheck.Test.fail_reportf "oversized header %d" n
          in
          let rec feed ofs k =
            if ofs < String.length stream then begin
              let n =
                if sizes = [||] then String.length stream
                else min sizes.(k mod Array.length sizes) (String.length stream - ofs)
              in
              write_string w (String.sub stream ofs n);
              ignore (Frame.input d r n);
              drain ();
              feed (ofs + n) (k + 1)
            end
          in
          feed 0 0;
          List.rev !got = payloads))

(* Cut the stream inside its last frame: every complete frame still reads
   back, and the cut one is an [`Error] — a truncation is never mistaken
   for a clean end of stream. *)
let prop_truncation =
  QCheck.Test.make ~count:300 ~name:"truncated stream ends in Error, never Eof"
    QCheck.(pair (list_of_size Gen.(1 -- 8) small_string) small_nat)
    (fun (payloads, cut) ->
      let frames = List.map Frame.encode payloads in
      let last = List.nth frames (List.length frames - 1) in
      let keep = 1 + (cut mod (String.length last - 1)) in
      let stream =
        String.concat "" (List.filteri (fun i _ -> i < List.length frames - 1) frames)
        ^ String.sub last 0 keep
      in
      with_pipe (fun r w ->
          write_string w stream;
          Unix.close w;
          let whole = List.filteri (fun i _ -> i < List.length payloads - 1) payloads in
          let read_back = List.map (fun _ -> Frame.read_raw r) whole in
          read_back = List.map Result.ok whole
          && match Frame.read_raw r with Error (`Error _) -> true | _ -> false))

(* The pass line's label names where the batch runs: in process without
   -j, inference batches included, and on a pool of the asked width. *)
let test_jobs_label () =
  let module S = Dml_core.Session in
  let opts ?jobs ?(infer = false) () =
    { S.default_options with S.op_jobs = jobs; op_infer = infer }
  in
  let check what expected o = Alcotest.(check string) what expected (Runner.jobs_label o) in
  check "in process" "" (opts ());
  check "pool" "; jobs=3" (opts ~jobs:3 ());
  check "default width" (Printf.sprintf "; jobs=%d" (Pool.cpu_count ())) (opts ~jobs:0 ());
  check "inference in process" "" (opts ~infer:true ());
  check "inference pool" "; jobs=3" (opts ~jobs:3 ~infer:true ())

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "empty task list" `Quick test_empty;
          Alcotest.test_case "order preserved" `Quick test_order_preserved;
          Alcotest.test_case "more tasks than workers" `Quick test_many_tasks_few_workers;
          Alcotest.test_case "worker exception" `Quick test_worker_exception;
          Alcotest.test_case "crash isolation" `Quick test_crash_isolation;
          Alcotest.test_case "sigkill isolation" `Quick test_sigkill_isolation;
          Alcotest.test_case "watchdog timeout" `Quick test_watchdog_timeout;
          Alcotest.test_case "metrics aggregated" `Quick test_metrics_aggregated;
          Alcotest.test_case "spans adopted" `Quick test_spans_adopted;
        ] );
      ( "frame",
        List.map QCheck_alcotest.to_alcotest [ prop_decoder_chunking; prop_truncation ] );
      ("goals", [ Alcotest.test_case "pooled solver oracle" `Quick test_goal_batch_oracle ]);
      ( "runner",
        [
          Alcotest.test_case "corpus oracle" `Quick test_corpus_oracle;
          Alcotest.test_case "injected crash" `Quick test_injected_crash;
          Alcotest.test_case "injected hang" `Quick test_injected_hang;
          Alcotest.test_case "failure rows" `Quick test_failure_rows_match;
          Alcotest.test_case "pass line label" `Quick test_jobs_label;
        ] );
    ]
