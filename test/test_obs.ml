(* The observability layer: metrics-registry invariants, trace span
   well-formedness, JSON serialization round-trips (including the golden
   file), the zero-allocation disabled path, and regressions for the four
   fixes that rode along with it: wall-clock table timing, the persistent
   store's write-failure leak, budget-tier stability under the clock, and
   overflow counting. *)

open Dml_obs
open Dml_index
open Dml_constr
open Dml_solver

(* --- metrics registry ----------------------------------------------------- *)

let test_counter_monotonic () =
  let c = Metrics.counter "test.mono" in
  let v0 = Metrics.value c in
  Metrics.incr c;
  Metrics.incr ~by:41 c;
  Alcotest.(check int) "incr adds" (v0 + 42) (Metrics.value c);
  Metrics.incr ~by:(-5) c;
  Metrics.incr ~by:0 c;
  Alcotest.(check int) "non-positive increments are ignored" (v0 + 42) (Metrics.value c);
  let c' = Metrics.counter "test.mono" in
  Metrics.incr c';
  Alcotest.(check int) "same name, same counter" (v0 + 43) (Metrics.value c)

let test_histogram () =
  let h = Metrics.histogram ~bounds:[| 1.; 10. |] "test.histo" in
  let n0 = Metrics.h_count h and s0 = Metrics.h_sum h in
  Metrics.observe h 0.5;
  Metrics.observe h 5.;
  Metrics.observe h 50.;
  Alcotest.(check int) "three observations" (n0 + 3) (Metrics.h_count h);
  Alcotest.(check (float 1e-9)) "sum accumulates" (s0 +. 55.5) (Metrics.h_sum h)

let test_metrics_json () =
  Metrics.incr (Metrics.counter "test.json_counter");
  Metrics.observe (Metrics.histogram "test.json_histo") 2.5;
  let doc = Metrics.to_json () in
  (match Json.member "schema" doc with
  | Some (Json.String s) -> Alcotest.(check string) "schema" "dml-metrics/1" s
  | _ -> Alcotest.fail "metrics dump lacks a schema field");
  (match Json.member "counters" doc with
  | Some (Json.Obj kvs) ->
      Alcotest.(check bool) "registered counter appears" true
        (List.mem_assoc "test.json_counter" kvs)
  | _ -> Alcotest.fail "metrics dump lacks counters");
  match Json.of_string (Json.to_string doc) with
  | Ok doc' -> Alcotest.(check bool) "metrics dump round-trips" true (doc = doc')
  | Error msg -> Alcotest.fail ("metrics dump does not re-parse: " ^ msg)

(* Every cache lookup is classified as exactly one of hit or miss, so the
   registry totals must tie out. *)
let test_cache_lookup_invariant () =
  let lookups () = Metrics.value (Metrics.counter "cache.lookups") in
  let hits () = Metrics.value (Metrics.counter "cache.hits") in
  let misses () = Metrics.value (Metrics.counter "cache.misses") in
  let c = Dml_cache.Cache.create () in
  let l0 = lookups () and h0 = hits () and m0 = misses () in
  Alcotest.(check bool) "cold lookup misses" true
    (Dml_cache.Cache.find c ~digest:"g1" ~method_:"fm" ~tier:max_int = None);
  Dml_cache.Cache.add c ~digest:"g1" ~method_:"fm" ~tier:max_int Dml_cache.Cache.Valid;
  Alcotest.(check bool) "warm lookup hits" true
    (Dml_cache.Cache.find c ~digest:"g1" ~method_:"fm" ~tier:max_int
    = Some Dml_cache.Cache.Valid);
  Alcotest.(check int) "two lookups recorded" (l0 + 2) (lookups ());
  Alcotest.(check int) "one hit recorded" (h0 + 1) (hits ());
  Alcotest.(check int) "one miss recorded" (m0 + 1) (misses ());
  Alcotest.(check int) "hits + misses = lookups" (lookups ()) (hits () + misses ())

(* --- trace spans --------------------------------------------------------- *)

let test_span_nesting () =
  let sk = Trace.create_sink () in
  Trace.set_sink (Some sk);
  let a = Trace.start "a" in
  let b = Trace.start "b" in
  Trace.set_str b "k" "v1";
  Trace.set_str b "k" "v2";
  let _c = Trace.start "c" in
  (* b and c are still open: finishing a must close them underneath it so
     the recorded nesting stays well-formed *)
  Trace.finish a;
  Trace.finish a (* double finish is a no-op *);
  let d = Trace.start "d" in
  Trace.finish d;
  Trace.set_sink None;
  match Trace.roots sk with
  | [ ra; rd ] -> (
      Alcotest.(check string) "first root" "a" (Trace.span_name ra);
      Alcotest.(check string) "second root" "d" (Trace.span_name rd);
      Alcotest.(check bool) "durations are nonnegative" true
        (Trace.span_dur ra >= 0. && Trace.span_dur rd >= 0.);
      match Trace.span_children ra with
      | [ rb ] -> (
          Alcotest.(check string) "abandoned child is attached" "b" (Trace.span_name rb);
          (match Trace.span_attr rb "k" with
          | Some (Json.String s) -> Alcotest.(check string) "last attribute write wins" "v2" s
          | _ -> Alcotest.fail "attribute k missing");
          match Trace.span_children rb with
          | [ rc ] -> Alcotest.(check string) "grandchild nests under b" "c" (Trace.span_name rc)
          | cs -> Alcotest.fail (Printf.sprintf "expected [c] under b, got %d" (List.length cs)))
      | cs -> Alcotest.fail (Printf.sprintf "expected [b] under a, got %d" (List.length cs)))
  | rs -> Alcotest.fail (Printf.sprintf "expected 2 roots, got %d" (List.length rs))

let test_span_exception () =
  let sk = Trace.create_sink () in
  Trace.set_sink (Some sk);
  (try Trace.with_span "outer" (fun _ -> Trace.with_span "inner" (fun _ -> raise Exit))
   with Exit -> ());
  Trace.set_sink None;
  match Trace.roots sk with
  | [ o ] -> (
      Alcotest.(check string) "outer survives the exception" "outer" (Trace.span_name o);
      match Trace.span_children o with
      | [ i ] -> Alcotest.(check string) "inner is closed and attached" "inner" (Trace.span_name i)
      | cs -> Alcotest.fail (Printf.sprintf "expected [inner], got %d" (List.length cs)))
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 root, got %d" (List.length rs))

let test_trace_json () =
  let sk = Trace.create_sink () in
  Trace.set_sink (Some sk);
  Trace.with_span "check" (fun sp ->
      Trace.set_bool sp "valid" true;
      Trace.with_span "solve" (fun sp' -> Trace.set_str sp' "verdict" "valid"));
  Trace.set_sink None;
  let doc = Trace.to_json sk in
  (match Json.member "schema" doc with
  | Some (Json.String s) -> Alcotest.(check string) "schema" "dml-trace/1" s
  | _ -> Alcotest.fail "trace lacks a schema field");
  match Json.of_string (Json.to_string doc) with
  | Ok doc' -> Alcotest.(check bool) "trace round-trips" true (doc = doc')
  | Error msg -> Alcotest.fail ("trace does not re-parse: " ^ msg)

let test_disabled_trace_no_alloc () =
  Trace.set_sink None;
  let sp = Trace.start "warmup" in
  Trace.finish sp;
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    let sp = Trace.start "solve" in
    if Trace.real sp then Trace.set_int sp "i" i;
    Trace.finish sp
  done;
  let w1 = Gc.minor_words () in
  (* the two minor_words calls each box a float; everything else must be
     allocation-free on the disabled path *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled tracing allocates nothing (%.0f words)" (w1 -. w0))
    true
    (w1 -. w0 < 256.)

(* --- JSON ----------------------------------------------------------------- *)

let test_json_round_trip () =
  let samples =
    [
      Json.Null;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-12345);
      Json.Int max_int;
      Json.Float 0.0;
      Json.Float 1.5;
      Json.Float (-0.0625);
      Json.Float 1.23456789e-7;
      Json.String "";
      Json.String "plain";
      Json.String "esc \" \\ \n \t \r \x01";
      Json.List [];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null ]);
          ("b", Json.Obj [ ("nested", Json.Bool true) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let compact = Json.to_string v in
      (match Json.of_string compact with
      | Ok v' -> Alcotest.(check bool) ("compact round-trip: " ^ compact) true (v = v')
      | Error msg -> Alcotest.fail (compact ^ " does not re-parse: " ^ msg));
      match Json.of_string (Json.to_string_pretty v) with
      | Ok v' -> Alcotest.(check bool) ("pretty round-trip: " ^ compact) true (v = v')
      | Error msg -> Alcotest.fail ("pretty form does not re-parse: " ^ msg))
    samples

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.fail ("accepted invalid JSON: " ^ s)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]

(* Exact renderings every document depends on, byte for byte: floats on
   the ["%.12g"] path and on the ["%.17g"] path, integral floats on both
   sides of 1e15, signed zero, the least subnormal and the largest finite
   value; every control byte, the two escaped characters and raw UTF-8;
   and the decoder's escapes, NUL bytes and error offsets. *)
let float_renderings =
  [
    (0x1.999999999999ap-4, "0.1");
    (0x1.421f5f40d8376p-23, "1.5e-07");
    (0x1.921f9f01b866ep+1, "3.14159");
    (0x1.e240c9fbe76c9p+16, "123456.789");
    (-0x1.47ae147ae147bp-9, "-0.0025");
    (0x1.cac083126e979p-8, "0.007");
    (0x1.3333333333334p-2, "0.30000000000000004");
    (0x1.5555555555555p-2, "0.33333333333333331");
    (0x1.5555555555555p-1, "0.66666666666666663");
    (0x1.9e409302678bap-17, "1.2345678901234568e-05");
    (0x1.b69b4ba630f35p+56, "1.2345678901234568e+17");
    (0x1p+0, "1.0");
    (-0x1.5p+5, "-42.0");
    (0x1.c6bf52633fff8p+49, "999999999999999.0");
    (0x1.c6bf52634p+49, "1e+15");
    (-0x1.c6bf52634p+49, "-1e+15");
    (0x1.1c37937e08p+53, "1e+16");
    (-0x0p+0, "-0.0");
    (0x0p+0, "0.0");
    (0x0.0000000000001p-1022, "4.94065645841e-324");
    (0x1p-1022, "2.2250738585072014e-308");
    (0x1.fffffffffffffp+1023, "1.7976931348623157e+308");
    (Float.infinity, "null");
    (Float.nan, "null");
  ]

let string_renderings =
  [
    ( String.init 32 Char.chr,
      {|"\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000b\u000c\r\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f"|}
    );
    ("q\"b\\s/\195\169\226\130\172\240\159\152\128\127", "\"q\\\"b\\\\s/\195\169\226\130\172\240\159\152\128\127\"");
    ("", {|""|});
    ("plain run", {|"plain run"|});
  ]

let decodings =
  [
    ({|"\/\b\fAé€"|}, Ok (Json.String "/\b\012A\195\169\226\130\172"));
    ({|"\u0041\u00e9\u20ac"|}, Ok (Json.String "A\195\169\226\130\172"));
    ("\"a\000b\"", Ok (Json.String "a\000b"));
    ({|"\u0000"|}, Ok (Json.String "\000"));
    ({|"\u12"|}, Error "truncated \\u escape at offset 3");
    ({|"\u00zz"|}, Error "bad \\u escape at offset 7");
    ({|"\x"|}, Error "bad escape at offset 3");
    ("-", Error "bad number at offset 1");
    ("[-]", Error "bad number at offset 2");
    ("\000", Error "unexpected character '\\000' at offset 0");
    ("[1,]", Error "unexpected character ']' at offset 3");
  ]

let test_json_renderings () =
  List.iter
    (fun (f, expected) ->
      Alcotest.(check string) (Printf.sprintf "%h" f) expected (Json.to_string (Json.Float f)))
    float_renderings;
  List.iter
    (fun (s, expected) -> Alcotest.(check string) (String.escaped s) expected (Json.to_string (Json.String s)))
    string_renderings;
  List.iter
    (fun (input, expected) ->
      Alcotest.(check bool) (String.escaped input) true (Json.of_string input = expected))
    decodings

let test_json_golden () =
  (* dune runtest runs in the stanza directory, dune exec in the root *)
  let path =
    if Sys.file_exists "obs_golden.json" then "obs_golden.json" else "test/obs_golden.json"
  in
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string raw with
  | Error msg -> Alcotest.fail ("golden file does not parse: " ^ msg)
  | Ok v ->
      Alcotest.(check string) "pretty printer reproduces the golden file" raw
        (Json.to_string_pretty v ^ "\n");
      (match Json.member "schema" v with
      | Some (Json.String s) -> Alcotest.(check string) "schema" "dml-trace/1" s
      | _ -> Alcotest.fail "golden file lacks a schema field");
      Alcotest.(check bool) "compact form also round-trips" true
        (Json.of_string (Json.to_string v) = Ok v)

(* --- regression: Tables.time_pair measures wall time ----------------------- *)

let test_time_pair_wall_clock () =
  (* sleeping burns no CPU: under the old [Sys.time] both sides measured ~0 *)
  let slept, quick =
    Dml_programs.Tables.time_pair (fun () -> Unix.sleepf 0.02) (fun () -> ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "sleep is measured on the wall clock (%.4fs)" slept)
    true (slept >= 0.015);
  Alcotest.(check bool) "the empty side is faster" true (quick < slept)

(* --- regression: verdict-log write failures leak nothing ------------------ *)

let test_disk_write_fault () =
  let module Cache = Dml_cache.Cache in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dml_obs_store_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let open_cache () = Cache.create ~config:{ Cache.dir = Some dir } () in
  let c = open_cache () in
  let put c d = Cache.add c ~digest:d ~method_:"fm" ~tier:3 Cache.Valid in
  let hits c d = Cache.find c ~digest:d ~method_:"fm" ~tier:3 = Some Cache.Valid in
  let count_fds () = try Array.length (Sys.readdir "/proc/self/fd") with Sys_error _ -> -1 in
  Cache.write_fault_injection := (fun _ -> raise (Sys_error "injected write failure"));
  let fds_before = count_fds () in
  for i = 1 to 50 do
    put c (Printf.sprintf "k%d" i)
  done;
  let fds_after = count_fds () in
  Cache.write_fault_injection := ignore;
  Alcotest.(check bool)
    (Printf.sprintf "no file descriptors leaked (%d -> %d)" fds_before fds_after)
    true
    (fds_before = -1 || fds_after <= fds_before);
  let bytes =
    Array.fold_left
      (fun n f -> n + (Unix.stat (Filename.concat dir f)).Unix.st_size)
      0 (Sys.readdir dir)
  in
  Alcotest.(check int) "failed appends leave no bytes behind" 0 bytes;
  Alcotest.(check bool) "the verdicts are still served from memory" true (hits c "k1");
  (* the cache still persists once appends succeed again *)
  put c "k_ok";
  let fresh = open_cache () in
  Alcotest.(check bool) "entry persisted after recovery" true (hits fresh "k_ok");
  Alcotest.(check int) "read from the log" 1 (Cache.snapshot fresh).Cache.s_disk_hits;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* --- regression: budget tier is stable while the clock advances ------------ *)

let test_tier_stable_under_clock () =
  let b = Budget.create ~timeout_ms:64 () in
  let t1 = Budget.tier b in
  Unix.sleepf 0.05;
  let t2 = Budget.tier b in
  Alcotest.(check int) "tier is derived from the configured deadline, not the remaining one"
    t1 t2;
  Alcotest.(check bool) "deadline-limited budgets land in a finite tier" true (t1 < max_int);
  Alcotest.(check int) "unlimited budgets keep the top tier" max_int
    (Budget.tier (Budget.unlimited ()))

(* --- a goal only tightening proves ------------------------------------------ *)

(* Provable only with integral tightening: the negation 1 <= 2x <= 1 has the
   rational solution x = 1/2 but no integer one, so plain Fourier-Motzkin
   fails the goal; with tightening 2x >= 1 becomes x >= 1, a
   contradiction. *)
let tighten_goal () =
  let x = Ivar.fresh "x" in
  let open Idx in
  {
    Constr.goal_vars = [ (x, Sint) ];
    goal_hyps = [ Bcmp (Rle, Imul (Iconst 2, Ivar x), Iconst 1) ];
    goal_concl = Bcmp (Rle, Imul (Iconst 2, Ivar x), Iconst 0);
  }

(* --- regression: overflow is counted on both surfaces ------------------------- *)

(* solver.overflow_escalations counts goals whose native-integer solve ran
   out of bits and fell back to the bignum lane.  An overflowing goal must
   keep the bignum lane's verdict and bump the counter in both the per-run
   stats and the process-wide registry; a goal that never overflows must
   count as a native solve and leave the overflow counter at zero. *)
let overflow_goal () =
  let x = Ivar.fresh "x" and y = Ivar.fresh "y" in
  let big = 1 lsl 40 in
  let open Idx in
  {
    Constr.goal_vars = [ (x, Sint); (y, Sint) ];
    goal_hyps =
      [
        Bcmp (Rle, Imul (Iconst big, Ivar x), Ivar y);
        Bcmp (Rle, Ivar y, Imul (Iconst big, Ivar x));
      ];
    goal_concl = Bcmp (Rle, Ivar y, Iconst 0);
  }

let test_overflow_counted_on_both_surfaces () =
  let g = overflow_goal () in
  let c_overflow = Metrics.counter "solver.overflow_escalations" in
  let c_native = Metrics.counter "solver.native_solves" in
  let overflow0 = Metrics.value c_overflow
  and native0 = Metrics.value c_native in
  let stats = Solver.new_stats () in
  let v = Solver.check_goal ~method_:Solver.Fm_plain ~lane:Solver.Lane_native ~stats g in
  Alcotest.(check bool) "the overflowing goal still gets a verdict" true
    (v = Solver.check_goal ~method_:Solver.Fm_plain ~lane:Solver.Lane_bignum g);
  Alcotest.(check bool) "stats: overflow escalation recorded" true
    (stats.Solver.overflow_escalations >= 1);
  Alcotest.(check bool) "registry: solver.overflow_escalations bumped" true
    (Metrics.value c_overflow - overflow0 >= 1);
  (* a re-solve that never overflows completes natively and counts there *)
  let stats' = Solver.new_stats () in
  let g' = tighten_goal () in
  ignore (Solver.check_goal ~method_:Solver.Fm_tightened ~lane:Solver.Lane_native ~stats:stats' g');
  Alcotest.(check bool) "stats: native solve recorded on the fast path" true
    (stats'.Solver.native_solves >= 1);
  Alcotest.(check int) "stats: fast path never overflow-escalates" 0
    stats'.Solver.overflow_escalations;
  Alcotest.(check bool) "registry: solver.native_solves bumped" true
    (Metrics.value c_native - native0 >= 1)

(* --- the opposed-pair pre-pass counts on every surface ------------------------ *)

(* [x <= 2 |- x <= 5]: the negation's one disjunct, [x <= 2 /\ x >= 6],
   falls to the pre-pass, which must show in the per-run stats (and their
   merge), the registry, the solve span and the report's fm object — and
   not in the elimination counters. *)
let test_pair_refuted_counted () =
  let x = Ivar.fresh "x" in
  let g =
    let open Idx in
    {
      Constr.goal_vars = [ (x, Sint) ];
      goal_hyps = [ Bcmp (Rle, Ivar x, Iconst 2) ];
      goal_concl = Bcmp (Rle, Ivar x, Iconst 5);
    }
  in
  let c_pair = Metrics.counter "solver.pair_refuted" in
  let pair0 = Metrics.value c_pair in
  let stats = Solver.new_stats () in
  let sk = Trace.create_sink () in
  Trace.set_sink (Some sk);
  let v = Solver.check_goal ~stats g in
  Trace.set_sink None;
  Alcotest.(check bool) "valid" true (v = Solver.Valid);
  Alcotest.(check int) "stats: pair_refuted" 1 stats.Solver.fm.Fourier.pair_refuted;
  Alcotest.(check int) "stats: no eliminations" 0 stats.Solver.fm.Fourier.eliminations;
  Alcotest.(check int) "registry: solver.pair_refuted bumped" 1 (Metrics.value c_pair - pair0);
  (match Trace.roots sk with
  | [ sp ] -> (
      match Trace.span_attr sp "pair_refuted" with
      | Some (Json.Int n) -> Alcotest.(check int) "span: pair_refuted" 1 n
      | _ -> Alcotest.fail "solve span lacks pair_refuted")
  | rs -> Alcotest.failf "expected one solve span, got %d" (List.length rs));
  let merged = Solver.new_stats () in
  Solver.merge_stats ~into:merged stats;
  Solver.merge_stats ~into:merged stats;
  Alcotest.(check int) "merge_stats sums pair_refuted" 2 merged.Solver.fm.Fourier.pair_refuted;
  let fm_key s =
    match Json.member "fm" (Dml_core.Report_json.solver_stats_to_json s) with
    | Some fm -> Json.member "pair_refuted" fm
    | None -> Alcotest.fail "report lacks the fm object"
  in
  Alcotest.(check bool) "report: pair_refuted emitted" true (fm_key stats = Some (Json.Int 1));
  Alcotest.(check bool) "report: omitted when zero" true (fm_key (Solver.new_stats ()) = None)

(* --------------------------------------------------------------------------- *)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter monotonicity" `Quick test_counter_monotonic;
          Alcotest.test_case "histogram accumulation" `Quick test_histogram;
          Alcotest.test_case "registry JSON dump" `Quick test_metrics_json;
          Alcotest.test_case "hits + misses = lookups" `Quick test_cache_lookup_invariant;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting well-formed" `Quick test_span_nesting;
          Alcotest.test_case "exception closes open spans" `Quick test_span_exception;
          Alcotest.test_case "trace JSON round-trip" `Quick test_trace_json;
          Alcotest.test_case "disabled path allocates nothing" `Quick
            test_disabled_trace_no_alloc;
        ] );
      ( "json",
        [
          Alcotest.test_case "value round-trips" `Quick test_json_round_trip;
          Alcotest.test_case "invalid input rejected" `Quick test_json_rejects_garbage;
          Alcotest.test_case "golden file" `Quick test_json_golden;
          Alcotest.test_case "exact renderings" `Quick test_json_renderings;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "time_pair uses the wall clock" `Quick test_time_pair_wall_clock;
          Alcotest.test_case "store write failure leaks nothing" `Quick test_disk_write_fault;
          Alcotest.test_case "budget tier stable under the clock" `Quick
            test_tier_stable_under_clock;
          Alcotest.test_case "overflow counted on both surfaces" `Quick
            test_overflow_counted_on_both_surfaces;
          Alcotest.test_case "pair refutations counted on every surface" `Quick
            test_pair_refuted_counted;
        ] );
    ]
