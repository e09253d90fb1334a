(* The native compile-to-OCaml backend, from two sides:

   - source level: the generated program is grepped for the lowering the
     paper promises — proven access sites become [Array.unsafe_get]/
     [Array.unsafe_set], an injected unproven site keeps its out-of-line
     check, and the always-checked [..CK] sites of kmp stay checked;
   - binary level: every benchmark is compiled and run checked and
     unchecked, and both binaries must report byte-identical summary lines
     and the same eliminated/dynamic check counts as the host [Compile]
     backend — the differential oracle.

   The binary-level tests skip (with a notice) when no OCaml compiler is
   installed, mirroring the backend's graceful "unavailable" verdict. *)

open Dml_core
open Dml_eval

let typecheck (b : Dml_programs.Programs.benchmark) =
  match Pipeline.check_valid_s (Session.create ()) b.Dml_programs.Programs.source with
  | Ok r -> r
  | Error msg -> Alcotest.failf "%s: %s" b.Dml_programs.Programs.name msg

let program_body ~mode ?degraded (b : Dml_programs.Programs.benchmark) =
  let report = typecheck b in
  Codegen.program_section
    (Codegen.emit_program ~mode ?degraded ~instrument:false report.Pipeline.rp_tprog)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let bench name = Option.get (Dml_programs.Programs.find name)

(* --- source-level lowering ------------------------------------------------ *)

(* the acceptance grep: a fully proven program compiled unchecked carries
   its array accesses inline and unsafe, and no checked access helper *)
let test_unsafe_emission () =
  List.iter
    (fun name ->
      let body = program_body ~mode:Prims.Unchecked (bench name) in
      Alcotest.(check bool) (name ^ ": unchecked emits Array.unsafe_get") true
        (contains body "Array.unsafe_get");
      Alcotest.(check bool) (name ^ ": no checked reads survive") false
        (contains body "p_sub_c"))
    [ "bcopy"; "binary search"; "bubble sort"; "matrix mult"; "quick sort" ];
  let body = program_body ~mode:Prims.Unchecked (bench "bcopy") in
  Alcotest.(check bool) "bcopy: unchecked emits Array.unsafe_set" true
    (contains body "Array.unsafe_set")

let test_checked_emission () =
  let body = program_body ~mode:Prims.Checked (bench "bcopy") in
  Alcotest.(check bool) "checked build has no unsafe access" false
    (contains body "Array.unsafe_");
  Alcotest.(check bool) "checked build uses the checked helpers" true
    (contains body "p_sub_c")

(* kmp's subCK sites (Figure 5) are residual by design: they stay checked
   even in the unchecked build *)
let test_kmp_residual_sites () =
  let body = program_body ~mode:Prims.Unchecked (bench "kmp") in
  Alcotest.(check bool) "kmp keeps checked sites" true (contains body "p_sub_c");
  Alcotest.(check bool) "kmp still eliminates proven sites" true
    (contains body "Array.unsafe_get")

(* an access the solver cannot prove: [sub(a, length(a))] is off by one *)
let oob_source =
  {|
fun oob(a) = sub(a, length(a))
where oob <| {n:nat} int array(n) -> int
|}

let oob_report () =
  match Pipeline.check_s (Session.create ()) oob_source with
  | Error f -> Alcotest.failf "oob: %s" (Pipeline.failure_to_string f)
  | Ok r ->
      Alcotest.(check bool) "oob does not typecheck" false r.Pipeline.rp_valid;
      r

(* the degradation path: the unproven site compiles to a checked access
   even in unchecked mode, while the same site without the degradation
   predicate would have been (unsoundly) unsafe *)
let test_degraded_site_keeps_check () =
  let report = oob_report () in
  let degraded = Pipeline.degraded_pred report in
  let section ?degraded () =
    Codegen.program_section
      (Codegen.emit_program ~mode:Prims.Unchecked ?degraded ~instrument:false
         report.Pipeline.rp_tprog)
  in
  Alcotest.(check bool) "degraded site stays checked" true
    (contains (section ~degraded ()) "p_sub_c");
  Alcotest.(check bool) "without degradation the site would be unsafe" true
    (contains (section ()) "Array.unsafe_get")

(* --- the emission golden -------------------------------------------------- *)

(* The full [emit_program] text of every kernel in the three configurations
   the native backend builds: checked, unchecked with the degraded sites,
   and the instrumented unchecked build.  A lowering refactor may not move
   one byte of it.

   Regenerating after an intentional change to the emission:
     DML_CODEGEN_GOLDEN=$PWD/test/codegen_golden.txt \
       dune exec test/test_codegen.exe -- test lowering 4 *)
let emission_texts () =
  let buf = Buffer.create (128 * 1024) in
  List.iter
    (fun (b : Dml_programs.Programs.benchmark) ->
      let report = typecheck b in
      let degraded = Pipeline.degraded_pred report in
      List.iter
        (fun (config, mode, degraded, instrument) ->
          Printf.bprintf buf "==== %s | %s ====\n%s" b.Dml_programs.Programs.name config
            (Codegen.emit_program ~mode ?degraded ~instrument report.Pipeline.rp_tprog))
        [
          ("checked", Prims.Checked, None, false);
          ("unchecked degraded", Prims.Unchecked, Some degraded, false);
          ("unchecked degraded instrumented", Prims.Unchecked, Some degraded, true);
        ])
    Dml_programs.Programs.all;
  Buffer.contents buf

let codegen_golden_path () =
  if Sys.file_exists "codegen_golden.txt" then "codegen_golden.txt"
  else "test/codegen_golden.txt"

let test_emission_golden () =
  let got = emission_texts () in
  match Sys.getenv_opt "DML_CODEGEN_GOLDEN" with
  | Some out ->
      Out_channel.with_open_bin out (fun oc -> output_string oc got);
      print_endline ("wrote the emission golden to " ^ out)
  | None ->
      let golden = In_channel.with_open_bin (codegen_golden_path ()) In_channel.input_all in
      Alcotest.(check string) "emitted programs match the golden file" golden got

(* --- binary-level differential tests ------------------------------------- *)

let toolchain = lazy (Codegen.find_toolchain ())

let require_toolchain () =
  match Lazy.force toolchain with
  | Ok tc -> tc
  | Error msg ->
      Printf.printf "skipping native run: %s\n%!" msg;
      Alcotest.skip ()

(* the host closure backend's summary line and check counters *)
let host_run mode ?degraded tprog (b : Dml_programs.Programs.benchmark) =
  let counters = Prims.new_counters () in
  let ce = Compile.run_program (Compile.initial_fast mode ~counters ?degraded ()) tprog in
  let summary =
    b.Dml_programs.Programs.run { Dml_programs.Workloads.lookup = Compile.lookup ce } ~scale:1
  in
  (summary, counters)

let native_summary ~mode ?degraded (b : Dml_programs.Programs.benchmark) tprog =
  let name = b.Dml_programs.Programs.name in
  let driver =
    match Dml_programs.Native_drivers.find name with
    | Some d -> d
    | None -> Alcotest.failf "%s: no native driver" name
  in
  match Codegen.build_and_run ~name ~mode ?degraded ~instrument:true ~driver ~scale:1 tprog with
  | Ok r -> r
  | Error msg -> Alcotest.failf "%s: native build failed: %s" name msg

(* the oracle: for every benchmark, the instrumented native binary's summary
   line and its eliminated/dynamic check counts equal the host Compile
   backend's, under both disciplines (the unchecked one with the degraded
   sites kept checked) *)
let test_differential (b : Dml_programs.Programs.benchmark) () =
  ignore (require_toolchain ());
  let name = b.Dml_programs.Programs.name in
  let report = typecheck b in
  let tprog = report.Pipeline.rp_tprog in
  let agree label mode ?degraded () =
    let host, counters = host_run mode ?degraded tprog b in
    let native = native_summary ~mode ?degraded b tprog in
    Alcotest.(check string) (Printf.sprintf "%s: %s native = host" name label) host
      native.Codegen.nr_summary;
    Alcotest.(check (option (pair int int)))
      (Printf.sprintf "%s: %s eliminated/dynamic = host counters" name label)
      (Some (counters.Prims.eliminated_checks, counters.Prims.dynamic_checks))
      (match (native.Codegen.nr_eliminated, native.Codegen.nr_dynamic) with
      | Some e, Some d -> Some (e, d)
      | _ -> None);
    counters
  in
  ignore (agree "checked" Prims.Checked ());
  let unchecked = agree "unchecked" Prims.Unchecked ~degraded:(Pipeline.degraded_pred report) () in
  (* residual checks: zero everywhere except kmp's CK sites *)
  if name = "kmp" then
    Alcotest.(check bool) "kmp residual checks execute" true (unchecked.Prims.dynamic_checks > 0)
  else Alcotest.(check int) (name ^ ": no dynamic checks") 0 unchecked.Prims.dynamic_checks

let differential_tests =
  List.map
    (fun (b : Dml_programs.Programs.benchmark) ->
      Alcotest.test_case b.Dml_programs.Programs.name `Slow (test_differential b))
    Dml_programs.Programs.all

(* the regression the paper's soundness story depends on: a degraded build
   of an out-of-bounds program traps instead of reading out of bounds *)
let test_oob_traps () =
  ignore (require_toolchain ());
  let report = oob_report () in
  let degraded = Pipeline.degraded_pred report in
  let driver =
    {|
let dml_run _dml_scale =
  let a = Array.make 4 1 in
  try string_of_int (v_oob a) with E_Subscript -> "trapped"
|}
  in
  match
    Codegen.build_and_run ~name:"oob" ~mode:Prims.Unchecked ~degraded ~instrument:true
      ~driver ~scale:1 report.Pipeline.rp_tprog
  with
  | Error msg -> Alcotest.failf "oob: native build failed: %s" msg
  | Ok r ->
      Alcotest.(check string) "the degraded binary traps" "trapped" r.Codegen.nr_summary;
      Alcotest.(check bool) "the trap was a counted dynamic check" true
        (match r.Codegen.nr_dynamic with Some d -> d > 0 | None -> false)

(* SML evaluates operands left to right; ocamlopt runs an application's
   arguments right to left.  Two printing operands followed by two raising
   ones in an application, a direct primitive call, a constructor argument
   and a tuple: the binary must print and raise exactly what [Compile] does. *)
let operand_order_src =
  {|
exception First
exception Second
fun say(s) = (print s; 1)
fun fail1(x) = if x = 0 then raise First else x
fun fail2(x) = if x = 0 then raise Second else x
fun quad(a, b, c, d) = a + b + c + d
fun run () = let
  val a = say "1\n" + say "2\n"
  val b = SOME (say "3\n", say "4\n")
  val c = (fn x => fn y => x + y) (say "5\n") (say "6\n")
in
  quad (say "7\n", say "8\n", fail1 0, fail2 0)
end
|}

(* what [f] prints on stdout, and its result *)
let capture_stdout f =
  let tmp = Filename.temp_file "dml_stdout" ".txt" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let result = Fun.protect f ~finally:(fun () -> flush stdout; Unix.dup2 saved Unix.stdout; Unix.close saved) in
  let out = In_channel.with_open_bin tmp In_channel.input_all in
  Sys.remove tmp;
  (out, result)

let test_operand_order () =
  let tc = require_toolchain () in
  let tprog =
    match Pipeline.check_valid_s (Session.create ()) operand_order_src with
    | Ok r -> r.Pipeline.rp_tprog
    | Error msg -> Alcotest.failf "operand order: %s" msg
  in
  let host_out, host_exn =
    capture_stdout (fun () ->
        let ce = Compile.run_program (Compile.initial_fast Prims.Checked ()) tprog in
        match Value.as_fun (Compile.lookup ce "run") Value.unit_v with
        | _ -> "none"
        | exception Value.Dml_exn (Value.Vtag c) -> c.Value.name)
  in
  Alcotest.(check string) "host prints in source order" "1\n2\n3\n4\n5\n6\n7\n8\n" host_out;
  Alcotest.(check string) "host raises the first raising operand" "First" host_exn;
  let driver =
    {|
let dml_run _ = try ignore (v_run ()); "none" with E_First -> "First" | E_Second -> "Second"
|}
  in
  let text =
    Codegen.emit_executable ~name:"order" ~mode:Prims.Checked ~instrument:true ~driver tprog
  in
  let dir = Filename.temp_file "dml_order" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path f = Filename.concat dir f in
  Out_channel.with_open_bin (path "main.ml") (fun oc -> output_string oc text);
  let build =
    Printf.sprintf "%s > %s 2>&1"
      (tc.Codegen.tc_compile ~src:(path "main.ml") ~exe:(path "main.exe"))
      (Filename.quote (path "build.log"))
  in
  if Sys.command build <> 0 then Alcotest.failf "operand order: native build failed in %s" dir;
  if Sys.command (Printf.sprintf "%s 1 > %s" (Filename.quote (path "main.exe")) (Filename.quote (path "out.txt"))) <> 0
  then Alcotest.failf "operand order: native binary failed in %s" dir;
  let lines = String.split_on_char '\n' (In_channel.with_open_bin (path "out.txt") In_channel.input_all) in
  (* the program's own lines sit between the "scale" header and the summary *)
  let rec body = function
    | l :: rest when String.starts_with ~prefix:"scale " l -> program rest []
    | _ :: rest -> body rest
    | [] -> ([], "")
  and program lines acc =
    match lines with
    | l :: _ when String.starts_with ~prefix:"summary " l ->
        (List.rev acc, String.sub l 8 (String.length l - 8))
    | l :: rest -> program rest (l :: acc)
    | [] -> (List.rev acc, "")
  in
  let printed, summary = body lines in
  Alcotest.(check string) "native prints what the host prints" host_out
    (String.concat "" (List.map (fun l -> l ^ "\n") printed));
  Alcotest.(check string) "native raises what the host raises" host_exn summary;
  Array.iter (fun f -> Sys.remove (path f)) (Sys.readdir dir);
  Sys.rmdir dir

(* --- mangling and registry ------------------------------------------------ *)

(* the native entries of Dml_programs.Native_drivers name these mangled
   identifiers; a mangling change must fail loudly here rather than as 12
   opaque compile errors *)
let test_mangling () =
  Alcotest.(check string) "plain var" "v_bsearchInt" (Codegen.mangle_var "bsearchInt");
  Alcotest.(check string) "prime survives" "v_loop'" (Codegen.mangle_var "loop'");
  Alcotest.(check string) "cons constructor" "C_3a3a" (Codegen.mangle_con "::");
  Alcotest.(check string) "exception" "E_Subscript" (Codegen.mangle_exn "Subscript");
  Alcotest.(check string) "type constructor" "t_option" (Codegen.mangle_type "option")

let test_registry () =
  let key name = Option.map (fun b -> b.Backend.b_key) (Backend.find name) in
  Alcotest.(check (option string)) "cost-model by key" (Some "cost-model")
    (key "cost-model");
  Alcotest.(check (option string)) "cost-model by alias" (Some "cost-model")
    (key "cycles");
  Alcotest.(check (option string)) "compiled by key" (Some "compiled") (key "compiled");
  Alcotest.(check (option string)) "compiled by alias" (Some "compiled") (key "closure");
  Alcotest.(check (option string)) "native" (Some "native") (key "native");
  Alcotest.(check (option string)) "unknown" None (key "no-such-backend");
  Alcotest.(check (list string)) "registration order"
    [ "cost-model"; "compiled"; "native" ]
    (List.map (fun b -> b.Backend.b_key) (Backend.all ()))

let () =
  Alcotest.run "codegen"
    [
      ( "lowering",
        [
          Alcotest.test_case "proven sites are unsafe" `Quick test_unsafe_emission;
          Alcotest.test_case "checked build stays checked" `Quick test_checked_emission;
          Alcotest.test_case "kmp residual sites" `Quick test_kmp_residual_sites;
          Alcotest.test_case "degraded site keeps its check" `Quick
            test_degraded_site_keeps_check;
          Alcotest.test_case "emission golden" `Quick test_emission_golden;
        ] );
      ("differential (native vs host)", differential_tests);
      ( "soundness",
        [
          Alcotest.test_case "oob program traps" `Slow test_oob_traps;
          Alcotest.test_case "operands run in SML order" `Slow test_operand_order;
        ] );
      ( "api",
        [
          Alcotest.test_case "mangling is stable" `Quick test_mangling;
          Alcotest.test_case "backend registry" `Quick test_registry;
        ] );
    ]
