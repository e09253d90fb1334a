(* Self-tests of the benchmark, run by [dune build @perfbench/selftest]:

   - the generator: the same seed gives byte-identical inputs; every renamed
     corpus copy checks valid and shares no declaration digest with another
     copy; every off-by-one probe is unproven at exactly its line, and a
     broken probe fails in the parser;
   - the verifier: a wrong expected verdict and a wrong kernel summary are
     counted as failed operations;
   - the command: bench.exe runs each workload briefly, exits 0, ends its
     output with a correct result line and removes its scratch directory.

   Usage: selftest.exe BENCH_EXE DMLD_EXE *)

open Perfbench
module H = Harness
module S = Suite
module J = Dml_obs.Json

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let test_determinism () =
  let batch seed = List.map Gen.render (Gen.batch (Gen.create ~seed ~stream:1)) in
  check "same seed gives a byte-identical batch" (batch 7 = batch 7);
  check "another seed gives another batch" (batch 7 <> batch 8);
  let buffer seed = fst (Gen.render (Gen.editor_buffer (Gen.create ~seed ~stream:2))) in
  check "same seed gives a byte-identical editor buffer" (buffer 7 = buffer 7)

let test_copies () =
  let digests src = Dml_core.Incr.unit_digests (Dml_lang.Parser.parse_program src) in
  List.iter
    (fun (name, src) ->
      let a = Gen.rename ~suffix:"_a" src and b = Gen.rename ~suffix:"_b" src in
      check (name ^ ": a renamed copy checks valid") (S.check_cold a = Gen.Residual []);
      check (name ^ ": two copies share no declaration digest")
        (List.for_all (fun d -> not (List.mem d (digests b))) (digests a)))
    Gen.corpus;
  let src, ans = Gen.render (Gen.editor_buffer (Gen.create ~seed:1 ~stream:2)) in
  check "the editor buffer (the corpus twice, with probes) checks valid"
    (ans = Gen.Residual [] && S.check_cold src = ans)

let test_mutants () =
  let g = Gen.create ~seed:3 ~stream:1 in
  for copies = 1 to 12 do
    let src, ans = Gen.render (Gen.program g ~copies ~off_by_one:true) in
    check
      (Printf.sprintf "%d copies: the off-by-one probe is unproven at exactly its line" copies)
      ((match ans with Gen.Residual [ _ ] -> true | _ -> false) && S.check_cold src = ans)
  done;
  let prog = ref (Gen.editor_buffer g) in
  List.iter
    (fun e ->
      for _ = 1 to 3 do
        let p = Gen.apply_edit g !prog e in
        let src, ans = Gen.render p in
        check ("edit " ^ Gen.edit_name e ^ ": the check reaches the known answer") (S.check_cold src = ans);
        if e <> Gen.Break then prog := p
      done)
    [ Gen.Bump; Gen.Toggle_comment; Gen.Change_bound; Gen.Break ];
  check "a broken probe is a parse failure"
    (snd (Gen.render (Gen.apply_edit g !prog Gen.Break)) = Gen.Front_failure "parse")

let work = ".perfbench_work/selftest"

(* Failed operations of a one-pass run. *)
let failed_ops cfg w =
  H.tally.H.attempted <- 0;
  H.tally.H.failed <- 0;
  ignore (S.run ~traced:false cfg w);
  H.tally.H.failed

let test_verifier ~dmld =
  let cfg = { S.seed = 5; seconds = 0.; work; dmld_exe = dmld } in
  let w = S.check_batch cfg in
  let wrong (src, ans) = (src, if ans = Gen.Residual [] then Gen.Residual [ 1 ] else Gen.Residual []) in
  let lying =
    {
      w with
      S.setup =
        (fun () ->
          let inputs, release = w.S.setup () in
          (Array.map wrong inputs, release));
    }
  in
  check "check-batch: right answers pass" (failed_ops cfg w = 0);
  check "check-batch: every wrong verdict fails its operation" (failed_ops cfg lying = Gen.batch_size);
  let k = S.run_kernels cfg in
  (* one closure run of the first kernel, against its own or a planted summary *)
  let one ~planted =
    {
      k with
      S.length = 1;
      prepare = ignore;
      setup =
        (fun () ->
          let st, release = k.S.setup () in
          if planted then st.S.kernels.(0).S.summary <- Some "planted wrong summary";
          (st, release));
      op =
        (fun st ~staged _ ->
          let rec first_closure i = match st.S.order.(i) with 0, S.Closure, _ -> i | _ -> first_closure (i + 1) in
          k.S.op st ~staged (first_closure 0));
    }
  in
  check "run-kernels: a run matching its kernel's summary passes" (failed_ops cfg (one ~planted:false) = 0);
  check "run-kernels: a wrong kernel summary fails the operation" (failed_ops cfg (one ~planted:true) = 1)

(* Run the command itself and read its result line. *)
let test_command ~bench ~dmld =
  List.iter
    (fun (workload, trace) ->
      let out = Filename.concat work "out.txt" and run_dir = Filename.concat work "run" in
      H.mkdir_p work;
      let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
      let args =
        [| bench; "--workload"; workload; "--seed"; "11"; "--seconds"; "0.5"; "--trace"; string_of_int trace;
           "--work"; run_dir; "--dmld"; dmld |]
      in
      let pid = Unix.create_process bench args Unix.stdin fd Unix.stderr in
      Unix.close fd;
      let status = snd (Unix.waitpid [] pid) in
      let lines = String.split_on_char '\n' (String.trim (H.read_file out)) in
      let name = Printf.sprintf "%s --trace %d" workload trace in
      check (name ^ ": exits 0") (status = Unix.WEXITED 0);
      check (name ^ ": ends with a correct result line")
        (match J.of_string (List.nth lines (List.length lines - 1)) with
        | Ok j -> (
            J.member "correct" j = Some (J.Bool true)
            && J.member "failed" j = Some (J.Int 0)
            &&
            match J.member "metrics" j with
            | Some (J.Obj ms) -> List.mem_assoc (if trace = 0 then "setup_s" else "trace.coverage") ms
            | _ -> false)
        | Error _ -> false);
      check (name ^ ": removes its scratch directory") (not (Sys.file_exists run_dir)))
    [ ("check-batch", 0); ("check-batch", 1); ("serve-edit", 0); ("serve-edit", 1); ("run-kernels", 0) ]

let () =
  match Sys.argv with
  | [| _; bench; dmld |] ->
      let abs p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
      test_determinism ();
      test_copies ();
      test_mutants ();
      test_verifier ~dmld:(abs dmld);
      test_command ~bench:(abs bench) ~dmld:(abs dmld);
      H.rm_rf work;
      if !failures > 0 then begin
        Printf.printf "%d self-test(s) failed\n" !failures;
        exit 1
      end
  | _ ->
      prerr_endline "usage: selftest.exe BENCH_EXE DMLD_EXE";
      exit 2
