(* dmli: an interactive read-check-eval loop for the dependent ML fragment.

   Input is a declaration or an expression terminated by ";;".  Expressions
   are bound to [it].  Every entry is re-checked together with the whole
   session so far (so invariants can build on earlier definitions); entries
   that fail to check report their unproven constraints with source context
   and are discarded.

     $ dune exec bin/dmli.exe
     dml> fun double(x) = x + x ;;
     val double : int -> int
     dml> double 21 ;;
     val it : int = 42
     dml> val a = array(4, 0) ;;
     val a : int array = [|0; 0; 0; 0|]
     dml> sub(a, 9) ;;
     ... Unproven constraint: bound check for sub ...

   Note: evaluation re-runs the whole session on each entry, so effects
   (update, print_int) replay; this keeps the loop simple and is the
   documented behaviour. *)

open Dml_core
open Dml_lang
open Dml_mltype

let prompt = "dml> "
let continuation_prompt = "...> "

let decl_keywords = [ "fun "; "val "; "datatype "; "typeref "; "assert "; "type "; "exception " ]

let is_decl input =
  let trimmed = String.trim input in
  List.exists
    (fun kw -> String.length trimmed >= String.length kw
               && String.sub trimmed 0 (String.length kw) = kw)
    decl_keywords

(* names bound by a freshly parsed fragment, for printing *)
let bound_names (prog : Ast.program) =
  List.concat_map
    (fun top ->
      match top with
      | Ast.Tdec { Ast.ddesc = Ast.Dval (p, _, _); _ } -> Ast.pat_vars p
      | Ast.Tdec { Ast.ddesc = Ast.Dfun fds; _ } -> List.map (fun fd -> fd.Ast.fname) fds
      | Ast.Tdec { Ast.ddesc = Ast.Dexception _; _ } -> []
      | Ast.Tdatatype _ | Ast.Ttyperef _ | Ast.Tassert _ | Ast.Ttypedef _ -> [])
    prog

let read_entry () =
  print_string prompt;
  let buf = Buffer.create 64 in
  let rec go () =
    match read_line () with
    | exception End_of_file -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
    | line ->
        let trimmed = String.trim line in
        if trimmed = "" && Buffer.length buf = 0 then begin
          print_string prompt;
          go ()
        end
        else begin
          Buffer.add_string buf line;
          Buffer.add_char buf '\n';
          let s = String.trim (Buffer.contents buf) in
          if String.length s > 0 && s.[0] = '#' then Some s
          else if String.length s >= 2 && String.sub s (String.length s - 2) 2 = ";;" then
            Some (String.sub s 0 (String.length s - 2))
          else begin
            print_string continuation_prompt;
            go ()
          end
        end
  in
  go ()

let print_binding mlenv lookup name =
  match Infer.SMap.find_opt name mlenv.Infer.vals with
  | None -> ()
  | Some scheme -> (
      let v = try Some (lookup name) with _ -> None in
      match (v, Mltype.repr scheme.Mltype.sbody) with
      | Some v, (Mltype.Tarrow _ | Mltype.Tqvar _) when scheme.Mltype.svars <> [] ->
          ignore v;
          Format.printf "val %s : %a@." name Mltype.pp_scheme scheme
      | Some (Dml_eval.Value.Vfun _), _ ->
          Format.printf "val %s : %a@." name Mltype.pp_scheme scheme
      | Some v, _ ->
          Format.printf "val %s : %a = %a@." name Mltype.pp_scheme scheme Dml_eval.Value.pp v
      | None, _ -> Format.printf "val %s : %a@." name Mltype.pp_scheme scheme)

(* One session for the whole REPL, built from the same flags as [dmlc
   check]: solver method and budgets, the strict/degrade switch and
   --cache-dir.  --trace FILE writes the session's spans on exit; --profile
   prints the metrics registry on exit. *)
let repl solve cache_spec degrade trace profile =
  let checker =
    Session.create ~options:(Cli_options.session_options ~solve ~cache_spec ()) ()
  in
  let sink =
    match trace with
    | None -> None
    | Some _ ->
        let sk = Dml_obs.Trace.create_sink () in
        Dml_obs.Trace.set_sink (Some sk);
        Some sk
  in
  Format.printf "dml interactive - PLDI'98 dependent types; end entries with ;;@.";
  Format.printf "(#quit to exit, #show to list the session so far%s)@."
    (if degrade then "; degraded mode: unproven sites stay checked" else "");
  let session = ref "" in
  let rec loop () =
    match read_entry () with
    | None -> Format.printf "@.bye@."
    | Some entry when String.trim entry = "#quit" -> Format.printf "bye@."
    | Some entry when String.trim entry = "#show" ->
        print_string !session;
        loop ()
    | Some entry ->
        let fragment = if is_decl entry then entry else Printf.sprintf "val it = %s" entry in
        let candidate = !session ^ "\n" ^ fragment ^ "\n" in
        (match Pipeline.check_s checker candidate with
        | Error f -> print_string (Diagnose.render_failure ~src:candidate f)
        | Ok report when (not report.Pipeline.rp_valid) && not degrade ->
            print_string (Diagnose.render_report ~src:candidate report)
        | Ok report -> (
            session := candidate;
            if not report.Pipeline.rp_valid then
              print_string (Diagnose.render_degradation ~src:candidate report);
            match Parser.parse_program fragment with
            | exception _ -> ()
            | prog ->
                let ce =
                  Dml_eval.Compile.initial_fast Dml_eval.Prims.Unchecked
                    ?degraded:(Pipeline.degraded report) ()
                in
                (match Dml_eval.Compile.run_program ce report.Pipeline.rp_tprog with
                | ce ->
                    List.iter
                      (fun name ->
                        print_binding report.Pipeline.rp_mlenv
                          (Dml_eval.Compile.lookup ce) name)
                      (bound_names prog)
                | exception e ->
                    Format.printf "runtime error: %s@." (Printexc.to_string e))));
        loop ()
  in
  loop ();
  (match (trace, sink) with
  | Some file, Some sk -> (
      Dml_obs.Trace.set_sink None;
      match Dml_obs.Json.write_file file (Dml_obs.Trace.to_json sk) with
      | Ok () -> ()
      | Error msg -> prerr_endline ("dmli: cannot write trace file: " ^ msg))
  | _ -> ());
  if profile then Format.printf "%a" Dml_obs.Metrics.pp ()

let () =
  let open Cmdliner in
  let doc = "Interactive read-check-eval loop for the dependent ML fragment." in
  let term =
    Term.(
      const repl $ Cli_options.solve_config $ Cli_options.cache_spec_term
      $ Cli_options.degrade_flag $ Cli_options.trace_term $ Cli_options.profile_term)
  in
  exit (Cmd.eval (Cmd.v (Cmd.info "dmli" ~doc) term))
