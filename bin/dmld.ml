(* dmld: the persistent check server (protocol dml-server/1, see DESIGN.md).

   - [dmld serve --socket PATH]  listen on a Unix-domain socket
   - [dmld serve --stdio]        serve one connection on stdin/stdout
   - [dmld check FILE]           client: check a file against a running server
   - [dmld request JSON]         client: send one raw request document
   - [dmld status|metrics|shutdown]  client: the corresponding request

   The server holds one long-lived session with program-level memoization
   (source digest x options fingerprint), so a repeated check of an
   unchanged program costs zero solver calls; --cache-dir adds a persistent
   verdict cache shared by every request.  The
   check result documents are built by the same [Dml_core.Report_json]
   builders as [dmlc check --json], so responses are byte-identical to
   one-shot output modulo the schedule-dependent fields. *)

open Cmdliner
open Cli_options
module J = Dml_obs.Json
module Server = Dml_server.Server
module Protocol = Dml_server.Protocol

let socket_arg =
  let doc = "Unix-domain socket path of the server." in
  Arg.(value & opt string "/tmp/dmld.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

(* --- serve ------------------------------------------------------------------ *)

let serve_cmd =
  let run config cache_spec jobs incremental stdio socket request_timeout_ms max_queue =
    let options = session_options ?jobs ~incremental ~solve:config ~cache_spec () in
    let server = Server.create ~options ~request_timeout_ms ~max_queue () in
    if stdio then Server.serve_stdio server
    else begin
      prerr_endline ("dmld: listening on " ^ socket);
      Server.serve_unix server ~path:socket
    end
  in
  let stdio =
    let doc = "Serve a single connection on stdin/stdout instead of a socket." in
    Arg.(value & flag & info [ "stdio" ] ~doc)
  in
  let incremental =
    let doc =
      "Declaration-grain incremental rechecking: keep a per-declaration verdict store \
       and serve $(b,check_patch) requests by re-solving only the declarations whose \
       content or dependencies changed since the base source.  Check documents are \
       byte-identical to a cold full check modulo schedule-dependent fields."
    in
    Arg.(value & flag & info [ "incremental" ] ~doc)
  in
  let request_timeout_ms =
    let doc =
      "Per-request deadline in milliseconds under a worker pool (-j): a worker past it \
       is killed and the request retried once on a fresh worker, then answered with a \
       $(b,timeout) error.  0 disables the deadline.  Inert without -j."
    in
    Arg.(
      value
      & opt int Server.default_request_timeout_ms
      & info [ "request-timeout-ms" ] ~docv:"MS" ~doc)
  in
  let max_queue =
    let doc =
      "Bound on requests queued behind busy workers under a worker pool (-j); past it \
       new check/batch requests are shed immediately with an $(b,overloaded) error.  \
       Inert without -j."
    in
    Arg.(value & opt int 256 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let doc =
    "Run the persistent check server.  $(b,--cache-dir) gives it a persistent \
     verdict cache; -j puts check and batch requests on a pool of warm \
     forked workers with per-request deadlines (--request-timeout-ms), bounded \
     queueing (--max-queue) and crash recovery."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ solve_config $ cache_spec_term $ batch_jobs_term $ incremental $ stdio $ socket_arg $ request_timeout_ms
      $ max_queue)

(* --- client helpers ---------------------------------------------------------- *)

let roundtrip ~socket req =
  match Server.client_request ~socket req with
  | Error msg -> exit_err ("dmld: " ^ msg)
  | Ok response -> response

let response_ok response =
  match J.member "ok" response with Some (J.Bool true) -> true | _ -> false

(* Print the response and exit 0 exactly when the server said ok. *)
let finish response =
  emit_json response;
  if response_ok response then exit 0 else exit 1

let simple_client_cmd name ~doc =
  let run socket = finish (roundtrip ~socket (J.Obj [ ("op", J.String name) ])) in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ socket_arg)

(* --- check (client) ---------------------------------------------------------- *)

let check_cmd =
  let run socket file =
    match read_source file with
    | Error msg -> exit_err ("dmld: " ^ msg)
    | Ok source -> (
        let req =
          J.Obj
            [
              ("op", J.String "check");
              ("program", J.String file);
              ("source", J.String source);
            ]
        in
        let response = roundtrip ~socket req in
        if not (response_ok response) then begin
          emit_json response;
          exit 1
        end
        else
          match J.member "result" response with
          | None -> exit_err "dmld: response has no result"
          | Some doc ->
              (* print the bare dml-check/1 document: the same shape as
                 [dmlc check --json], so the two are directly diffable *)
              emit_json doc;
              (match J.member "valid" doc with
              | Some (J.Bool true) -> exit 0
              | _ -> exit 1))
  in
  let file =
    let doc = "Program file, or the name of a bundled benchmark." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let doc = "Check one program against a running server and print its dml-check/1 report." in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ socket_arg $ file)

(* --- request (raw) ----------------------------------------------------------- *)

let request_cmd =
  let run socket body =
    let body =
      if body = "-" then In_channel.input_all In_channel.stdin else body
    in
    match J.of_string body with
    | Error msg -> exit_err ("dmld: request is not valid JSON: " ^ msg)
    | Ok req -> finish (roundtrip ~socket req)
  in
  let body =
    let doc = "The request document (JSON), or $(b,-) to read it from stdin." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"JSON" ~doc)
  in
  let doc = "Send one raw dml-server/1 request and print the response envelope." in
  Cmd.v (Cmd.info "request" ~doc) Term.(const run $ socket_arg $ body)

let () =
  let doc = "dependent ML check server (dml-server/1)" in
  let info = Cmd.info "dmld" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            serve_cmd;
            check_cmd;
            request_cmd;
            simple_client_cmd "status" ~doc:"Query a running server's status document.";
            simple_client_cmd "metrics" ~doc:"Dump a running server's metrics registry.";
            simple_client_cmd "shutdown" ~doc:"Ask a running server to exit.";
          ]))
