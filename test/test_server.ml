(* dml-server/1 and the dmld server: request parsing and per-request
   overrides, a golden request/response transcript covering every request
   kind, malformed- and oversized-frame handling on a live stdio loop, the
   warm-session oracle (a repeated check of an unchanged program does zero
   solver calls and returns the identical document), and multi-client
   byte-identity over a real Unix-domain socket.

   Regenerating the golden transcript after an intentional schema change:

     DML_SERVER_GOLDEN=$PWD/test/server_golden.json dune exec test/test_server.exe *)

open Dml_server
module J = Dml_obs.Json
module Session = Dml_core.Session
module Pipeline = Dml_core.Pipeline
module Report_json = Dml_core.Report_json

let src_ok = "val a = array(4, 0)\nval x = sub(a, 2)\n"
let src_parse_err = "val x = "

(* schedule-dependent report fields plus the server's own volatile figures *)
let volatile =
  Report_json.schedule_dependent_fields @ [ "pid"; "uptime_s"; "counters"; "histograms" ]

let scrub v = J.scrub ~keys:volatile v

let obj fields = J.Obj fields
let str s = J.String s

let cached_options =
  { Session.default_options with Session.op_cache = Some Dml_cache.Cache.default_config }

let incr_options = { Session.default_options with Session.op_incremental = true }

(* --- request parsing --------------------------------------------------------- *)

let parse_error v =
  match Protocol.parse_request v with
  | Error e -> e
  | Ok _ -> Alcotest.fail "expected a parse error"

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let check_error_mentions what v sub =
  let e = parse_error v in
  Alcotest.(check bool) (what ^ ": " ^ e) true (contains ~sub e)

let test_parse_errors () =
  check_error_mentions "missing op" (obj []) "missing \"op\"";
  check_error_mentions "op not string" (obj [ ("op", J.Int 3) ]) "\"op\" must be a string";
  check_error_mentions "unknown op" (obj [ ("op", str "frobnicate") ]) "unknown op";
  check_error_mentions "check without source" (obj [ ("op", str "check") ]) "missing \"source\"";
  check_error_mentions "unknown field"
    (obj [ ("op", str "check"); ("source", str "x"); ("sauce", str "y") ])
    "unknown field \"sauce\"";
  check_error_mentions "batch programs not array"
    (obj [ ("op", str "batch"); ("programs", str "x") ])
    "must be an array";
  check_error_mentions "batch entry without source"
    (obj [ ("op", str "batch"); ("programs", J.List [ obj [ ("program", str "p") ] ]) ])
    "missing \"source\"";
  check_error_mentions "status with stray field"
    (obj [ ("op", str "status"); ("source", str "x") ])
    "unknown field \"source\""

let test_parse_ok () =
  (match
     Protocol.parse_request
       (obj [ ("op", str "check"); ("id", J.Int 7); ("source", str "x"); ("program", str "p") ])
   with
  | Ok { Protocol.id; req = Protocol.Check { program; source; options } } ->
      Alcotest.(check bool) "id echoed" true (id = J.Int 7);
      Alcotest.(check (option string)) "program" (Some "p") program;
      Alcotest.(check string) "source" "x" source;
      Alcotest.(check bool) "no options" true (options = None)
  | Ok _ -> Alcotest.fail "parsed to the wrong request"
  | Error e -> Alcotest.fail e);
  match
    Protocol.parse_request
      (obj
         [
           ("op", str "batch");
           ( "programs",
             J.List [ obj [ ("source", str "a") ]; obj [ ("source", str "b"); ("program", str "q") ] ]
           );
         ])
  with
  | Ok { Protocol.req = Protocol.Batch { programs; _ }; _ } ->
      Alcotest.(check (list (pair string string)))
        "names default positionally" [ ("p0", "a"); ("q", "b") ] programs
  | Ok _ -> Alcotest.fail "parsed to the wrong request"
  | Error e -> Alcotest.fail e

let expect_error_code what code resp =
  (match J.member "ok" resp with
  | Some (J.Bool false) -> ()
  | _ -> Alcotest.fail (what ^ ": expected ok=false"));
  match J.member "error" resp with
  | Some err -> (
      match J.member "code" err with
      | Some (J.String c) -> Alcotest.(check string) (what ^ ": error code") code c
      | _ -> Alcotest.fail (what ^ ": error without code"))
  | None -> Alcotest.fail (what ^ ": no error object")

let test_overrides () =
  let base = Session.default_options in
  (match
     Protocol.apply_overrides base
       (obj
          [
            ("solver", str "simplex");
            ("fuel", J.Int 10);
          ])
   with
  | Error e -> Alcotest.fail e
  | Ok o ->
      Alcotest.(check bool) "solver" true
        (o.Session.op_solve.Session.sc_method = Dml_solver.Solver.Simplex_rational);
      Alcotest.(check (option int)) "fuel" (Some 10) o.Session.op_solve.Session.sc_fuel;
      Alcotest.(check bool) "fingerprint moved" true
        (Session.fingerprint o <> Session.fingerprint base));
  (match Protocol.apply_overrides base (obj [ ("bogus", J.Int 1) ]) with
  | Error e -> Alcotest.(check bool) ("bogus rejected: " ^ e) true (contains ~sub:"bogus" e)
  | Ok _ -> Alcotest.fail "unknown option accepted");
  (match Protocol.apply_overrides base (obj [ ("solver", str "nope") ]) with
  | Error e -> Alcotest.(check bool) ("bad solver rejected: " ^ e) true (contains ~sub:"nope" e)
  | Ok _ -> Alcotest.fail "unknown solver accepted");
  (* neither the arithmetic lane, an escalation ladder nor a strict/degrade
     mode is a request option: a check naming one is a structured
     bad-request that names the field *)
  List.iter
    (fun (field, value) ->
      let resp =
        Server.handle (Server.create ())
          (obj
             [
               ("op", str "check");
               ("source", str src_ok);
               ("options", obj [ (field, value) ]);
             ])
      in
      expect_error_code (field ^ " option") "bad-request" resp;
      match Option.bind (J.member "error" resp) (J.member "msg") with
      | Some (J.String m) ->
          Alcotest.(check bool) ("names the field: " ^ m) true
            (contains ~sub:(Printf.sprintf "unknown field %S" field) m)
      | _ -> Alcotest.fail (field ^ " option: error without msg"))
    [ ("solver_lane", str "bignum"); ("escalate", J.Bool true); ("mode", str "degrade") ]

(* --- golden transcript -------------------------------------------------------- *)

(* One request of every kind (plus a malformed one) against a fresh server,
   scrubbed of volatile fields.  The request counters and memo figures in
   the status document are deterministic because the transcript order is. *)
let transcript_requests =
  [
    obj [ ("op", str "check"); ("id", J.Int 1); ("program", str "ok.dml"); ("source", str src_ok) ];
    obj
      [
        ("op", str "check");
        ("id", J.Int 2);
        ("program", str "broken.dml");
        ("source", str src_parse_err);
      ];
    obj
      [
        ("op", str "batch");
        ("id", J.Int 3);
        ( "programs",
          J.List
            [
              obj [ ("program", str "ok.dml"); ("source", str src_ok) ];
              obj [ ("program", str "broken.dml"); ("source", str src_parse_err) ];
            ] );
      ];
    obj [ ("op", str "status"); ("id", J.Int 4) ];
    obj [ ("op", str "metrics"); ("id", J.Int 5) ];
    obj [ ("op", str "frobnicate"); ("id", J.Int 6) ];
    obj [ ("op", str "shutdown"); ("id", J.Int 7) ];
  ]

let run_transcript () =
  let server = Server.create () in
  let responses = List.map (fun req -> scrub (Server.handle server req)) transcript_requests in
  Alcotest.(check bool) "shutdown request stops the server" true (Server.stopping server);
  J.List responses

let test_golden_transcript () =
  let got = run_transcript () in
  match Sys.getenv_opt "DML_SERVER_GOLDEN" with
  | Some out -> (
      match J.write_file out got with
      | Ok () -> print_endline ("wrote golden transcript to " ^ out)
      | Error msg -> Alcotest.fail msg)
  | None -> (
      let path =
        if Sys.file_exists "server_golden.json" then "server_golden.json"
        else "test/server_golden.json"
      in
      let ic = open_in path in
      let raw = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match J.of_string raw with
      | Error msg -> Alcotest.fail ("golden file does not parse: " ^ msg)
      | Ok expected ->
          Alcotest.(check string) "transcript matches the golden file" (J.to_string expected)
            (J.to_string got))

(* --- live stdio loop: framing errors ------------------------------------------ *)

let rec write_all fd buf ofs len =
  if len > 0 then begin
    let n = Unix.write fd buf ofs len in
    write_all fd buf (ofs + n) (len - n)
  end

let recv_ok what fd =
  match Protocol.recv fd with
  | Ok v -> v
  | Error _ -> Alcotest.fail (what ^ ": expected a response frame")

let test_stdio_frames () =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close req_w;
      Unix.close resp_r;
      (try Server.serve_stdio ~input:req_r ~output:resp_w (Server.create ()) with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close req_r;
      Unix.close resp_w;
      (* a valid request round-trips *)
      Protocol.send req_w (obj [ ("op", str "check"); ("id", J.Int 1); ("source", str src_ok) ]);
      let r1 = recv_ok "check" resp_r in
      Alcotest.(check bool) "check ok" true (J.member "ok" r1 = Some (J.Bool true));
      Alcotest.(check bool) "id echoed" true (J.member "id" r1 = Some (J.Int 1));
      (* a well-framed but unparseable payload is rejected and the
         connection survives *)
      Dml_par.Frame.write_raw req_w "this is not json";
      expect_error_code "bad json" "bad-json" (recv_ok "bad json" resp_r);
      Protocol.send req_w (obj [ ("op", str "status") ]);
      Alcotest.(check bool) "connection survives bad json" true
        (J.member "ok" (recv_ok "status" resp_r) = Some (J.Bool true));
      (* an oversized frame header gets an error response and closes the
         stream (it cannot be resynchronized) *)
      let header = Bytes.create 8 in
      Bytes.set_int64_be header 0 (Int64.of_int (Protocol.max_frame + 1));
      write_all req_w header 0 8;
      expect_error_code "oversized" "oversized-frame" (recv_ok "oversized" resp_r);
      (match Protocol.recv resp_r with
      | Error `Eof -> ()
      | _ -> Alcotest.fail "stream should close after an oversized frame");
      Unix.close req_w;
      Unix.close resp_r;
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "server exited cleanly" true (status = Unix.WEXITED 0)

(* Any header outside [0, max_frame] — one too large for the allocation
   cap, one negative — is a framing error on stdio just as on the socket:
   answered "oversized-frame", never "bad-json", and the stream closes. *)
let test_stdio_bad_headers () =
  List.iter
    (fun (what, len) ->
      let req_r, req_w = Unix.pipe () in
      let resp_r, resp_w = Unix.pipe () in
      match Unix.fork () with
      | 0 ->
          Unix.close req_w;
          Unix.close resp_r;
          (try Server.serve_stdio ~input:req_r ~output:resp_w (Server.create ()) with _ -> ());
          Unix._exit 0
      | pid ->
          Unix.close req_r;
          Unix.close resp_w;
          let header = Bytes.create 8 in
          Bytes.set_int64_be header 0 len;
          write_all req_w header 0 8;
          expect_error_code what "oversized-frame" (recv_ok what resp_r);
          (match Protocol.recv resp_r with
          | Error `Eof -> ()
          | _ -> Alcotest.fail (what ^ ": stream should close after a bad header"));
          Unix.close req_w;
          Unix.close resp_r;
          let _, status = Unix.waitpid [] pid in
          Alcotest.(check bool) (what ^ ": server exited cleanly") true (status = Unix.WEXITED 0))
    [ ("2^40 header", Int64.shift_left 1L 40); ("-1 header", -1L) ]

(* --- warm-session oracle ------------------------------------------------------ *)

let counter_of metrics name =
  match J.member "result" metrics with
  | Some result -> (
      match J.member "counters" result with
      | Some counters -> (
          match J.member name counters with Some (J.Int n) -> n | _ -> 0)
      | None -> 0)
  | None -> Alcotest.fail "metrics response has no result"

let result_of what resp =
  match J.member "result" resp with
  | Some r -> r
  | None -> Alcotest.fail (what ^ ": response has no result")

(* The acceptance oracle: the second identical check is answered from the
   program memo — the identical document, zero solver calls (verified
   through the metrics request), and "memo": true in the envelope. *)
let test_warm_oracle () =
  let server = Server.create ~options:cached_options () in
  let check_req id =
    obj
      [
        ("op", str "check");
        ("id", J.Int id);
        ("program", str "warm.dml");
        ("source", str Dml_programs.Sources.bsearch);
      ]
  in
  let metrics_req = obj [ ("op", str "metrics") ] in
  let r1 = Server.handle server (check_req 1) in
  let m1 = Server.handle server metrics_req in
  let r2 = Server.handle server (check_req 2) in
  let m2 = Server.handle server metrics_req in
  Alcotest.(check bool) "first check computes" true (J.member "memo" r1 = None);
  Alcotest.(check bool) "second check is memoized" true (J.member "memo" r2 = Some (J.Bool true));
  Alcotest.(check string) "identical result documents"
    (J.to_string (result_of "r1" r1))
    (J.to_string (result_of "r2" r2));
  List.iter
    (fun name ->
      Alcotest.(check int)
        (name ^ " unchanged by the warm repeat")
        (counter_of m1 name) (counter_of m2 name))
    [ "solver.goals"; "solver.uncached_solves"; "pipeline.runs"; "cache.lookups" ];
  (* different options fingerprint -> different memo key -> a fresh check *)
  let r3 =
    Server.handle server
      (obj
         [
           ("op", str "check");
           ("id", J.Int 3);
           ("program", str "warm.dml");
           ("source", str Dml_programs.Sources.bsearch);
           ("options", obj [ ("solver", str "simplex") ]);
         ])
  in
  Alcotest.(check bool) "override misses the memo" true (J.member "memo" r3 = None);
  Alcotest.(check bool) "override is still ok" true (J.member "ok" r3 = Some (J.Bool true))

(* --- concurrent clients over a real socket ------------------------------------ *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let test_concurrent_clients () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "dml_test_server.sock" in
  (try Sys.remove path with Sys_error _ -> ());
  match Unix.fork () with
  | 0 ->
      (try Server.serve_unix (Server.create ~options:cached_options ()) ~path with _ -> ());
      Unix._exit 0
  | pid ->
      let rec await n =
        if Sys.file_exists path then ()
        else if n = 0 then Alcotest.fail "server socket never appeared"
        else begin
          Unix.sleepf 0.05;
          await (n - 1)
        end
      in
      await 100;
      (* four clients connect, all send before any reads: the select loop
         must multiplex them without losing or crossing responses *)
      let conns = List.init 4 (fun _ -> connect path) in
      List.iteri
        (fun i fd ->
          Protocol.send fd
            (obj
               [
                 ("op", str "check");
                 ("id", J.Int i);
                 ("program", str "bcopy");
                 ("source", str Dml_programs.Sources.bcopy);
               ]))
        conns;
      let responses = List.mapi (fun i fd -> recv_ok (Printf.sprintf "client %d" i) fd) conns in
      List.iteri
        (fun i resp ->
          Alcotest.(check bool) (Printf.sprintf "client %d ok" i) true
            (J.member "ok" resp = Some (J.Bool true));
          Alcotest.(check bool)
            (Printf.sprintf "client %d id" i)
            true
            (J.member "id" resp = Some (J.Int i)))
        responses;
      (* all four result documents are byte-identical to each other and to a
         one-shot in-process check (modulo schedule-dependent fields) *)
      let results =
        List.map (fun r -> J.to_string (scrub (result_of "client" r))) responses
      in
      List.iter
        (fun r -> Alcotest.(check string) "identical across clients" (List.hd results) r)
        results;
      let oneshot =
        let session = Session.create ~options:cached_options () in
        match Pipeline.check_s session Dml_programs.Sources.bcopy with
        | Ok rp -> Report_json.of_report ~program:"bcopy" rp
        | Error f -> Alcotest.fail (Pipeline.failure_to_string f)
      in
      Alcotest.(check string) "byte-identical to a one-shot check"
        (J.to_string (scrub oneshot))
        (List.hd results);
      (* shut the server down through one of the connections *)
      Protocol.send (List.hd conns) (obj [ ("op", str "shutdown") ]);
      Alcotest.(check bool) "shutdown ok" true
        (J.member "ok" (recv_ok "shutdown" (List.hd conns)) = Some (J.Bool true));
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) conns;
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "server exited cleanly" true (status = Unix.WEXITED 0);
      Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* --- fault tolerance under a worker pool -------------------------------------- *)

(* The robustness oracle: with the pool's fault hooks armed, every faulted
   request still gets a well-formed dml-server/1 error document ("timeout" /
   "worker-lost" / "overloaded"), and the parent's warm state — memo,
   session cache, serve loop — survives untouched.  The hooks key on the
   *program name* ([Runner.test_injection] in the worker), so one poisoned
   name faults deterministically while the rest of the mix stays healthy. *)

let crash_name = "inject-crash.dml"
let hang_name = "inject-hang.dml"

let with_fault_env f =
  Unix.putenv "DML_PAR_TEST_CRASH" crash_name;
  Unix.putenv "DML_PAR_TEST_HANG" hang_name;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "DML_PAR_TEST_CRASH" "";
      Unix.putenv "DML_PAR_TEST_HANG" "")
    f

let pooled_options = { cached_options with Session.op_jobs = Some 1 }

let fork_pooled_server ?(max_queue = 256) ?(options = pooled_options) ?(request_timeout_ms = 300)
    ~path () =
  (try Sys.remove path with Sys_error _ -> ());
  match Unix.fork () with
  | 0 ->
      (try
         Server.serve_unix
           (Server.create ~options ~request_timeout_ms ~max_queue ())
           ~path
       with _ -> ());
      Unix._exit 0
  | pid ->
      let rec await n =
        if Sys.file_exists path then ()
        else if n = 0 then Alcotest.fail "pooled server socket never appeared"
        else begin
          Unix.sleepf 0.05;
          await (n - 1)
        end
      in
      await 100;
      pid

let check_req ?(id = 0) name source =
  obj
    [
      ("op", str "check");
      ("id", J.Int id);
      ("program", str name);
      ("source", str source);
    ]

let shutdown_and_reap fd pid =
  Protocol.send fd (obj [ ("op", str "shutdown") ]);
  ignore (recv_ok "shutdown" fd);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "server exited cleanly" true (status = Unix.WEXITED 0)

(* --- incremental rechecking: check_patch -------------------------------------- *)

let patch_req ?(id = 0) ?base ?(program = "buf.dml") source =
  obj
    ([
       ("op", str "check_patch");
       ("id", J.Int id);
       ("program", str program);
       ("source", str source);
     ]
    @ match base with None -> [] | Some b -> [ ("base", str b) ])

let incr_of what resp =
  match J.member "incr" (result_of what resp) with
  | Some v -> v
  | None -> Alcotest.fail (what ^ ": response has no incr object")

let check_of what resp =
  match J.member "check" (result_of what resp) with
  | Some v -> v
  | None -> Alcotest.fail (what ^ ": response has no check document")

let incr_int what field resp =
  match J.member field (incr_of what resp) with
  | Some (J.Int n) -> n
  | _ -> Alcotest.failf "%s: incr.%s missing or not an int" what field

let incr_source_id what resp =
  match J.member "source_id" (incr_of what resp) with
  | Some (J.String s) -> s
  | _ -> Alcotest.fail (what ^ ": incr.source_id missing")

let expect_ok what resp =
  Alcotest.(check bool) (what ^ ": ok") true (J.member "ok" resp = Some (J.Bool true))

(* The patch transcript: an establishing check (no base), a patch that adds
   one declaration (only the new declaration re-solved), and a patch that
   reverts to the base — whose response document must be the establishing
   check's document byte-for-byte, straight from the memo. *)
let test_patch_roundtrip () =
  let server = Server.create ~options:incr_options () in
  let patched_src = src_ok ^ "val y = sub(a, 3)\n" in
  let r1 = Server.handle server (patch_req ~id:1 src_ok) in
  expect_ok "establishing check" r1;
  Alcotest.(check bool) "establishing check computes" true (J.member "memo" r1 = None);
  let units = incr_int "r1" "units" r1 in
  Alcotest.(check bool) "the base has units" true (units > 0);
  Alcotest.(check int) "a cold check dirties every unit" units (incr_int "r1" "dirty" r1);
  Alcotest.(check int) "a cold check reuses nothing" 0 (incr_int "r1" "reused" r1);
  let base_id = incr_source_id "r1" r1 in
  let r2 = Server.handle server (patch_req ~id:2 ~base:base_id patched_src) in
  expect_ok "patch" r2;
  Alcotest.(check int) "only the new declaration is dirty" 1 (incr_int "r2" "dirty" r2);
  Alcotest.(check int) "every old declaration is reused" units (incr_int "r2" "reused" r2);
  Alcotest.(check int) "units grew by the new declaration" (units + 1) (incr_int "r2" "units" r2);
  Alcotest.(check bool) "the dirty declaration cost solver work" true
    (incr_int "r2" "solver_calls" r2 >= 1);
  let patched_id = incr_source_id "r2" r2 in
  let r3 = Server.handle server (patch_req ~id:3 ~base:patched_id src_ok) in
  Alcotest.(check bool) "the reverting patch is answered from the memo" true
    (J.member "memo" r3 = Some (J.Bool true));
  Alcotest.(check int) "the revert dirties nothing" 0 (incr_int "r3" "dirty" r3);
  Alcotest.(check int) "the revert makes no solver calls" 0 (incr_int "r3" "solver_calls" r3);
  Alcotest.(check int) "the revert reuses every unit" units (incr_int "r3" "reused" r3);
  Alcotest.(check string) "the revert restores the original source id" base_id
    (incr_source_id "r3" r3);
  Alcotest.(check string) "the revert restores the original document byte-for-byte"
    (J.to_string (check_of "r1" r1))
    (J.to_string (check_of "r3" r3))

(* The memo is bounded: after more distinct patches than it holds, it holds
   exactly its capacity, and the most recent documents are still there, so
   reverting to the previous source is answered from the memo. *)
let test_memo_bounded () =
  let server = Server.create ~options:incr_options () in
  let src i = Printf.sprintf "val a = array(4, 0)\nval x = sub(a, 2)\nval n = %d\n" i in
  let base = ref None in
  for i = 0 to Server.memo_capacity + 4 do
    let r = Server.handle server (patch_req ~id:i ?base:!base (src i)) in
    expect_ok "distinct patch" r;
    base := Some (incr_source_id "distinct patch" r)
  done;
  let status = Server.handle server (obj [ ("op", str "status") ]) in
  let entries =
    Option.bind (J.member "result" status) (J.member "memo")
    |> Fun.flip Option.bind (J.member "entries")
  in
  Alcotest.(check (option int)) "the memo holds exactly its capacity" (Some Server.memo_capacity)
    (match entries with Some (J.Int n) -> Some n | _ -> None);
  let r = Server.handle server (patch_req ~id:999 ?base:!base (src (Server.memo_capacity + 3))) in
  Alcotest.(check bool) "reverting to the previous source is a memo hit" true
    (J.member "memo" r = Some (J.Bool true))

(* The base registry is bounded like the memo: once more sources than it
   holds have been checked since, the first one is evicted and naming it as
   a base is an unknown base, while the newest one still patches. *)
let test_base_registry_bounded () =
  let server = Server.create ~options:incr_options () in
  let src i = Printf.sprintf "val a = array(4, 0)\nval x = sub(a, 2)\nval n = %d\n" i in
  let first = incr_source_id "first" (Server.handle server (patch_req (src 0))) in
  let newest = ref first in
  for i = 1 to Server.memo_capacity do
    newest := incr_source_id "later" (Server.handle server (patch_req ~base:!newest (src i)))
  done;
  expect_error_code "an evicted base" "unknown-base"
    (Server.handle server (patch_req ~base:first (src 0)));
  expect_ok "the newest base"
    (Server.handle server (patch_req ~base:!newest (src (Server.memo_capacity + 1))))

(* One unit store serves every options fingerprint.  Patches that alternate
   between the server's options and a [fuel: 0] override on one buffer
   each answer exactly what a cold check under the same options does: no
   verdict solved without a budget is replayed for the starved requests,
   and none of theirs for the unlimited ones. *)
let test_patch_alternating_options () =
  let server = Server.create ~options:incr_options () in
  let starved = { incr_options with Session.op_solve = { Session.default_solve_config with Session.sc_fuel = Some 0 } } in
  let edited = src_ok ^ "val y = sub(a, 3)\n" in
  let patch ~id ?base ~fuel source =
    let options = if fuel then [ ("options", obj [ ("fuel", J.Int 0) ]) ] else [] in
    match patch_req ~id ?base source with
    | J.Obj fields -> Server.handle server (J.Obj (fields @ options))
    | _ -> assert false
  in
  let cold options source =
    match Pipeline.check_s (Session.create ~options ()) source with
    | Ok rp -> Report_json.of_report ~program:"buf.dml" rp
    | Error f -> Alcotest.fail (Pipeline.failure_to_string f)
  in
  let expect_cold what options source resp =
    expect_ok what resp;
    Alcotest.(check bool) (what ^ ": not a memo hit") true (J.member "memo" resp = None);
    Alcotest.(check string) (what ^ ": equals a cold check under its options")
      (J.to_string (scrub (cold options source)))
      (J.to_string (scrub (check_of what resp)))
  in
  let r1 = patch ~id:1 ~fuel:false src_ok in
  expect_cold "unlimited, establishing" incr_options src_ok r1;
  let r2 = patch ~id:2 ~fuel:true src_ok in
  expect_cold "fuel 0, establishing" starved src_ok r2;
  Alcotest.(check bool) "the starved check leaves a residual" true
    (J.member "valid" (check_of "r2" r2) = Some (J.Bool false));
  let r3 = patch ~id:3 ~base:(incr_source_id "r1" r1) ~fuel:false edited in
  expect_cold "unlimited, patched" incr_options edited r3;
  Alcotest.(check int) "the unlimited patch re-solves only the new declaration" 1
    (incr_int "r3" "dirty" r3);
  let r4 = patch ~id:4 ~base:(incr_source_id "r2" r2) ~fuel:true edited in
  expect_cold "fuel 0, patched" starved edited r4;
  Alcotest.(check int) "the starved patch re-solves only the new declaration" 1
    (incr_int "r4" "dirty" r4)

let test_patch_rejections () =
  (* parse-level strictness: the op rejects fields it does not know *)
  check_error_mentions "check_patch unknown field"
    (obj [ ("op", str "check_patch"); ("source", str "x"); ("sauce", str "y") ])
    "unknown field \"sauce\"";
  check_error_mentions "check_patch without source"
    (obj [ ("op", str "check_patch") ])
    "missing \"source\"";
  check_error_mentions "check_patch base must be a string"
    (obj [ ("op", str "check_patch"); ("source", str "x"); ("base", J.Int 3) ])
    "\"base\" must be a string";
  (* a null base is the establishing form, same as leaving it out *)
  (match
     Protocol.parse_request
       (obj [ ("op", str "check_patch"); ("source", str "x"); ("base", J.Null) ])
   with
  | Ok { Protocol.req = Protocol.Check_patch { base = None; _ }; _ } -> ()
  | Ok _ -> Alcotest.fail "null base should parse as no base"
  | Error e -> Alcotest.fail e);
  (* check_patch needs the --incremental warm state *)
  expect_error_code "check_patch without --incremental" "bad-request"
    (Server.handle (Server.create ()) (patch_req src_ok));
  let server = Server.create ~options:incr_options () in
  (* an id the server has never answered for is rejected, not guessed at *)
  expect_error_code "unknown base id" "unknown-base"
    (Server.handle server (patch_req ~base:"deadbeef" src_ok));
  (* a failed check is never registered, so it cannot serve as a base *)
  let rf = Server.handle server (patch_req ~id:9 ~program:"broken.dml" src_parse_err) in
  expect_ok "failed source still answers" rf;
  Alcotest.(check bool) "failure documents carry valid=false" true
    (J.member "valid" (check_of "rf" rf) = Some (J.Bool false));
  expect_error_code "a failed source cannot serve as a base" "unknown-base"
    (Server.handle server (patch_req ~base:(incr_source_id "rf" rf) src_ok));
  (* inference is whole-program; the combination is refused *)
  expect_error_code "infer override rejected" "bad-request"
    (Server.handle server
       (obj
          [
            ("op", str "check_patch");
            ("source", str src_ok);
            ("options", obj [ ("infer", J.Bool true) ]);
          ]))

(* check_patch racing identical in-flight checks through the dispatch
   layer's memo-key coalescing.  The single worker is wedged on an injected
   hang, so: the two identical plain checks provably coalesce on their memo
   key (one computation, byte-identical responses, no memo flag on either),
   while the check_patch for the same program/source is computed inline in
   the parent and answers before the pool drains. *)
let test_patch_coalescing () =
  with_fault_env (fun () ->
      let path = Filename.concat (Filename.get_temp_dir_name ()) "dml_test_patch.sock" in
      let options = { pooled_options with Session.op_incremental = true } in
      let pid = fork_pooled_server ~options ~path () in
      let wedge = connect path in
      let c1 = connect path in
      let c2 = connect path in
      let c3 = connect path in
      let race_src = Dml_programs.Sources.bsearch in
      let race_req id = check_req ~id "race.dml" race_src in
      (* wedge the only worker, then put two identical checks in flight *)
      Protocol.send wedge (check_req ~id:1 hang_name src_ok);
      Unix.sleepf 0.1;
      Protocol.send c1 (race_req 2);
      Unix.sleepf 0.05;
      Protocol.send c2 (race_req 3);
      Unix.sleepf 0.05;
      Protocol.send c3 (patch_req ~id:4 ~program:"race.dml" race_src);
      (* the parent answers the patch inline while the pool is still wedged *)
      let r3 = recv_ok "check_patch" c3 in
      expect_ok "check_patch under load" r3;
      Alcotest.(check bool) "cold establishing patch dirties every unit" true
        (incr_int "r3" "units" r3 = incr_int "r3" "dirty" r3 && incr_int "r3" "units" r3 > 0);
      let r1 = recv_ok "first racer" c1 in
      let r2 = recv_ok "second racer" c2 in
      expect_ok "first racer" r1;
      expect_ok "second racer" r2;
      (* coalesced, not memoized: the joined request carries no memo flag,
         and both responses serialize the one computed document *)
      Alcotest.(check bool) "racers are not memo hits" true
        (J.member "memo" r1 = None && J.member "memo" r2 = None);
      Alcotest.(check string) "coalesced racers share one document byte-for-byte"
        (J.to_string (result_of "r1" r1))
        (J.to_string (result_of "r2" r2));
      (* the worker's full check and the parent's incremental check agree
         (modulo scheduling and the per-process solver-cache figures) *)
      let scrub_cmp v = J.scrub ~keys:(volatile @ [ "solver" ]) v in
      Alcotest.(check string) "patch document matches the pooled full check"
        (J.to_string (scrub_cmp (result_of "r1" r1)))
        (J.to_string (scrub_cmp (check_of "r3" r3)));
      (* the wedged request degrades to a structured timeout, as usual *)
      expect_error_code "wedged request" "timeout" (recv_ok "wedge" wedge);
      (* a repeat patch lands on the memo the racers populated *)
      Protocol.send c3 (patch_req ~id:5 ~base:(incr_source_id "r3" r3) ~program:"race.dml" race_src);
      let r4 = recv_ok "repeat patch" c3 in
      Alcotest.(check bool) "repeat patch is a memo hit" true
        (J.member "memo" r4 = Some (J.Bool true));
      Alcotest.(check int) "repeat patch dirties nothing" 0 (incr_int "r4" "dirty" r4);
      Alcotest.(check string) "repeat patch returns the racers' document verbatim"
        (J.to_string (result_of "r1" r1))
        (J.to_string (check_of "r4" r4));
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ c1; c2; wedge ];
      shutdown_and_reap c3 pid)

(* --- faulted pools: crash, hang, shedding ------------------------------------- *)

let test_pool_faults () =
  with_fault_env (fun () ->
      let path = Filename.concat (Filename.get_temp_dir_name ()) "dml_test_faults.sock" in
      let pid = fork_pooled_server ~path () in
      let fd = connect path in
      let roundtrip what req =
        Protocol.send fd req;
        recv_ok what fd
      in
      (* a healthy pooled check is ok — and byte-identical to an in-process
         one-shot check (modulo schedule-dependent fields) *)
      let healthy = roundtrip "healthy" (check_req ~id:1 "bcopy" Dml_programs.Sources.bcopy) in
      Alcotest.(check bool) "healthy ok" true (J.member "ok" healthy = Some (J.Bool true));
      let oneshot =
        let session = Session.create ~options:cached_options () in
        match Pipeline.check_s session Dml_programs.Sources.bcopy with
        | Ok rp -> Report_json.of_report ~program:"bcopy" rp
        | Error f -> Alcotest.fail (Pipeline.failure_to_string f)
      in
      Alcotest.(check string) "pooled result byte-identical to one-shot"
        (J.to_string (scrub oneshot))
        (J.to_string (scrub (result_of "healthy" healthy)));
      (* a crash mid-request degrades to a structured worker-lost error
         (the retry worker crashes too — the hook is deterministic) *)
      expect_error_code "crashed worker" "worker-lost"
        (roundtrip "crash" (check_req ~id:2 crash_name src_ok));
      (* the parent survived: the memo still answers instantly *)
      let warm = roundtrip "memo" (check_req ~id:3 "bcopy" Dml_programs.Sources.bcopy) in
      Alcotest.(check bool) "memo hit after the crash" true
        (J.member "memo" warm = Some (J.Bool true));
      Alcotest.(check string) "memo document unchanged by the crash"
        (J.to_string (result_of "healthy" healthy))
        (J.to_string (result_of "warm" warm));
      (* a hung worker runs into the deadline twice and degrades to a
         structured timeout *)
      let t0 = Unix.gettimeofday () in
      expect_error_code "hung worker" "timeout"
        (roundtrip "hang" (check_req ~id:4 hang_name src_ok));
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "timeout bounded by two deadlines plus backoff (%.2fs)" elapsed)
        true
        (elapsed >= 0.3 && elapsed < 5.0);
      (* still alive: a fresh program checks fine on a respawned worker *)
      let after =
        roundtrip "after" (check_req ~id:5 "bsearch" Dml_programs.Sources.bsearch)
      in
      Alcotest.(check bool) "fresh check after hang" true
        (J.member "ok" after = Some (J.Bool true));
      (* the status document's pool object accounts for the carnage *)
      let status = roundtrip "status" (obj [ ("op", str "status") ]) in
      let pool =
        match Option.bind (J.member "result" status) (J.member "pool") with
        | Some p -> p
        | None -> Alcotest.fail "pooled status has no pool object"
      in
      let fault name =
        match Option.bind (J.member "faults" pool) (J.member name) with
        | Some (J.Int n) -> n
        | _ -> Alcotest.failf "pool.faults.%s missing" name
      in
      Alcotest.(check bool) "retries counted" true (fault "retries" >= 2);
      Alcotest.(check bool) "respawns counted" true (fault "workers_respawned" >= 3);
      Alcotest.(check bool) "timeout counted" true (fault "timeouts" >= 1);
      Alcotest.(check bool) "loss counted" true (fault "worker_lost" >= 1);
      shutdown_and_reap fd pid)

(* Admission control: with one worker wedged and a zero-length queue, the
   next request is shed immediately with "overloaded" — and the same
   request succeeds once the wedged one has resolved. *)
let test_pool_shedding () =
  with_fault_env (fun () ->
      let path = Filename.concat (Filename.get_temp_dir_name ()) "dml_test_shed.sock" in
      let pid = fork_pooled_server ~max_queue:0 ~path () in
      let c1 = connect path in
      let c2 = connect path in
      Protocol.send c1 (check_req ~id:1 hang_name src_ok);
      Unix.sleepf 0.1;
      (* the only worker is hanging on c1's request *)
      Protocol.send c2 (check_req ~id:2 "ok.dml" src_ok);
      expect_error_code "shed while wedged" "overloaded" (recv_ok "shed" c2);
      expect_error_code "the wedged request times out" "timeout" (recv_ok "hang" c1);
      Protocol.send c2 (check_req ~id:3 "ok.dml" src_ok);
      let r = recv_ok "after shed" c2 in
      Alcotest.(check bool) "accepted after the pool drained" true
        (J.member "ok" r = Some (J.Bool true));
      (try Unix.close c1 with Unix.Unix_error _ -> ());
      shutdown_and_reap c2 pid)

(* --- one routing path on a pool -------------------------------------------------- *)

(* A pooled check that misses the memo and a [status] pipelined on one
   connection: the status may overtake the check, and each response carries
   its own request's id whatever the order. *)
let test_pipelined_ids () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "dml_test_pipelined.sock" in
  let pid = fork_pooled_server ~request_timeout_ms:30_000 ~path () in
  let fd = connect path in
  let frames =
    Dml_par.Frame.encode (J.to_string (check_req ~id:1 "bsearch" Dml_programs.Sources.bsearch))
    ^ Dml_par.Frame.encode (J.to_string (obj [ ("op", str "status"); ("id", J.Int 2) ]))
  in
  write_all fd (Bytes.of_string frames) 0 (String.length frames);
  let answers =
    List.map
      (fun what ->
        let r = recv_ok what fd in
        expect_ok what r;
        (J.member "op" r, J.member "id" r))
      [ "first response"; "second response" ]
  in
  List.iter
    (fun (op, id) ->
      Alcotest.(check bool) "one response per request, under its id" true
        (List.mem (Some (str op), Some (J.Int id)) answers))
    [ ("check", 1); ("status", 2) ];
  shutdown_and_reap fd pid

(* An inferred check ({"infer": true}) answered by a -j 1 server is the
   document the inline server gives. *)
let test_pooled_infer () =
  let twin =
    Dml_programs.Programs.unannotated (Option.get (Dml_programs.Programs.find "dotprod"))
  in
  let req =
    obj
      [
        ("op", str "check");
        ("id", J.Int 1);
        ("program", str "dotprod-twin.dml");
        ("source", str twin);
        ("options", obj [ ("infer", J.Bool true) ]);
      ]
  in
  let inline = Server.handle (Server.create ~options:cached_options ()) req in
  expect_ok "inline" inline;
  Alcotest.(check bool) "an inferred document" true
    (J.member "schema" (result_of "inline" inline) = Some (str "dml-check/2"));
  let path = Filename.concat (Filename.get_temp_dir_name ()) "dml_test_infer.sock" in
  let pid = fork_pooled_server ~request_timeout_ms:30_000 ~path () in
  let fd = connect path in
  Protocol.send fd req;
  let pooled = recv_ok "pooled" fd in
  expect_ok "pooled" pooled;
  Alcotest.(check string) "pooled inferred document equals the inline one"
    (J.to_string (scrub (result_of "inline" inline)))
    (J.to_string (scrub (result_of "pooled" pooled)));
  shutdown_and_reap fd pid

(* --- socket framing -------------------------------------------------------------- *)

(* The socket loop decodes frames incrementally: a request trickling in a
   byte at a time and two requests in one write both decode exactly, and a
   header outside [0, max_frame] is answered then closes the connection. *)
let test_socket_frames () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "dml_test_frames.sock" in
  let pid = fork_pooled_server ~options:cached_options ~path () in
  let fd = connect path in
  let frame req = Dml_par.Frame.encode (J.to_string req) in
  let expect_ok_id what id resp =
    Alcotest.(check bool) (what ^ ": ok") true (J.member "ok" resp = Some (J.Bool true));
    Alcotest.(check bool) (what ^ ": id") true (J.member "id" resp = Some (J.Int id))
  in
  String.iter
    (fun c ->
      write_all fd (Bytes.make 1 c) 0 1;
      Unix.sleepf 0.001)
    (frame (check_req ~id:1 "trickle.dml" src_ok));
  expect_ok_id "byte at a time" 1 (recv_ok "byte at a time" fd);
  let two =
    frame (check_req ~id:2 "first.dml" src_ok)
    ^ frame (obj [ ("op", str "status"); ("id", J.Int 3) ])
  in
  write_all fd (Bytes.of_string two) 0 (String.length two);
  expect_ok_id "first of two" 2 (recv_ok "first of two" fd);
  expect_ok_id "second of two" 3 (recv_ok "second of two" fd);
  let bad = connect path in
  let header = Bytes.create 8 in
  Bytes.set_int64_be header 0 (Int64.of_int (Protocol.max_frame + 1));
  write_all bad header 0 8;
  expect_error_code "oversized" "oversized-frame" (recv_ok "oversized" bad);
  (match Protocol.recv bad with
  | Error `Eof -> ()
  | _ -> Alcotest.fail "connection should close after an oversized header");
  Unix.close bad;
  shutdown_and_reap fd pid

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "parse ok" `Quick test_parse_ok;
          Alcotest.test_case "option overrides" `Quick test_overrides;
        ] );
      ("golden", [ Alcotest.test_case "transcript" `Quick test_golden_transcript ]);
      ( "frames",
        [
          Alcotest.test_case "stdio loop" `Quick test_stdio_frames;
          Alcotest.test_case "stdio out-of-range headers" `Quick test_stdio_bad_headers;
          Alcotest.test_case "socket framing" `Quick test_socket_frames;
        ] );
      ("warm", [ Alcotest.test_case "memo oracle" `Quick test_warm_oracle ]);
      ( "socket",
        [
          Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
          Alcotest.test_case "pipelined ids on a pool" `Quick test_pipelined_ids;
          Alcotest.test_case "pooled inferred document" `Quick test_pooled_infer;
        ] );
      ( "patch",
        [
          Alcotest.test_case "base, patch, revert" `Quick test_patch_roundtrip;
          Alcotest.test_case "bounded memo" `Quick test_memo_bounded;
          Alcotest.test_case "bounded base registry" `Quick test_base_registry_bounded;
          Alcotest.test_case "alternating override fingerprints" `Quick
            test_patch_alternating_options;
          Alcotest.test_case "strict rejections" `Quick test_patch_rejections;
          Alcotest.test_case "coalescing race" `Quick test_patch_coalescing;
        ] );
      ( "faults",
        [
          Alcotest.test_case "crash, hang, recovery" `Quick test_pool_faults;
          Alcotest.test_case "load shedding" `Quick test_pool_shedding;
        ] );
    ]
