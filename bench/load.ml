(* The dmld fault-injection load harness.

   Forks a pooled dmld server ([Server.serve_unix] with [-j]-style worker
   options and a shared disk cache), then N client processes, each with one
   persistent connection, each sending its request mix twice — a cold pass
   and a warm pass (the second is answered from the parent's program memo
   for every healthy program).  The mix cycles the bundled paper programs
   and, on a configurable cadence, two poisoned program names wired to the
   workers' fault hooks ([DML_PAR_TEST_CRASH]/[DML_PAR_TEST_HANG] — the
   environment is set before the server forks, so its pool inherits it).

   Every response is classified (ok / memo / timeout / overloaded /
   worker-lost / internal / malformed / dropped); the server's fault
   counters are pulled over [metrics] and [status] before shutdown.  The
   whole run is written as one [dml-load/1] document (BENCH_dmld.json by
   default), and the exit status is the robustness verdict: non-zero iff
   any request was dropped or malformed — a faulted worker must always
   degrade to a structured error, never to a lost connection. *)

module J = Dml_obs.Json
module Clock = Dml_obs.Clock
module Server = Dml_server.Server
module Protocol = Dml_server.Protocol
module Frame = Dml_par.Frame
module Session = Dml_core.Session
module Cache = Dml_cache.Cache

let crash_name = "inject-crash"
let hang_name = "inject-hang"

(* --- configuration ---------------------------------------------------- *)

let clients = ref 8
let requests = ref 30 (* per client, per pass *)
let jobs = ref 2
let timeout_ms = ref 500
let max_queue = ref 256
let crash_every = ref 10 (* every k-th request checks the crash program; 0 = off *)
let hang_every = ref 25
let out_path = ref "BENCH_dmld.json"
let socket_path = ref ""
let keep_cache = ref false

let specs =
  [
    ("--clients", Arg.Set_int clients, "N  concurrent client processes (default 8)");
    ("--requests", Arg.Set_int requests, "N  requests per client per pass (default 30)");
    ("--jobs", Arg.Set_int jobs, "N  server pool workers (default 2)");
    ("--timeout-ms", Arg.Set_int timeout_ms, "MS  per-request server deadline (default 500)");
    ("--max-queue", Arg.Set_int max_queue, "N  server admission bound (default 256)");
    ( "--crash-every",
      Arg.Set_int crash_every,
      "K  every K-th request hits the crash-injected program; 0 disables (default 10)" );
    ( "--hang-every",
      Arg.Set_int hang_every,
      "K  every K-th request hits the hang-injected program; 0 disables (default 25)" );
    ("--out", Arg.Set_string out_path, "PATH  report path (default BENCH_dmld.json)");
    ("--socket", Arg.Set_string socket_path, "PATH  socket path (default: under a temp dir)");
    ("--keep-cache", Arg.Set keep_cache, "  leave the run's cache directory behind");
  ]

(* --- the request mix --------------------------------------------------- *)

(* A healthy corpus that solves fast enough to hammer: the paper's table
   programs.  The two poisoned names reuse the first source — the fault
   fires on the program *name* before the worker ever parses it. *)
let corpus =
  List.filter_map
    (fun (b : Dml_programs.Programs.benchmark) ->
      if b.in_tables then Some (b.name, b.source) else None)
    Dml_programs.Programs.all

let nth_request i =
  let name, source =
    if !crash_every > 0 && i mod !crash_every = !crash_every - 1 then
      (crash_name, snd (List.hd corpus))
    else if !hang_every > 0 && i mod !hang_every = !hang_every - 1 then
      (hang_name, snd (List.hd corpus))
    else List.nth corpus (i mod List.length corpus)
  in
  J.Obj
    [
      ("op", J.String "check");
      ("id", J.Int i);
      ("program", J.String name);
      ("source", J.String source);
    ]

(* --- outcome classification -------------------------------------------- *)

type cls = Ok_ | Memo | Timeout | Overloaded | Worker_lost | Internal | Malformed | Dropped

let all_classes =
  [
    (Ok_, "ok");
    (Memo, "memo");
    (Timeout, "timeout");
    (Overloaded, "overloaded");
    (Worker_lost, "worker-lost");
    (Internal, "internal");
    (Malformed, "malformed");
    (Dropped, "dropped");
  ]

let classify = function
  | Error () -> Dropped
  | Ok response -> (
      match (J.member "ok" response, J.member "memo" response) with
      | Some (J.Bool true), Some (J.Bool true) -> Memo
      | Some (J.Bool true), _ -> Ok_
      | Some (J.Bool false), _ -> (
          match Option.bind (J.member "error" response) (J.member "code") with
          | Some (J.String "timeout") -> Timeout
          | Some (J.String "overloaded") -> Overloaded
          | Some (J.String "worker-lost") -> Worker_lost
          | Some (J.String "internal") -> Internal
          | _ -> Malformed)
      | _ -> Malformed)

(* --- one client process ------------------------------------------------ *)

type sample = { s_latency : float; s_class : cls }

(* Two passes over the mix on one persistent connection; every sample is a
   request/response round trip. *)
let client_main ~socket : sample list =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let one i =
    let t0 = Clock.now () in
    let response =
      match
        Protocol.send fd (nth_request i);
        Protocol.recv ~max:Protocol.max_frame fd
      with
      | Ok v -> Ok v
      | Error _ -> Error ()
      | exception _ -> Error ()
    in
    { s_latency = Clock.now () -. t0; s_class = classify response }
  in
  let pass () = List.init !requests one in
  let samples = pass () @ pass () in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  samples

(* --- percentile helpers ------------------------------------------------ *)

(* unit-tested for the empty/one-sample edges *)
let latency_doc samples =
  Dml_gate.Percentile.latency_doc (List.map (fun s -> s.s_latency *. 1000.) samples)

(* --- the run ----------------------------------------------------------- *)

let mkdtemp prefix =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s.%d.%.0f" prefix (Unix.getpid ()) (Unix.gettimeofday () *. 1e6))
  in
  Unix.mkdir dir 0o700;
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let fork_server ~socket ~cache_dir =
  (* the fault hooks must be in the environment *before* the fork so the
     server's pool workers inherit them *)
  if !crash_every > 0 then Unix.putenv "DML_PAR_TEST_CRASH" crash_name;
  if !hang_every > 0 then Unix.putenv "DML_PAR_TEST_HANG" hang_name;
  match Unix.fork () with
  | 0 ->
      let options =
        {
          Session.default_options with
          Session.op_jobs = Some !jobs;
          op_cache = Some { Cache.dir = Some cache_dir };
        }
      in
      let server =
        Server.create ~options ~request_timeout_ms:!timeout_ms ~max_queue:!max_queue ()
      in
      Server.serve_unix server ~path:socket;
      Unix._exit 0
  | pid ->
      (* wait for the socket to accept *)
      let deadline = Clock.now () +. 10. in
      let rec ready () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX socket) with
        | () -> Unix.close fd
        | exception Unix.Unix_error _ ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            if Clock.now () > deadline then failwith "server did not come up";
            ignore (Unix.select [] [] [] 0.05);
            ready ()
      in
      ready ();
      pid

let fork_clients ~socket =
  List.init !clients (fun _ ->
      let r, w = Unix.pipe () in
      match Unix.fork () with
      | 0 ->
          Unix.close r;
          let samples = try client_main ~socket with _ -> [] in
          Frame.write w samples;
          Unix.close w;
          Unix._exit 0
      | pid ->
          Unix.close w;
          (pid, r))

let collect (pid, r) : sample list =
  let samples = match Frame.read r with Ok s -> (s : sample list) | Error _ -> [] in
  Unix.close r;
  ignore (Unix.waitpid [] pid);
  samples

let oneshot ~socket op =
  match Server.client_request ~socket (J.Obj [ ("op", J.String op) ]) with
  | Ok v -> v
  | Error msg -> J.Obj [ ("error", J.String msg) ]

let int_at path doc =
  let rec go doc = function
    | [] -> ( match doc with J.Int n -> n | _ -> 0)
    | k :: rest -> ( match J.member k doc with Some d -> go d rest | None -> 0)
  in
  go doc path

let () =
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "load [options]: hammer a pooled dmld with concurrent clients and injected worker faults";
  let tmp = mkdtemp "dml-load" in
  let socket = if !socket_path = "" then Filename.concat tmp "dmld.sock" else !socket_path in
  let cache_dir = Filename.concat tmp "cache" in
  let started = Clock.now () in
  let server_pid = fork_server ~socket ~cache_dir in
  let per_client = List.map collect (fork_clients ~socket) in
  let samples = List.concat per_client in
  let elapsed = Clock.now () -. started in
  (* server-side truth: fault counters and the pool document *)
  let metrics = oneshot ~socket "metrics" in
  let status = oneshot ~socket "status" in
  ignore (oneshot ~socket "shutdown");
  ignore (Unix.waitpid [] server_pid);
  let counts =
    List.map
      (fun (c, label) ->
        (label, J.Int (List.length (List.filter (fun s -> s.s_class = c) samples))))
      all_classes
  in
  let count label = match List.assoc label counts with J.Int n -> n | _ -> 0 in
  (* the warm pass: the trailing half of each client's sample stream *)
  let warm =
    List.concat_map (fun c -> List.filteri (fun i _ -> i >= !requests) c) per_client
  in
  let report =
    J.Obj
      [
        ("schema", J.String "dml-load/1");
        ( "config",
          J.Obj
            [
              ("clients", J.Int !clients);
              ("requests_per_client_per_pass", J.Int !requests);
              ("passes", J.Int 2);
              ("jobs", J.Int !jobs);
              ("timeout_ms", J.Int !timeout_ms);
              ("max_queue", J.Int !max_queue);
              ("crash_every", J.Int !crash_every);
              ("hang_every", J.Int !hang_every);
              ("corpus", J.List (List.map (fun (n, _) -> J.String n) corpus));
            ] );
        ("elapsed_s", J.Float elapsed);
        ("latency", latency_doc samples);
        ("warm_latency", latency_doc warm);
        ("outcomes", J.Obj counts);
        ( "server",
          J.Obj
            [
              ("retries", J.Int (int_at [ "result"; "counters"; "server.retries" ] metrics));
              ("shed", J.Int (int_at [ "result"; "counters"; "server.shed" ] metrics));
              ( "workers_respawned",
                J.Int (int_at [ "result"; "counters"; "server.workers_respawned" ] metrics) );
              ("timeouts", J.Int (int_at [ "result"; "counters"; "server.timeouts" ] metrics));
              ( "worker_lost",
                J.Int (int_at [ "result"; "counters"; "server.worker_lost" ] metrics) );
              ("cache_corrupt", J.Int (int_at [ "result"; "counters"; "cache.corrupt" ] metrics));
            ] );
        ( "pool",
          match Option.bind (J.member "result" status) (J.member "pool") with
          | Some p -> p
          | None -> J.Null );
      ]
  in
  (match J.write_file !out_path report with
  | Ok () -> ()
  | Error msg -> prerr_endline ("load: cannot write report: " ^ msg));
  if not !keep_cache then begin
    rm_rf cache_dir;
    (try Sys.remove socket with Sys_error _ -> ());
    rm_rf tmp
  end;
  let dropped = count "dropped" and malformed = count "malformed" in
  Printf.printf
    "load: %d samples over %d clients in %.2fs — ok %d, memo %d, timeout %d, overloaded %d, \
     worker-lost %d, internal %d, malformed %d, dropped %d\n"
    (List.length samples) !clients elapsed (count "ok") (count "memo") (count "timeout")
    (count "overloaded") (count "worker-lost") (count "internal") malformed dropped;
  if dropped > 0 || malformed > 0 then begin
    prerr_endline "load: FAIL — a faulted request degraded to a dropped or malformed response";
    exit 1
  end
