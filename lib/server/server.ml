open Dml_obs
module Session = Dml_core.Session
module Pipeline = Dml_core.Pipeline
module Report_json = Dml_core.Report_json
module Cache = Dml_cache.Cache
module Lru = Dml_cache.Lru

let ops = [ "check"; "batch"; "status"; "metrics"; "shutdown" ]

(* The warm state behind [check_patch] ([--incremental] servers only).  One
   unit store serves every options fingerprint: it keys its verdicts by
   fingerprint itself, and its parse and front-end products do not depend
   on solving options.  The base registry is keyed by fingerprint too, so a
   per-request override never reuses verdicts across option sets that
   check differently. *)
type incr_store = {
  i_state : Dml_core.Incr.state;  (** the per-declaration verdict store *)
  i_sources : (string, int) Lru.t;
      (** fingerprint × source id -> unit count of a successfully checked
          source: the registry [base] ids are validated against, and the
          unit count behind a memo hit's [incr] object.  At most
          [memo_capacity] sources; an evicted id is an unknown base. *)
}

(* The response memo holds at most [memo_capacity] documents (20-30 KB
   each for a corpus-sized program); storing into a full memo evicts the
   least recently used entry.  The [check_patch] base registry has the same
   bound. *)
let memo_capacity = 128

type t = {
  t_session : Session.t;
  t_memo : (string, Json.t) Lru.t;
      (** memo key (source digest × options fingerprint × program digest)
          -> stored result document, returned verbatim on a hit *)
  mutable t_memo_hits : int;
  t_requests : (string, int ref) Hashtbl.t;
  t_started : float;
  mutable t_stop : bool;
  t_dispatch : Dispatch.t option;
      (** the warm worker pool, when the server was created with jobs *)
  t_incr : incr_store option;
      (** [Some] exactly when the server options set [op_incremental] *)
}

let default_request_timeout_ms = 30_000

let create ?(options = Session.default_options) ?(request_timeout_ms = default_request_timeout_ms)
    ?max_queue () =
  let t_requests = Hashtbl.create 8 in
  List.iter (fun op -> Hashtbl.replace t_requests op (ref 0)) ops;
  let t_dispatch =
    match options.Session.op_jobs with
    | None -> None
    | Some j ->
        let jobs = if j = 0 then Dml_par.Pool.cpu_count () else j in
        let timeout_ms = if request_timeout_ms <= 0 then None else Some request_timeout_ms in
        Some (Dispatch.create ?timeout_ms ?max_queue ~jobs options)
  in
  {
    t_session = Session.create ~options ();
    t_memo = Lru.create memo_capacity;
    t_memo_hits = 0;
    t_requests;
    t_started = Clock.now ();
    t_stop = false;
    t_dispatch;
    t_incr =
      (if options.Session.op_incremental then
         Some { i_state = Dml_core.Incr.create (); i_sources = Lru.create memo_capacity }
       else None);
  }

let session t = t.t_session
let stopping t = t.t_stop

let count_request t op =
  match Hashtbl.find_opt t.t_requests op with
  | Some r -> incr r
  | None -> Hashtbl.replace t.t_requests op (ref 1)

(* The derived session for one request: base options plus the request's
   overrides, sharing the server's warm cache (sound — verdicts are keyed
   by method and budget tier). *)
let request_session t = function
  | None -> Ok (Session.options t.t_session, t.t_session)
  | Some overrides ->
      Result.map
        (fun opts -> (opts, Session.with_options t.t_session opts))
        (Protocol.apply_overrides (Session.options t.t_session) overrides)

(* The program memo key from a source id and options fingerprint the caller
   computed once: the program name is part of the stored document, so it
   joins the semantic key. *)
let key_of ~source_id ~fp ~program =
  String.concat ":" [ source_id; fp; Digest.to_hex (Digest.string program) ]

let memo_key opts ~program source =
  key_of ~source_id:(Digest.to_hex (Digest.string source)) ~fp:(Session.fingerprint opts)
    ~program

let memo_response t ~id ~op doc =
  t.t_memo_hits <- t.t_memo_hits + 1;
  Protocol.ok_response ~id ~op ~memo:true doc

(* The answer to a dispatched job; a finished check's document is memoized
   under [key].  A failed dispatch degrades to a structured verdict: a
   well-formed error document on the wire, never a dropped connection. *)
let response_of_outcome t ~id ~op ?key = function
  | Dispatch.Done doc ->
      Option.iter (fun k -> Lru.add t.t_memo k doc) key;
      Protocol.ok_response ~id ~op doc
  | Dispatch.Failed msg ->
      Protocol.error_response ~id ~code:"internal" ("worker exception: " ^ msg)
  | Dispatch.Timed_out elapsed ->
      Protocol.error_response ~id ~code:"timeout"
        (Printf.sprintf
           "request exceeded its %s deadline twice (%.2fs since submission; the worker was \
            killed and the request retried once)"
           (match Option.bind t.t_dispatch Dispatch.timeout_ms with
           | Some ms -> Printf.sprintf "%dms" ms
           | None -> "")
           elapsed)
  | Dispatch.Lost status ->
      Protocol.error_response ~id ~code:"worker-lost"
        (Printf.sprintf
           "worker %s; the retry worker was lost too — the server is healthy, retry against \
            fresh state or report a checker bug"
           status)

let overloaded_response ~id d =
  Protocol.error_response ~id ~code:"overloaded"
    (Printf.sprintf
       "server at capacity (%d workers busy, %d requests queued); retry after backoff"
       (Dispatch.workers d) (Dispatch.queued d))

(* A check or batch the memo cannot answer, bound for the worker pool.
   Routing ({!route}) is the same for every transport; only the socket
   loop runs a job asynchronously, and {!handle} drives it to completion
   with [dispatch_sync]. *)
type job = {
  jb_id : Json.t;  (** the envelope id *)
  jb_op : string;
  jb_key : string option;  (** the memo key a finished check is stored under *)
  jb_options : Session.options;
  jb_task : Dispatch.task;
}

type routed = Answer of Json.t | Job of Dispatch.t * job

(* Admit a job to the pool, or answer it [overloaded]. *)
let submit d j =
  Result.map_error
    (fun `Overloaded -> overloaded_response ~id:j.jb_id d)
    (Dispatch.submit d ~now:(Clock.now ()) ~options:j.jb_options j.jb_task)

(* Drive one dispatched job to completion and answer it (the stdio serve
   loop and the transport-free [handle] path: one client, so blocking on the
   pool is the protocol's request/response order anyway).  Deadlines,
   retries and respawns still apply — this is what gives a --stdio server
   crash and hang isolation. *)
let dispatch_sync t d j =
  match submit d j with
  | Error r -> r
  | Ok job_id ->
      let rec wait () =
        let timeout =
          match Dispatch.next_wake d with
          | None -> -1.
          | Some at -> Float.max 0. (at -. Clock.now ())
        in
        let ready =
          match Unix.select (Dispatch.fds d) [] [] timeout with
          | r, _, _ -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        match List.assoc_opt job_id (Dispatch.step d ~now:(Clock.now ()) ~ready) with
        | Some outcome -> outcome
        | None -> wait ()
      in
      response_of_outcome t ~id:j.jb_id ~op:j.jb_op ?key:j.jb_key (wait ())

(* The work the memo cannot answer runs inline without a pool, and becomes
   a {!job} with one. *)
let run_or_submit t ~id ~op ?key ~options task inline =
  match t.t_dispatch with
  | None -> Answer (inline ())
  | Some d ->
      Job (d, { jb_id = id; jb_op = op; jb_key = key; jb_options = options; jb_task = task })

let do_check t ~id ~program ~source ~options =
  match request_session t options with
  | Error e -> Answer (Protocol.error_response ~id ~code:"bad-request" e)
  | Ok (opts, session) -> (
      let program = Option.value program ~default:"-" in
      let key = memo_key opts ~program source in
      match Lru.find t.t_memo key with
      | Some doc -> Answer (memo_response t ~id ~op:"check" doc)
      | None ->
          run_or_submit t ~id ~op:"check" ~key ~options:opts
            (Dispatch.T_check { program; source })
            (fun () ->
              response_of_outcome t ~id ~op:"check" ~key
                (Dispatch.Done (Dispatch.check_doc session ~program source))))

let incr_json ~source_id ~units ~dirty ~reused ~solver_calls =
  Json.Obj
    [
      ("units", Json.Int units);
      ("dirty", Json.Int dirty);
      ("reused", Json.Int reused);
      ("solver_calls", Json.Int solver_calls);
      ("source_id", Json.String source_id);
    ]

(* Incremental recheck.  Always computed in the parent process — even under
   a worker pool — because the parent owns the per-declaration verdict
   store; the work a worker would do is exactly what the store lets us
   skip.  The memo is shared with plain [check] (same key shape), so
   patching back to an already-checked source returns the stored document
   verbatim, byte-for-byte. *)
let do_check_patch t ~id ~program ~source ~base ~options =
  match t.t_incr with
  | None ->
      Protocol.error_response ~id ~code:"bad-request"
        "check_patch requires a server started with --incremental"
  | Some inc -> (
      match request_session t options with
      | Error e -> Protocol.error_response ~id ~code:"bad-request" e
      | Ok (opts, session) ->
          if opts.Session.op_infer then
            Protocol.error_response ~id ~code:"bad-request"
              "check_patch does not compose with infer (inference is whole-program)"
          else begin
            let program = Option.value program ~default:"-" in
            let fp = Session.fingerprint opts in
            let source_id = Digest.to_hex (Digest.string source) in
            let source_key sid = fp ^ ":" ^ sid in
            match base with
            | Some b when Lru.find inc.i_sources (source_key b) = None ->
                Protocol.error_response ~id ~code:"unknown-base"
                  (Printf.sprintf
                     "base %S is not the source id of a successful check under these options, or \
                      has been evicted"
                     b)
            | _ -> (
                let key = key_of ~source_id ~fp ~program in
                match
                  (Lru.find t.t_memo key, Lru.find inc.i_sources (source_key source_id))
                with
                | Some doc, Some units ->
                    memo_response t ~id ~op:"check_patch"
                      (Json.Obj
                         [
                           ("check", doc);
                           ( "incr",
                             incr_json ~source_id ~units ~dirty:0 ~reused:units ~solver_calls:0
                           );
                         ])
                | _ -> (
                    match Dml_core.Incr.check inc.i_state session source with
                    | Ok (report, stats) ->
                        let doc = Report_json.of_report ~program report in
                        Lru.add t.t_memo key doc;
                        Lru.add inc.i_sources (source_key source_id)
                          stats.Dml_core.Incr.st_units;
                        Protocol.ok_response ~id ~op:"check_patch"
                          (Json.Obj
                             [
                               ("check", doc);
                               ( "incr",
                                 incr_json ~source_id ~units:stats.Dml_core.Incr.st_units
                                   ~dirty:stats.Dml_core.Incr.st_dirty
                                   ~reused:stats.Dml_core.Incr.st_reused
                                   ~solver_calls:stats.Dml_core.Incr.st_solver_calls );
                             ])
                    | Error f ->
                        (* a failed source is never registered: it cannot
                           serve as a base, and its memo slot stays empty *)
                        let doc = Report_json.of_failure ~program f in
                        Protocol.ok_response ~id ~op:"check_patch"
                          (Json.Obj
                             [
                               ("check", doc);
                               ( "incr",
                                 incr_json ~source_id ~units:0 ~dirty:0 ~reused:0
                                   ~solver_calls:0 );
                             ])))
          end)

let do_batch t ~id ~programs ~options =
  match request_session t options with
  | Error e -> Answer (Protocol.error_response ~id ~code:"bad-request" e)
  | Ok (opts, session) ->
      run_or_submit t ~id ~op:"batch" ~options:opts (Dispatch.T_batch { programs }) (fun () ->
          Protocol.ok_response ~id ~op:"batch" (Dispatch.batch_doc session programs))

let status_doc t =
  let requests =
    (* check_patch appears only on --incremental servers, so the status
       document of every pre-existing configuration keeps its exact bytes *)
    let visible_ops = ops @ match t.t_incr with Some _ -> [ "check_patch" ] | None -> [] in
    List.map
      (fun op ->
        (op, Json.Int (match Hashtbl.find_opt t.t_requests op with Some r -> !r | None -> 0)))
      visible_ops
  in
  Json.Obj
    ([
       ("server", Json.String "dmld");
       ("protocol", Json.String Protocol.version);
       ("pid", Json.Int (Unix.getpid ()));
       ("uptime_s", Json.Float (Clock.now () -. t.t_started));
       ("requests", Json.Obj requests);
       ( "memo",
         Json.Obj
           [
             ("entries", Json.Int (Lru.length t.t_memo));
             ("hits", Json.Int t.t_memo_hits);
           ] );
       ( "cache",
         match Session.cache t.t_session with
         | None -> Json.Null
         | Some c -> Cache.snapshot_to_json (Cache.snapshot c) );
     ]
    @ (match t.t_dispatch with None -> [] | Some d -> [ ("pool", Dispatch.to_json d) ])
    @ [ ("options", Session.options_to_json (Session.options t.t_session)) ])

(* Decode one request, count it, and answer it or hand back its pool job. *)
let route t v =
  match Protocol.parse_request v with
  | Error e ->
      let id = Option.value (Json.member "id" v) ~default:Json.Null in
      Answer (Protocol.error_response ~id ~code:"bad-request" e)
  | Ok { Protocol.id; req } -> (
      count_request t (Protocol.op_name req);
      match req with
      | Protocol.Check { program; source; options } -> do_check t ~id ~program ~source ~options
      | Protocol.Check_patch { program; source; base; options } ->
          Answer (do_check_patch t ~id ~program ~source ~base ~options)
      | Protocol.Batch { programs; options } -> do_batch t ~id ~programs ~options
      | Protocol.Status -> Answer (Protocol.ok_response ~id ~op:"status" (status_doc t))
      | Protocol.Metrics -> Answer (Protocol.ok_response ~id ~op:"metrics" (Metrics.to_json ()))
      | Protocol.Shutdown ->
          t.t_stop <- true;
          Answer
            (Protocol.ok_response ~id ~op:"shutdown" (Json.Obj [ ("stopping", Json.Bool true) ])))

let handle t v = match route t v with Answer r -> r | Job (d, j) -> dispatch_sync t d j

(* ------------------------------------------------------------------ *)
(* Transports                                                          *)
(* ------------------------------------------------------------------ *)

(* A write to a vanished peer must become an exception we can catch per
   connection, not a process-killing SIGPIPE. *)
let ignore_sigpipe () =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* Any header outside [0, Protocol.max_frame], on either transport: the
   stream cannot be resynchronized, so the connection closes after it. *)
let oversized_response n =
  Protocol.error_response ~id:Json.Null ~code:"oversized-frame"
    (Printf.sprintf "frame header announces %d bytes, outside the 0..%d-byte limit" n
       Protocol.max_frame)

let shutdown_pool t = match t.t_dispatch with None -> () | Some d -> Dispatch.shutdown d

let serve_stdio ?(input = Unix.stdin) ?(output = Unix.stdout) t =
  ignore_sigpipe ();
  let rec loop () =
    if not t.t_stop then
      match Protocol.recv ~max:Protocol.max_frame input with
      | Ok v ->
          Protocol.send output (handle t v);
          loop ()
      | Error `Eof -> ()
      | Error (`Bad_json msg) ->
          (* the frame was consumed whole; the stream is still in sync *)
          Protocol.send output (Protocol.error_response ~id:Json.Null ~code:"bad-json" msg);
          loop ()
      | Error (`Oversized n) -> Protocol.send output (oversized_response n)
      | Error (`Error msg) ->
          Protocol.send output (Protocol.error_response ~id:Json.Null ~code:"bad-json" msg)
  in
  Fun.protect ~finally:(fun () -> shutdown_pool t) loop

(* ------------------------------------------------------------------ *)
(* The socket serve loop: a non-blocking multiplexer                   *)
(* ------------------------------------------------------------------ *)

(* Per-connection state.  Both directions are buffered: a half-received
   request frame from one client never blocks the loop (incremental
   decoding in [c_in]), and a half-sent response to a slow reader never
   blocks it either ([c_out] holds encoded frames, [c_out_pos] the bytes of
   the first already written, until the socket is writable again). *)
type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_in : Dml_par.Frame.decoder;
  c_out : string Queue.t;
  mutable c_out_pos : int;
  mutable c_alive : bool;
  mutable c_close_after_flush : bool;
      (** an unresynchronizable framing error: answer, flush, close *)
}

let close_conn conn =
  conn.c_alive <- false;
  try Unix.close conn.c_fd with Unix.Unix_error _ -> ()

let conn_has_output conn = not (Queue.is_empty conn.c_out)

let enqueue_response conn v =
  if conn.c_alive then Queue.add (Dml_par.Frame.encode (Json.to_string v)) conn.c_out

(* Write as much buffered output as the socket accepts right now. *)
let flush_conn conn =
  let rec go () =
    match Queue.peek_opt conn.c_out with
    | Some frame when conn.c_alive -> (
        let pending = String.length frame - conn.c_out_pos in
        match Unix.write_substring conn.c_fd frame conn.c_out_pos pending with
        | 0 -> ()
        | n when n = pending ->
            ignore (Queue.pop conn.c_out);
            conn.c_out_pos <- 0;
            go ()
        | n ->
            conn.c_out_pos <- conn.c_out_pos + n;
            go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error (_, _, _) -> close_conn conn)
    | _ -> ()
  in
  go ();
  if conn.c_close_after_flush && not (conn_has_output conn) then close_conn conn

(* Decode every complete frame buffered in [conn.c_in]; [on_frame] is
   called per payload.  A header outside the protocol's range poisons the
   stream — answer and mark the connection for close-after-flush. *)
let drain_frames conn ~on_frame =
  let rec go () =
    if not conn.c_close_after_flush then
      match Dml_par.Frame.decode ~max:Protocol.max_frame conn.c_in with
      | `Need _ -> ()
      | `Frame payload ->
          on_frame payload;
          go ()
      | `Oversized n ->
          enqueue_response conn (oversized_response n);
          conn.c_close_after_flush <- true
  in
  go ()

(* Non-blocking read into the connection's decoder; [`Closed] on EOF or a
   hard error. *)
let fill_conn conn =
  let rec go () =
    match Dml_par.Frame.input conn.c_in conn.c_fd 65536 with
    | 0 -> `Closed
    | _ -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `More
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (_, _, _) -> `Closed
  in
  go ()

(* An in-flight dispatched request: its job, and which clients wait on it
   ([p_waiters] grows past one when concurrent checks coalesce on the same
   memo key). *)
type pending = {
  p_job : job;
  mutable p_waiters : (int * Json.t) list;  (** connection id × envelope id *)
}

let serve_unix t ~path =
  ignore_sigpipe ();
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let conns = ref [] in
  let next_conn_id = ref 0 in
  let find_conn cid = List.find_opt (fun c -> c.c_alive && c.c_id = cid) !conns in
  (* dispatched-job bookkeeping: job id -> pending, memo key -> job id *)
  let routes : (int, pending) Hashtbl.t = Hashtbl.create 32 in
  let inflight_keys : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let stop_deadline = ref infinity in
  let respond_to cid v =
    match find_conn cid with
    | Some conn ->
        enqueue_response conn v;
        flush_conn conn
    | None -> () (* the client went away; nothing to deliver *)
  in
  let complete (job_id, outcome) =
    match Hashtbl.find_opt routes job_id with
    | None -> ()
    | Some p ->
        Hashtbl.remove routes job_id;
        let { jb_op = op; jb_key = key; _ } = p.p_job in
        Option.iter (Hashtbl.remove inflight_keys) key;
        List.iter
          (fun (cid, id) -> respond_to cid (response_of_outcome t ~id ~op ?key outcome))
          (List.rev p.p_waiters)
  in
  (* Handle one decoded request from [conn].  A pool job (check and batch
     work the memo cannot answer) is submitted and answered in [complete],
     so one client's slow check never head-of-line-blocks another's; an
     identical in-flight check is joined instead.  Everything else
     (check_patch too: the parent owns the unit store, and the dirty cone
     is the cheap part) is answered at once. *)
  let handle_frame conn payload =
    let immediate v = enqueue_response conn v in
    match Json.of_string payload with
    | Error msg -> immediate (Protocol.error_response ~id:Json.Null ~code:"bad-json" msg)
    | Ok v -> (
        match route t v with
        | Answer r -> immediate r
        | Job (d, j) -> (
            match Option.bind j.jb_key (Hashtbl.find_opt inflight_keys) with
            | Some job_id ->
                (* coalesce: join the identical in-flight check *)
                let p = Hashtbl.find routes job_id in
                p.p_waiters <- (conn.c_id, j.jb_id) :: p.p_waiters
            | None -> (
                match submit d j with
                | Error r -> immediate r
                | Ok job_id ->
                    Hashtbl.replace routes job_id { p_job = j; p_waiters = [ (conn.c_id, j.jb_id) ] };
                    Option.iter (fun k -> Hashtbl.replace inflight_keys k job_id) j.jb_key)))
  in
  let jobs_outstanding () = Hashtbl.length routes > 0 in
  let output_outstanding () = List.exists (fun c -> c.c_alive && conn_has_output c) !conns in
  Fun.protect
    ~finally:(fun () ->
      List.iter close_conn !conns;
      shutdown_pool t;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      (* Stop condition: a shutdown request stops accepting and reading,
         then the loop drains — in-flight jobs resolve (bounded by their
         deadlines) and buffered responses flush — under a grace cap. *)
      while
        (not t.t_stop)
        || ((jobs_outstanding () || output_outstanding ()) && Clock.now () < !stop_deadline)
      do
        if t.t_stop && !stop_deadline = infinity then stop_deadline := Clock.now () +. 10.;
        let worker_fds = match t.t_dispatch with Some d -> Dispatch.fds d | None -> [] in
        let read_fds =
          (if t.t_stop then []
           else listen_fd :: List.filter_map (fun c -> if c.c_alive then Some c.c_fd else None) !conns)
          @ worker_fds
        in
        let write_fds =
          List.filter_map
            (fun c -> if c.c_alive && conn_has_output c then Some c.c_fd else None)
            !conns
        in
        let timeout =
          let cap = if t.t_stop then Some (!stop_deadline) else None in
          let wake = match t.t_dispatch with Some d -> Dispatch.next_wake d | None -> None in
          match (wake, cap) with
          | None, None -> -1.
          | Some a, None | None, Some a -> Float.max 0. (a -. Clock.now ())
          | Some a, Some b -> Float.max 0. (Float.min a b -. Clock.now ())
        in
        let readable, writable =
          match Unix.select read_fds write_fds [] timeout with
          | r, w, _ -> (r, w)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
        in
        (* new clients *)
        if (not t.t_stop) && List.memq listen_fd readable then begin
          let rec accept_all () =
            match Unix.accept listen_fd with
            | fd, _ ->
                Unix.set_nonblock fd;
                incr next_conn_id;
                conns :=
                  !conns
                  @ [
                      {
                        c_id = !next_conn_id;
                        c_fd = fd;
                        c_in = Dml_par.Frame.decoder ();
                        c_out = Queue.create ();
                        c_out_pos = 0;
                        c_alive = true;
                        c_close_after_flush = false;
                      };
                    ];
                accept_all ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                ()
            | exception Unix.Unix_error (_, _, _) -> ()
          in
          accept_all ()
        end;
        (* worker pool progress: completed replies, deadlines, retries *)
        (match t.t_dispatch with
        | Some d ->
            let ready = List.filter (fun fd -> List.memq fd worker_fds) readable in
            List.iter complete (Dispatch.step d ~now:(Clock.now ()) ~ready)
        | None -> ());
        (* client requests *)
        if not t.t_stop then
          List.iter
            (fun conn ->
              if conn.c_alive && (not conn.c_close_after_flush) && List.memq conn.c_fd readable
              then begin
                let closed = fill_conn conn = `Closed in
                drain_frames conn ~on_frame:(handle_frame conn);
                flush_conn conn;
                if closed then close_conn conn
              end)
            !conns;
        (* drain buffered responses to every writable client *)
        List.iter
          (fun conn -> if conn.c_alive && List.memq conn.c_fd writable then flush_conn conn)
          !conns;
        conns := List.filter (fun c -> c.c_alive) !conns
      done)

let client_request ~socket req =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | exception Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "cannot connect to %s: %s" socket (Unix.error_message e))
      | () -> (
          Protocol.send fd req;
          match Protocol.recv ~max:Protocol.max_frame fd with
          | Ok v -> Ok v
          | Error `Eof -> Error "server closed the connection without responding"
          | Error (`Oversized n) -> Error (Printf.sprintf "oversized response (%d bytes)" n)
          | Error (`Bad_json msg) -> Error ("bad JSON in response: " ^ msg)
          | Error (`Error msg) -> Error msg))
