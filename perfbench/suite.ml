(* The three workloads and the runner that times them.

   Every workload is a closed loop with one client: the next operation
   starts when the previous one has answered.  A run repeats a fixed,
   seeded pass of operations until its time is up, after five identical
   set-ups whose last state it measures.  A traced run measures half its
   time untraced, then sets up again and replays the same pass stage by
   stage (see {!Harness.span}). *)

open Harness

type config = {
  seed : int;
  seconds : float;
  work : string;  (** this run's scratch directory, removed at exit *)
  dmld_exe : string;
}

type 'st workload = {
  setup : unit -> 'st * (unit -> unit);  (** fresh state and its release *)
  prepare : 'st -> unit;  (** untimed one-off work after set-up (native builds) *)
  length : int;  (** operations in one pass *)
  op : 'st -> staged:bool -> int -> string * Gen.answer option;
      (** run operation [i] of the pass: its kind and, for checks, the
          verdict reached *)
  fresh_pass : bool;
      (** every pass starts from the fresh set-up timed before it (a stateful
          server); otherwise that set-up is released at once *)
  rss_mb : 'st -> float;  (** peak RSS of the processes doing the work *)
}

type measured = {
  ops : (string * float) array;
      (** per operation of the pass: its kind and its best latency over the
          passes of the run *)
  passes : int;
  peak_rss_mb : float;
  setups : float list;  (** durations of the set-ups between passes *)
}

type outcome = { setup_s : float; untraced : measured; traced : measured option }

let timed_setups w =
  let times = ref [] and last = ref None in
  for _ = 1 to 5 do
    Option.iter (fun (_, release) -> release ()) !last;
    let t0 = now () in
    let state = w.setup () in
    times := (now () -. t0) :: !times;
    if !op_wrong then settle_op ();
    last := Some state
  done;
  match !last with Some state -> (!times, state) | None -> assert false

(* Repeat the pass until [seconds] have passed (whole passes only).  Each
   operation keeps its best latency: the machine's speed drifts by tens of
   percent over seconds, and the least-disturbed repetition of an operation
   is the steadiest estimate of its cost. *)
let phase w (st, release) ~staged seconds =
  let st = ref st and release = ref release and rss = ref 0. and setups = ref [] in
  let best = Array.make w.length infinity and kinds = Array.make w.length "" in
  let verdicts = Array.make w.length None in
  let t0 = now () in
  let rec pass p =
    if p > 0 then begin
      if w.fresh_pass then begin
        rss := Float.max !rss (w.rss_mb !st);
        !release ()
      end;
      let traced = !tracing in
      tracing := false;
      let t0 = now () in
      let s, r = Fun.protect ~finally:(fun () -> tracing := traced) w.setup in
      setups := (now () -. t0) :: !setups;
      if !op_wrong then settle_op ();
      if w.fresh_pass then begin
        st := s;
        release := r
      end
      else r ()
    end;
    for i = 0 to w.length - 1 do
      let s = now () in
      let kind, v = w.op !st ~staged i in
      let dt = now () -. s in
      end_op ~kind dt;
      settle_op ();
      best.(i) <- Float.min best.(i) dt;
      if p = 0 then begin
        kinds.(i) <- kind;
        verdicts.(i) <- v
      end
    done;
    if now () -. t0 < seconds then pass (p + 1) else p + 1
  in
  let passes =
    Fun.protect
      ~finally:(fun () ->
        rss := Float.max !rss (w.rss_mb !st);
        !release ())
      (fun () ->
        w.prepare !st;
        pass 0)
  in
  ({ ops = Array.map2 (fun k b -> (k, b)) kinds best; passes; peak_rss_mb = !rss; setups = !setups }, verdicts)

(* [setup_s] is the best of the five set-ups before the first pass and of
   the one between every two passes (kept by a workload that starts every
   pass afresh, released at once by the others).  Like an operation's
   latency, a set-up's least-disturbed repetition is the steady estimate of
   its cost: the first request to a fresh dmld takes from 1x to 2x its best,
   a slow spell of the machine can cover all five set-ups at the start, and
   the median of a run follows such spells. *)
let run ~traced cfg w =
  let times, state = timed_setups w in
  let setup_s (m : measured) = List.fold_left Float.min infinity (times @ m.setups) in
  if not traced then
    let m = fst (phase w state ~staged:false cfg.seconds) in
    { setup_s = setup_s m; untraced = m; traced = None }
  else begin
    let m1, v1 = phase w state ~staged:false (cfg.seconds /. 2.) in
    let state2 = w.setup () in
    tracing := true;
    let m2, v2 =
      Fun.protect ~finally:(fun () -> tracing := false) (fun () -> phase w state2 ~staged:true (cfg.seconds /. 2.))
    in
    (* the staged replay must reach the untraced run's verdicts *)
    Array.iteri
      (fun i a ->
        if a <> None && a <> v2.(i) then begin
          verify false (lazy (Printf.sprintf "traced op %d: verdict differs from the untraced run" i));
          settle_op ()
        end)
      v1;
    { setup_s = setup_s m1; untraced = m1; traced = Some m2 }
  end

(* --- check-batch ---------------------------------------------------------------------- *)

let check_cold src = classify_result (Pipeline.check_s (Session.create ()) src)

let check_answer ~what ans got =
  verify (got = ans)
    (lazy (Printf.sprintf "%s: expected %s, got %s" what (answer_to_string ans) (answer_to_string got)))

let check_batch cfg =
  let first = ref None in
  let setup () =
    let inputs = Array.of_list (List.map Gen.render (Gen.batch (Gen.create ~seed:cfg.seed ~stream:1))) in
    (match !first with
    | None -> first := Some inputs
    | Some a -> verify (a = inputs) (lazy "the same seed gave different inputs"));
    (* warm-up: the smallest program *)
    Array.iter
      (fun (src, ans) ->
        if List.length (String.split_on_char '\n' src) < 40 then check_answer ~what:"warm-up" ans (check_cold src))
      inputs;
    (inputs, ignore)
  in
  let op inputs ~staged i =
    let src, ans = inputs.(i) in
    let got = if staged then check_staged src else check_cold src in
    check_answer ~what:(Printf.sprintf "check-batch op %d" i) ans got;
    ("check", Some got)
  in
  { setup; prepare = ignore; length = Gen.batch_size; op; fresh_pass = false; rss_mb = (fun _ -> self_rss_mb ()) }

(* --- serve-edit --------------------------------------------------------------------------- *)

type editor = {
  g : Gen.t;
  mutable good : Gen.program;  (** the last buffer the server accepted *)
  mutable good_id : string;
  mutable pending_repair : bool;
  mutable history : (string * Gen.answer) list;  (** earlier whole-program checks *)
  mutable plan : [ `Edit of Gen.edit | `Check | `Repeat ] list;  (** the rest of the current block *)
}

type request = {
  req : J.t;
  src : string;
  expect : Gen.answer;
  kind : string;
  patch : bool;
  commits : Gen.program option;  (** the buffer that becomes the base on success *)
}

let patch_request ed ~kind prog =
  let src, expect = Gen.render prog in
  let base = if ed.good_id = "" then J.Null else J.String ed.good_id in
  {
    req =
      J.Obj
        [ ("op", J.String "check_patch"); ("program", J.String "buffer"); ("source", J.String src); ("base", base) ];
    src;
    expect;
    kind;
    patch = true;
    commits = (match expect with Gen.Front_failure _ -> None | Gen.Residual _ -> Some prog);
  }

let check_request ~kind (src, expect) =
  {
    req = J.Obj [ ("op", J.String "check"); ("program", J.String "gen"); ("source", J.String src) ];
    src;
    expect;
    kind;
    patch = false;
    commits = None;
  }

(* The mix, dealt in shuffled blocks so its proportions do not depend on the
   seed.  A block is ten requests: seven edits of the buffer (a bump, two
   comment toggles, two bound changes, and a break followed by its repair),
   two checks of new programs (twelve copies: one of each corpus program,
   so every new check has the same size)
   and one repeat of an earlier check. *)
let block =
  [
    `Edit Gen.Bump; `Edit Gen.Toggle_comment; `Edit Gen.Toggle_comment; `Edit Gen.Change_bound;
    `Edit Gen.Change_bound; `Edit Gen.Break; `Check; `Check; `Repeat;
  ]

let rec next_request ed =
  let rng = ed.g.Gen.rng in
  let new_check () =
    let copies = List.length Gen.corpus in
    let inp = Gen.render (Gen.program ed.g ~copies ~off_by_one:(Random.State.int rng 10 = 0)) in
    ed.history <- inp :: ed.history;
    check_request ~kind:"check" inp
  in
  if ed.pending_repair then begin
    ed.pending_repair <- false;
    patch_request ed ~kind:"repair" ed.good
  end
  else
    match ed.plan with
    | [] ->
        ed.plan <- Gen.shuffle ed.g block;
        next_request ed
    | k :: rest -> (
        ed.plan <- rest;
        match k with
        | `Check -> new_check ()
        | `Repeat when ed.history <> [] ->
            check_request ~kind:"repeat" (List.nth ed.history (Random.State.int rng (List.length ed.history)))
        | `Repeat -> new_check ()
        | `Edit e ->
            if e = Gen.Break then ed.pending_repair <- true;
            patch_request ed ~kind:(Gen.edit_name e) (Gen.apply_edit ed.g ed.good e))

let member_path path j = List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path

(* The answer a [dml-check/1] document states; [None] when it is malformed. *)
let answer_of_doc doc =
  match (J.member "failure" doc, J.member "obligations" doc) with
  | Some f, _ -> (
      match J.member "stage" f with Some (J.String s) -> Some (Gen.Front_failure s) | _ -> None)
  | None, Some (J.List obs) ->
      let line o =
        match (J.member "verdict" o, J.member "loc" o) with
        | Some (J.String "valid"), _ -> None
        | _, Some (J.String loc) -> (
            try Some (Scanf.sscanf loc "line%_[s] %d" Fun.id) with Scanf.Scan_failure _ | End_of_file -> Some (-1))
        | _ -> Some (-1)
      in
      Some (Gen.Residual (List.sort_uniq compare (List.filter_map line obs)))
  | None, _ -> None

(* One response envelope: the answer it carries, the new source id, and
   whether the memo answered. *)
let read_response r = function
  | Error msg -> Error msg
  | Ok j -> (
      let doc = member_path (if r.patch then [ "result"; "check" ] else [ "result" ]) j in
      match (J.member "ok" j, Option.bind doc answer_of_doc) with
      | Some (J.Bool true), Some ans ->
          let sid = match member_path [ "result"; "incr"; "source_id" ] j with Some (J.String s) -> s | _ -> "" in
          Ok (ans, sid, J.member "memo" j = Some (J.Bool true))
      | _ -> Error ("malformed or error response: " ^ J.to_string j))

let roundtrip (d : dmld) r =
  let payload = span "json.encode_s" (fun () -> J.to_string r.req) in
  let t0 = now () in
  let raw =
    try
      Frame.write_raw d.fd payload;
      Frame.read_raw d.fd
    with Unix.Unix_error (e, _, _) -> Error (`Error (Unix.error_message e))
  in
  let rtt = now () -. t0 in
  if !tracing then covered_seconds := !covered_seconds +. rtt;
  let resp =
    match raw with
    | Ok s ->
        if !tracing then bump "json.response_bytes" (float_of_int (String.length s));
        span "json.decode_s" (fun () -> J.of_string s) |> Result.map_error (fun e -> "bad json: " ^ e)
    | Error (`Eof | `Oversized _) -> Error "connection closed"
    | Error (`Error m) -> Error m
  in
  (resp, rtt)

(* The in-process replicas a traced run compares and times against. *)
type mirror = {
  server : Server.t;  (** an inline (pool-less) server fed the same requests *)
  incr : Incr.state;
  incr_session : Session.t;
  cache : Cache.t;  (** the verdict cache of the staged whole-program checks *)
}

let mirror_options =
  { Session.default_options with Session.op_incremental = true; op_cache = Some Cache.default_config }

type serve_state = { d : dmld; ed : editor; mirror : mirror Lazy.t }

let settle ed r = function
  | Ok (ans, sid, _) ->
      check_answer ~what:("serve-edit " ^ r.kind) r.expect ans;
      Option.iter
        (fun prog ->
          if ans = r.expect && sid <> "" then begin
            ed.good <- prog;
            ed.good_id <- sid
          end)
        r.commits
  | Error msg -> verify false (lazy ("serve-edit " ^ r.kind ^ ": " ^ msg))

(* Replay one request through the layers: the whole request in an inline
   server, then its front end, incremental recheck, report and encoding (a
   patch) or its staged solve against a warm cache (a check). *)
let replay m r ~rtt ~memo =
  let before = Option.map Cache.snapshot (Session.cache (Server.session m.server)) in
  let t0 = now () in
  let resp = span "server.handle_s" (fun () -> Server.handle m.server r.req) in
  bump "server.transport_s" (Float.max 0. (rtt -. (now () -. t0)));
  (match (before, Session.cache (Server.session m.server)) with
  | Some b, Some c ->
      let dlt = Cache.diff (Cache.snapshot c) b in
      bump "cache.hits" (float_of_int dlt.Cache.s_hits);
      bump "cache.misses" (float_of_int dlt.Cache.s_misses);
      bump "cache.lookup_s" dlt.Cache.s_lookup_time
  | _ -> ());
  (match read_response r (Ok resp) with
  | Ok (ans, _, _) -> check_answer ~what:("serve-edit inline " ^ r.kind) r.expect ans
  | Error msg -> verify false (lazy ("serve-edit inline " ^ r.kind ^ ": " ^ msg)));
  if memo then bump "server.memo_hits" 1. else if not r.patch then bump "server.pool_checks" 1.;
  if not memo then
    if r.patch then begin
      (try ignore (frontend_staged r.src) with _ -> ());
      match span "incr.recheck_s" (fun () -> Incr.check m.incr m.incr_session r.src) with
      | Ok (report, st) ->
          bump "incr.units" (float_of_int st.Incr.st_units);
          bump "incr.dirty" (float_of_int st.Incr.st_dirty);
          bump "incr.solver_calls" (float_of_int st.Incr.st_solver_calls);
          let doc = span "report.build_s" (fun () -> Report_json.of_report ~program:"buffer" report) in
          ignore (span "json.encode_s" (fun () -> J.to_string doc))
      | Error f ->
          let doc = span "report.build_s" (fun () -> Report_json.of_failure ~program:"buffer" f) in
          ignore (span "json.encode_s" (fun () -> J.to_string doc))
    end
    else check_answer ~what:("serve-edit staged " ^ r.kind) r.expect (check_staged ~cache:m.cache r.src)

(* Requests in one editing session; every pass replays the session against
   a fresh server. *)
let session_length = 100

let serve_edit cfg =
  let sessions = ref 0 in
  let setup () =
    incr sessions;
    let dir = Filename.concat cfg.work (Printf.sprintf "d%d" !sessions) in
    let d = start_dmld ~exe:cfg.dmld_exe ~dir in
    let g = Gen.create ~seed:cfg.seed ~stream:2 in
    let ed = { g; good = Gen.editor_buffer g; good_id = ""; pending_repair = false; history = []; plan = [] } in
    (* warm-up: establish the buffer as the first patch base *)
    let first = patch_request ed ~kind:"open" ed.good in
    settle ed first (read_response first (fst (roundtrip d first)));
    let mirror =
      lazy
        (let server = Server.create ~options:mirror_options () in
         ignore (Server.handle server first.req);
         {
           server;
           incr = Incr.create ();
           incr_session = Session.create ~options:mirror_options ();
           cache = Cache.create ();
         })
    in
    ( { d; ed; mirror },
      fun () ->
        stop_dmld d;
        rm_rf dir )
  in
  let op st ~staged _ =
    let r = next_request st.ed in
    let resp, rtt = roundtrip st.d r in
    let got = read_response r resp in
    settle st.ed r got;
    if staged then replay (Lazy.force st.mirror) r ~rtt ~memo:(match got with Ok (_, _, m) -> m | Error _ -> false);
    (r.kind, match got with Ok (a, _, _) -> Some a | Error _ -> None)
  in
  { setup; prepare = ignore; length = session_length; op; fresh_pass = true; rss_mb = (fun st -> dmld_rss_mb st.d) }

(* --- run-kernels -------------------------------------------------------------------------------- *)

type backend = Closure | Native

type kernel = {
  bench : Programs.benchmark;
  tprog : Dml_mltype.Tast.tprogram;
  degraded : (Loc.t -> bool) option;
  closure : Prims.mode -> Workloads.exec;
  mutable summary : string option;  (** the first verified result line *)
}

(* A native binary runs its kernel this many times per process, so its run
   time is of the order of the closure backend's and start-up is noise. *)
let native_repeats = 12

let kernel_key k mode =
  Printf.sprintf "%s-%s"
    (String.map (fun c -> if c = ' ' then '_' else c) k.bench.Programs.name)
    (match mode with Prims.Checked -> "checked" | Prims.Unchecked -> "unchecked")

let exec_of mode ?counters ?degraded tprog =
  let ce = Compile.run_program (Compile.initial_fast mode ?counters ?degraded ()) tprog in
  { Workloads.lookup = Compile.lookup ce }

(* Compile every kernel twice with the toolchain, once per discipline; the
   binaries are built once per process and kept under the run's directory. *)
let natives : (string, string) Hashtbl.t = Hashtbl.create 32

let build_natives cfg kernels =
  if Hashtbl.length natives = 0 then
    match Codegen.find_toolchain () with
    | Error msg -> verify false (lazy ("run-kernels: " ^ msg))
    | Ok tc ->
        Array.iter
          (fun k ->
            List.iter
              (fun mode ->
                let key = kernel_key k mode in
                let dir = Filename.concat cfg.work ("native/" ^ key) in
                mkdir_p dir;
                let src = Filename.concat dir "main.ml" and exe = Filename.concat dir "main.exe" in
                let degraded = if mode = Prims.Unchecked then k.degraded else None in
                let t0 = now () in
                let text =
                  Codegen.emit_executable ~name:k.bench.Programs.name ~mode ?degraded ~repeats:native_repeats
                    ~instrument:false
                    ~driver:(Option.get (Native_drivers.find k.bench.Programs.name))
                    k.tprog
                in
                Out_channel.with_open_bin src (fun oc -> output_string oc text);
                let t1 = now () in
                let rc =
                  Sys.command
                    (Printf.sprintf "%s > %s 2>&1" (tc.Codegen.tc_compile ~src ~exe)
                       (Filename.quote (Filename.concat dir "build.log")))
                in
                bump "codegen.emit_s" (t1 -. t0);
                bump "codegen.toolchain_s" (now () -. t1);
                if rc <> 0 then verify false (lazy ("run-kernels: native build failed for " ^ key))
                else begin
                  bump "codegen.binary_bytes" (float_of_int (Unix.stat exe).Unix.st_size);
                  Hashtbl.replace natives key exe
                end)
              [ Prims.Checked; Prims.Unchecked ])
          kernels

let run_native cfg key =
  let out = Filename.concat cfg.work "native/out.txt" in
  let null = devnull () in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let exe = Hashtbl.find natives key in
  let pid = Unix.create_process exe [| exe; "1" |] null fd null in
  Unix.close fd;
  Unix.close null;
  let status =
    let rec wait () =
      match Unix.waitpid [] pid with
      | _, s -> s
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    wait ()
  in
  if status <> Unix.WEXITED 0 then Error (key ^ ": native binary failed")
  else
    String.split_on_char '\n' (read_file out)
    |> List.find_map (fun l ->
           if String.length l > 8 && String.sub l 0 8 = "summary " then Some (String.sub l 8 (String.length l - 8))
           else None)
    |> Option.to_result ~none:(key ^ ": no summary line")

type kstate = {
  kernels : kernel array;
  order : (int * backend * Prims.mode) array;
      (** the pass: every kernel on both backends under both disciplines, in
          a seeded order *)
  counted : (string, Workloads.exec * Prims.counters) Hashtbl.t;  (** traced closure executables *)
}

let run_kernels cfg =
  let setup () =
    let t_load = ref 0. in
    let kernels =
      Array.of_list
        (List.map
           (fun (b : Programs.benchmark) ->
             match Pipeline.check_s (Session.create ()) b.Programs.source with
             | Error f -> failwith ("run-kernels: " ^ b.Programs.name ^ ": " ^ Pipeline.failure_to_string f)
             | Ok report ->
                 let tprog = report.Pipeline.rp_tprog in
                 let degraded = if report.Pipeline.rp_valid then None else Some (Pipeline.degraded_pred report) in
                 let t0 = now () in
                 let checked = exec_of Prims.Checked tprog in
                 let unchecked = exec_of Prims.Unchecked ?degraded tprog in
                 t_load := !t_load +. (now () -. t0);
                 {
                   bench = b;
                   tprog;
                   degraded;
                   closure = (function Prims.Checked -> checked | Prims.Unchecked -> unchecked);
                   summary = None;
                 })
           Programs.all)
    in
    Hashtbl.replace totals "eval.closure_load_s" !t_load;
    let order =
      List.init (Array.length kernels) Fun.id
      |> List.concat_map (fun k ->
             [ (k, Closure, Prims.Checked); (k, Closure, Prims.Unchecked); (k, Native, Prims.Checked); (k, Native, Prims.Unchecked) ])
      |> Gen.shuffle (Gen.create ~seed:cfg.seed ~stream:3)
    in
    ({ kernels; order = Array.of_list order; counted = Hashtbl.create 32 }, ignore)
  in
  let agree k what s =
    match k.summary with
    | None -> k.summary <- Some s
    | Some ref_s ->
        verify (s = ref_s)
          (lazy (Printf.sprintf "run-kernels %s %s: summary %S differs from %S" k.bench.Programs.name what s ref_s))
  in
  let op st ~staged i =
    let ki, backend, mode = st.order.(i) in
    let k = st.kernels.(ki) in
    let key = kernel_key k mode in
    match backend with
    | Closure ->
        let kind = "closure-" ^ key in
        (try
           if staged then begin
             let ex, c =
               match Hashtbl.find_opt st.counted key with
               | Some x -> x
               | None ->
                   let c = Prims.new_counters () in
                   let degraded = if mode = Prims.Unchecked then k.degraded else None in
                   let x = (exec_of mode ~counters:c ?degraded k.tprog, c) in
                   Hashtbl.replace st.counted key x;
                   x
             in
             c.Prims.dynamic_checks <- 0;
             c.Prims.eliminated_checks <- 0;
             let s =
               span ~alloc:"eval.run_alloc_mw" "eval.closure_run_s" (fun () -> k.bench.Programs.run ex ~scale:1)
             in
             if mode = Prims.Unchecked then begin
               bump "eval.checks_eliminated" (float_of_int c.Prims.eliminated_checks);
               bump "eval.checks_residual" (float_of_int c.Prims.dynamic_checks)
             end;
             agree k kind s
           end
           else agree k kind (k.bench.Programs.run (k.closure mode) ~scale:1)
         with e -> verify false (lazy (kind ^ ": " ^ Printexc.to_string e)));
        (kind, None)
    | Native ->
        let kind = "native-" ^ key in
        (match span "codegen.native_run_s" (fun () -> run_native cfg key) with
        | Ok s -> agree k kind s
        | Error msg -> verify false (lazy msg)
        | exception Not_found -> verify false (lazy (kind ^ ": not built")));
        (kind, None)
  in
  {
    setup;
    prepare = (fun st -> build_natives cfg st.kernels);
    length = 4 * List.length Programs.all;
    op;
    fresh_pass = false;
    rss_mb = (fun _ -> self_rss_mb ());
  }
