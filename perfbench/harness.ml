(* Shared pieces of the benchmark: statistics, checking each operation
   against its known answer, the spans of a traced run, and the processes a
   run starts (the dmld child and its pool worker).

   A traced run wraps each layer's public call in [span], which records
   seconds and allocated words; spans are summed per operation in memory
   and written out when the run ends. *)

module J = Dml_obs.Json
module Clock = Dml_obs.Clock
module Loc = Dml_lang.Loc
module Parser = Dml_lang.Parser
module Infer = Dml_mltype.Infer
module Tyenv = Dml_mltype.Tyenv
module Constr = Dml_constr.Constr
module Solver = Dml_solver.Solver
module Fourier = Dml_solver.Fourier
module Cache = Dml_cache.Cache
module Basis = Dml_core.Basis
module Denv = Dml_core.Denv
module Elab = Dml_core.Elab
module Incr = Dml_core.Incr
module Pipeline = Dml_core.Pipeline
module Session = Dml_core.Session
module Report_json = Dml_core.Report_json
module Server = Dml_server.Server
module Frame = Dml_par.Frame
module Prims = Dml_eval.Prims
module Compile = Dml_eval.Compile
module Codegen = Dml_eval.Codegen
module Programs = Dml_programs.Programs
module Workloads = Dml_programs.Workloads
module Native_drivers = Dml_programs.Native_drivers

let now = Clock.now

(* --- statistics -------------------------------------------------------------- *)

let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* --- operation outcomes ---------------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }
let op_wrong = ref false

(* Every operation is checked against its known answer.  A wrong answer
   marks the current operation failed, is reported on stderr (the first
   few) and fails the run. *)
let verify ok msg =
  if not ok then begin
    if tally.failed < 5 && not !op_wrong then prerr_endline ("perfbench: wrong answer: " ^ Lazy.force msg);
    op_wrong := true
  end

(* Close the current operation's account. *)
let settle_op () =
  tally.attempted <- tally.attempted + 1;
  if !op_wrong then tally.failed <- tally.failed + 1;
  op_wrong := false

let answer_to_string = function
  | Gen.Residual ls -> "residual [" ^ String.concat "," (List.map string_of_int ls) ^ "]"
  | Gen.Front_failure stage -> "failure " ^ stage

let residual_lines locs = List.sort_uniq compare (List.map (fun (l : Loc.t) -> l.Loc.start_pos.line) locs)

let classify_result = function
  | Ok report -> Gen.Residual (residual_lines (Pipeline.degraded_sites report))
  | Error (f : Pipeline.failure) -> Gen.Front_failure (Report_json.stage_slug f.Pipeline.f_stage)

(* --- tracing ------------------------------------------------------------------------ *)

let tracing = ref false
let totals : (string, float) Hashtbl.t = Hashtbl.create 64
let bump k v = Hashtbl.replace totals k (v +. Option.value ~default:0. (Hashtbl.find_opt totals k))
let get k = Option.value ~default:0. (Hashtbl.find_opt totals k)

(* per-operation span sums, flushed into [op_records] by [end_op] *)
let op_spans : (string, float * float) Hashtbl.t = Hashtbl.create 16
let op_records = ref []
let traced_ops = ref 0
let traced_seconds = ref 0.
let covered_seconds = ref 0.

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* [span ?alloc key f] runs [f]; when tracing, its seconds add to the
   metric [key] and its allocated mega-words to [alloc]. *)
let span ?alloc key f =
  if not !tracing then f ()
  else begin
    let w0 = alloc_words () and t0 = now () in
    let record () =
      let dt = now () -. t0 and dw = alloc_words () -. w0 in
      bump key dt;
      Option.iter (fun k -> bump k (dw /. 1e6)) alloc;
      covered_seconds := !covered_seconds +. dt;
      let s, w = Option.value ~default:(0., 0.) (Hashtbl.find_opt op_spans key) in
      Hashtbl.replace op_spans key (s +. dt, w +. dw)
    in
    match f () with
    | r ->
        record ();
        r
    | exception e ->
        record ();
        raise e
  end

let end_op ~kind seconds =
  if !tracing then begin
    incr traced_ops;
    traced_seconds := !traced_seconds +. seconds;
    let layers =
      Hashtbl.fold (fun k (s, w) acc -> (k, J.List [ J.Float s; J.Float w ]) :: acc) op_spans []
    in
    op_records :=
      J.Obj
        [
          ("op", J.Int !traced_ops);
          ("kind", J.String kind);
          ("seconds", J.Float seconds);
          ("layers", J.Obj (List.sort compare layers));
        ]
      :: !op_records;
    Hashtbl.reset op_spans
  end

(* --- the checker, stage by stage ---------------------------------------------------------- *)

(* Solve one obligation as [Solver.check_constraint] does — existentials
   eliminated, goals in order, the first unproven goal decides — with each
   step behind its layer's public call. *)
let solve_staged ?cache stats (ob : Elab.obligation) =
  match
    span "constr.extract_s" (fun () ->
        Constr.goals (Constr.eliminate_existentials ob.Elab.ob_constr))
  with
  | Error _ -> false
  | Ok goals ->
      bump "constr.goals" (float_of_int (List.length goals));
      List.for_all
        (fun g ->
          ignore
            (span ~alloc:"solver.alloc_mw" "solver.purify_dnf_s" (fun () ->
                 Solver.disjunct_systems (Solver.negation_formula g)));
          if cache <> None then ignore (span "cache.digest_s" (fun () -> Cache.digest_goal g));
          match
            span ~alloc:"solver.alloc_mw" "solver.decide_s" (fun () ->
                Solver.check_goal ~stats ?cache g)
          with
          | Solver.Valid -> true
          | Solver.Not_valid _ ->
              bump "solver.refuted_goals" 1.;
              false
          | Solver.Unsupported _ | Solver.Timeout _ -> false)
        goals

(* Parse, basis, ML inference and elaboration as [Pipeline.frontend] runs
   them. *)
let frontend_staged src =
  bump "lang.bytes" (float_of_int (String.length src));
  let user =
    span ~alloc:"lang.parse_alloc_mw" "lang.parse_s" (fun () ->
        fst (Parser.parse_program_with_spans src))
  in
  let basis =
    span ~alloc:"lang.parse_alloc_mw" "lang.basis_parse_s" (fun () ->
        Parser.parse_program Basis.source)
  in
  let mlenv, tprog =
    span ~alloc:"mltype.infer_alloc_mw" "mltype.infer_s" (fun () ->
        Infer.infer_program (Infer.initial Tyenv.builtin []) (basis @ user))
  in
  let res =
    span ~alloc:"elab.alloc_mw" "elab.elaborate_s" (fun () ->
        Elab.elaborate (Denv.builtin mlenv.Infer.tyenv) tprog)
  in
  bump "elab.obligations" (float_of_int (List.length res.Elab.res_obligations));
  res.Elab.res_obligations

let add_solver_stats (s : Solver.stats) =
  bump "solver.disjuncts" (float_of_int s.Solver.disjuncts);
  bump "solver.fm_eliminations" (float_of_int s.Solver.fm.Fourier.eliminations);
  bump "solver.fm_combinations" (float_of_int s.Solver.fm.Fourier.combinations);
  bump "solver.native_solves" (float_of_int s.Solver.native_solves);
  bump "solver.overflow_escalations" (float_of_int s.Solver.overflow_escalations)

(* The staged counterpart of [Pipeline.check_s]: the same verdicts, reached
   through the layers one call at a time. *)
let check_staged ?cache src =
  match frontend_staged src with
  | exception e -> Gen.Front_failure (Report_json.stage_slug (Pipeline.failure_of_exn e).Pipeline.f_stage)
  | obligations ->
      let stats = Solver.new_stats () in
      let unproven =
        List.filter_map
          (fun (ob : Elab.obligation) -> if solve_staged ?cache stats ob then None else Some ob.Elab.ob_loc)
          obligations
      in
      add_solver_stats stats;
      Gen.Residual (residual_lines unproven)

(* --- processes and files ----------------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (try Sys.readdir path with _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Cleanup actions run in reverse order of registration, on success, on a
   wrong answer and on an exception alike. *)
let cleanups : (unit -> unit) list ref = ref []
let on_cleanup f = cleanups := f :: !cleanups

let run_cleanups () =
  let fs = !cleanups in
  cleanups := [];
  List.iter (fun f -> try f () with _ -> ()) fs

let vm_hwm_kb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
        | _ -> go ()
      in
      let kb = go () in
      close_in ic;
      kb

let children_of pid =
  Array.to_list (try Sys.readdir "/proc" with _ -> [||])
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | None -> None
         | Some child -> (
             match open_in (Printf.sprintf "/proc/%d/stat" child) with
             | exception Sys_error _ -> None
             | ic ->
                 let line = try input_line ic with End_of_file -> "" in
                 close_in ic;
                 (* the command name may hold spaces: fields restart after ')' *)
                 match String.rindex_opt line ')' with
                 | None -> None
                 | Some i -> (
                     match
                       Scanf.sscanf (String.sub line (i + 1) (String.length line - i - 1)) " %c %d"
                         (fun _ ppid -> ppid)
                     with
                     | ppid when ppid = pid -> Some child
                     | _ -> None
                     | exception _ -> None)))

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

(* Wait up to [seconds] for [pid] to exit on its own. *)
let exited_within pid seconds =
  let deadline = now () +. seconds in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if now () > deadline then false
        else begin
          Unix.sleepf 0.005;
          go ()
        end
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  go ()

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- the dmld child ------------------------------------------------------------------------- *)

type dmld = { pid : int; fd : Unix.file_descr; mutable live : bool }

(* Stop the server: a [shutdown] request, then SIGKILL for anything still
   running after a grace period; the parent and its pool worker are both
   reaped. *)
let stop_dmld d =
  if d.live then begin
    d.live <- false;
    (try
       Frame.write_raw d.fd (J.to_string (J.Obj [ ("op", J.String "shutdown") ]));
       ignore (Frame.read_raw d.fd)
     with _ -> ());
    (try Unix.close d.fd with _ -> ());
    if not (exited_within d.pid 5.) then begin
      List.iter (fun c -> try Unix.kill c Sys.sigkill with _ -> ()) (children_of d.pid);
      (try Unix.kill d.pid Sys.sigkill with _ -> ());
      reap d.pid
    end
  end

(* Start [dmld serve] on a socket inside [dir] (a path relative to the
   working directory, so it stays under the socket-path length limit) with
   one pool worker, declaration-grain rechecking and its default in-memory
   verdict cache; return once a connection is accepted.  No [--cache-dir]:
   writing a fresh cache directory made a set-up take from 1x to 3x its
   best, with the disk of a shared host, not the server, setting the pace. *)
let start_dmld ~exe ~dir =
  mkdir_p dir;
  let sock = Filename.concat dir "s.sock" in
  let null = devnull () in
  let pid =
    Unix.create_process exe [| exe; "serve"; "--socket"; sock; "--incremental"; "-j"; "1" |] null null null
  in
  Unix.close null;
  let deadline = now () +. 20. in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if now () > deadline || fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then
          failwith "perfbench: dmld did not start listening"
        else begin
          Unix.sleepf 0.0005;
          connect ()
        end
  in
  let d = { pid; fd = Unix.stdin; live = false } in
  match connect () with
  | fd ->
      let d = { d with fd; live = true } in
      on_cleanup (fun () -> stop_dmld d);
      d
  | exception e ->
      (try Unix.kill pid Sys.sigkill with _ -> ());
      reap pid;
      raise e

let dmld_rss_mb d =
  float_of_int (List.fold_left (fun acc p -> acc + vm_hwm_kb p) 0 (d.pid :: children_of d.pid))
  /. 1024.


let self_rss_mb () = float_of_int (vm_hwm_kb (Unix.getpid ())) /. 1024.
