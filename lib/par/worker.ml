module Metrics = Dml_obs.Metrics
module Trace = Dml_obs.Trace

(* One reply per task.  Alongside the value it carries the worker's
   observability for that task: the metrics delta (the worker resets its
   registry between tasks, so the export is exactly this task's work) and
   the completed trace spans recorded under the worker's private sink. *)
type 'r reply = {
  rep_value : ('r, string) result;
  rep_metrics : Metrics.export;
  rep_spans : Trace.span list;
}

type ('tag, 'r) event =
  | Reply of 'tag * ('r, string) result
  | Died of 'tag * string
  | Timed_out of 'tag * float

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let flush_std () =
  Format.pp_print_flush Format.std_formatter ();
  Format.pp_print_flush Format.err_formatter ();
  flush stdout;
  flush stderr

(* ------------------------------------------------------------------ *)
(* Child process                                                       *)
(* ------------------------------------------------------------------ *)

(* The child keeps the parent's tracing *decision* but never its sink: spans
   are recorded under a fresh per-task sink and shipped back as data, so the
   parent's trace stays well-formed and each task's spans land exactly once. *)
let child_main make task_fd reply_fd =
  let tracing = Trace.enabled () in
  Trace.set_sink None;
  Metrics.reset ();
  let f = make () in
  let rec loop () =
    match Frame.read task_fd with
    | Error `Eof -> Unix._exit 0 (* parent closed the task pipe: shutdown *)
    | Error (`Error _) -> Unix._exit 1
    | Ok task ->
        let sink = if tracing then Some (Trace.create_sink ()) else None in
        Trace.set_sink sink;
        let value = try Ok (f task) with e -> Error (Printexc.to_string e) in
        Trace.set_sink None;
        let spans = match sink with Some sk -> Trace.roots sk | None -> [] in
        let reply = { rep_value = value; rep_metrics = Metrics.export (); rep_spans = spans } in
        Metrics.reset ();
        (try Frame.write reply_fd reply
         with e -> (
           (* an unmarshallable result (a worker function returning closures
              violates the contract) degrades to a per-task error; a failure
              on the fallback means the parent is gone *)
           let msg = "reply marshalling failed: " ^ Printexc.to_string e in
           try Frame.write reply_fd { reply with rep_value = Error msg; rep_spans = [] }
           with _ -> Unix._exit 2));
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Parent                                                              *)
(* ------------------------------------------------------------------ *)

type 'tag slot = {
  pid : int;
  to_child : Unix.file_descr;  (** the parent writes task frames *)
  from_child : Unix.file_descr;  (** the parent reads reply frames *)
  mutable job : 'tag option;  (** the in-flight task *)
  mutable started : float;
  mutable deadline : float option;
}

type ('task, 'tag, 'r) t = {
  make : unit -> 'task -> 'r;
  timeout_ms : int option;
  respawn : unit -> bool;
  slots : 'tag slot option array;  (** [None]: dead and not replaced *)
  mutable zombies : int list;  (** killed/exited pids not yet reaped *)
}

let spawn t =
  (* the fds the parent holds for other workers; a child must close its
     copies or the parent's close-for-EOF shutdown never reaches them *)
  let inherited =
    Array.to_list t.slots
    |> List.concat_map (function Some s -> [ s.to_child; s.from_child ] | None -> [])
  in
  let tr, tw = Unix.pipe () in
  let rr, rw = Unix.pipe () in
  flush_std ();
  match Unix.fork () with
  | 0 ->
      List.iter close_quiet (tw :: rr :: inherited);
      (try child_main t.make tr rw with _ -> ());
      Unix._exit 1
  | pid ->
      close_quiet tr;
      close_quiet rw;
      { pid; to_child = tw; from_child = rr; job = None; started = 0.; deadline = None }

(* SIGCHLD-safe reaping: always [WNOHANG] against the specific pid — never
   a wait(-1), which could steal the exit status of another pool's workers
   running in the same process.  [None]: not exited yet; such pids are
   parked on the zombie list and retried every [collect]. *)
let try_reap pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, Unix.WEXITED n -> Some (Printf.sprintf "exited with code %d" n)
  | _, Unix.WSIGNALED n -> Some (Printf.sprintf "killed by signal %d" n)
  | _, Unix.WSTOPPED n -> Some (Printf.sprintf "stopped by signal %d" n)
  | exception Unix.Unix_error _ -> Some "crashed"

(* Take a dead or killed worker out of its slot and let the policy decide
   on a replacement.  Returns what is known of the worker's fate. *)
let retire t idx s =
  t.slots.(idx) <- None;
  close_quiet s.to_child;
  close_quiet s.from_child;
  let status =
    match try_reap s.pid with
    | Some status -> status
    | None ->
        t.zombies <- s.pid :: t.zombies;
        "crashed"
  in
  if t.respawn () then t.slots.(idx) <- Some (spawn t);
  status

let shutdown t =
  Array.iteri
    (fun idx -> function
      | Some s ->
          close_quiet s.to_child;
          (* an idle worker exits on EOF; one mid-task gets the axe *)
          if s.job <> None then (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
          close_quiet s.from_child;
          t.slots.(idx) <- None
      | None -> ())
    t.slots;
  List.iter (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()) t.zombies;
  t.zombies <- []

let create ?timeout_ms ~respawn ~jobs make =
  let t = { make; timeout_ms; respawn; slots = Array.make (max 1 jobs) None; zombies = [] } in
  (try Array.iteri (fun idx _ -> t.slots.(idx) <- Some (spawn t)) t.slots
   with e ->
     shutdown t;
     raise e);
  t

let size t = Array.length t.slots

let busy t =
  Array.fold_left (fun n -> function Some { job = Some _; _ } -> n + 1 | _ -> n) 0 t.slots

let fds t = Array.to_list t.slots |> List.filter_map (Option.map (fun s -> s.from_child))

let next_deadline t =
  Array.fold_left
    (fun acc -> function
      | Some { deadline = Some d; _ } -> Some (Option.fold ~none:d ~some:(Float.min d) acc)
      | _ -> acc)
    None t.slots

(* Feed idle slots until the policy runs out of work.  A write that fails
   means the worker died while idle: the task never reached it, so it goes
   back to the policy without counting as an attempt. *)
let assign t ~now ~take ~requeue =
  let rec feed idx sent =
    if idx = Array.length t.slots then sent
    else
      match t.slots.(idx) with
      | Some ({ job = None; _ } as s) -> (
          match take () with
          | None -> sent
          | Some (tag, task) -> (
              match Frame.write s.to_child task with
              | () ->
                  s.job <- Some tag;
                  s.started <- now;
                  s.deadline <-
                    Option.map (fun ms -> now +. (float_of_int ms /. 1000.)) t.timeout_ms;
                  feed (idx + 1) (sent + 1)
              | exception Unix.Unix_error _ ->
                  requeue tag;
                  ignore (retire t idx s);
                  feed idx sent))
      | _ -> feed (idx + 1) sent
  in
  feed 0 0

let collect t ~now ~ready =
  t.zombies <- List.filter (fun pid -> try_reap pid = None) t.zombies;
  let events = ref [] in
  Array.iteri
    (fun idx -> function
      | Some s when List.memq s.from_child ready -> (
          match Frame.read s.from_child with
          | Ok reply -> (
              Metrics.absorb reply.rep_metrics;
              List.iter Trace.adopt reply.rep_spans;
              match s.job with
              | Some tag ->
                  s.job <- None;
                  s.deadline <- None;
                  events := Reply (tag, reply.rep_value) :: !events
              | None -> () (* a reply with no task: drop it, the worker is confused *))
          | Error (`Eof | `Error _) -> (
              let status = retire t idx s in
              match s.job with Some tag -> events := Died (tag, status) :: !events | None -> ()))
      | _ -> ())
    t.slots;
  (* the watchdog: a worker past its deadline is hung or thrashing; only
     SIGKILL is guaranteed to reclaim it *)
  Array.iteri
    (fun idx -> function
      | Some ({ job = Some tag; deadline = Some d; _ } as s) when now >= d ->
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (retire t idx s);
          events := Timed_out (tag, now -. s.started) :: !events
      | _ -> ())
    t.slots;
  List.rev !events
