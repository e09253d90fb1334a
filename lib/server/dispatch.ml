open Dml_obs
module Session = Dml_core.Session
module Runner = Dml_par.Runner
module Worker = Dml_par.Worker

(* process-wide fault/robustness counters, kept in the metrics registry so
   the server's [metrics] and [status] ops report the same figures *)
let m_retries = Metrics.counter "server.retries"
let m_shed = Metrics.counter "server.shed"
let m_respawned = Metrics.counter "server.workers_respawned"
let m_timeouts = Metrics.counter "server.timeouts"
let m_worker_lost = Metrics.counter "server.worker_lost"
let m_dispatched = Metrics.counter "server.dispatched"

(* ------------------------------------------------------------------ *)
(* Tasks and result documents                                          *)
(* ------------------------------------------------------------------ *)

type task =
  | T_check of { program : string; source : string }
  | T_batch of { programs : (string * string) list }

let task_label = function
  | T_check { program; _ } -> program
  | T_batch { programs; _ } -> ( match programs with (n, _) :: _ -> n | [] -> "-")

(* The same document builders whether a task runs on a pool worker or
   inline in the parent, and the same ones [dmlc] uses: this is what keeps
   a [-j] server's documents byte-identical to single-shot [--json]
   output. *)
let check_doc session ~program source =
  Dml_infer.Engine.check_json session ~program (Dml_infer.Engine.check session source)

let batch_doc session programs =
  let options = Session.options session in
  let targets =
    List.map (fun (name, src) -> { Runner.tg_name = name; tg_source = Ok src }) programs
  in
  Runner.batch_json ~options ~passes:[ Runner.check_targets_s ~session options targets ] ()

(* A warm worker, built after the fork: the base session (shared verdict
   cache, built on first use), from which each task's session is derived
   by {!Session.with_options} — a record copy sharing the base cache, the
   same soundness argument as the server's own per-request overrides. *)
let worker base_options () =
  let base = lazy (Session.create ~options:base_options ()) in
  fun ((opts : Session.options), task) ->
    Runner.test_injection (task_label task);
    let session = Session.with_options (Lazy.force base) opts in
    match task with
    | T_check { program; source } -> check_doc session ~program source
    | T_batch { programs } -> batch_doc session programs

(* ------------------------------------------------------------------ *)
(* The dispatcher                                                      *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Done of Json.t
  | Failed of string  (** worker exception: deterministic, not retried *)
  | Timed_out of float  (** seconds since submission when the retry hung too *)
  | Lost of string  (** worker crashed on the retry as well *)

type job = {
  j_id : int;
  j_options : Session.options;
  j_task : task;
  j_submitted : float;
  mutable j_attempts : int;  (** completed (failed) attempts so far *)
  mutable j_not_before : float;  (** retry backoff gate *)
}

type t = {
  d_pool : (Session.options * task, job, Json.t) Worker.t;
  d_timeout_ms : int option;
  d_max_queue : int;
  d_fresh : job Queue.t;  (** admitted, never attempted *)
  mutable d_retry : job list;  (** bounced off a dead/hung worker, run next *)
  mutable d_next_id : int;
}

let retry_backoff_s = 0.05

let create ?timeout_ms ?(max_queue = 256) ~jobs options =
  (* a long-lived server always replaces a dead worker *)
  let respawn () = Metrics.incr m_respawned; true in
  {
    d_pool = Worker.create ?timeout_ms ~respawn ~jobs (worker (Runner.worker_options options));
    d_timeout_ms = timeout_ms;
    d_max_queue = max 0 max_queue;
    d_fresh = Queue.create ();
    d_retry = [];
    d_next_id = 0;
  }

let workers t = Worker.size t.d_pool
let timeout_ms t = t.d_timeout_ms
let queued t = Queue.length t.d_fresh + List.length t.d_retry
let fds t = Worker.fds t.d_pool

let take_job t now =
  match t.d_retry with
  | j :: rest when j.j_not_before <= now ->
      t.d_retry <- rest;
      Some j
  | _ -> Queue.take_opt t.d_fresh

let assign t now =
  let take () = Option.map (fun j -> (j, (j.j_options, j.j_task))) (take_job t now) in
  let sent =
    Worker.assign t.d_pool ~now ~take ~requeue:(fun j -> t.d_retry <- j :: t.d_retry)
  in
  Metrics.incr ~by:sent m_dispatched

(* How a failed attempt resolves: the first crash or hang earns one retry
   on a fresh worker after a short backoff; the second becomes [final], a
   structured verdict for the client instead of a dropped connection. *)
let fail_attempt t now j ~final counter =
  j.j_attempts <- j.j_attempts + 1;
  if j.j_attempts <= 1 then begin
    Metrics.incr m_retries;
    j.j_not_before <- now +. retry_backoff_s;
    (* retried jobs go behind other already-bounced jobs but ahead of fresh
       admissions *)
    t.d_retry <- t.d_retry @ [ j ];
    None
  end
  else begin
    Metrics.incr counter;
    Some (j.j_id, final)
  end

let step t ~now ~ready =
  let completed =
    Worker.collect t.d_pool ~now ~ready
    |> List.filter_map (function
         | Worker.Reply (j, Ok doc) -> Some (j.j_id, Done doc)
         | Worker.Reply (j, Error msg) -> Some (j.j_id, Failed msg)
         | Worker.Died (j, status) -> fail_attempt t now j ~final:(Lost status) m_worker_lost
         | Worker.Timed_out (j, _) ->
             fail_attempt t now j ~final:(Timed_out (now -. j.j_submitted)) m_timeouts)
  in
  assign t now;
  completed

let next_wake t =
  List.fold_left
    (fun acc j -> Some (Option.fold ~none:j.j_not_before ~some:(Float.min j.j_not_before) acc))
    (Worker.next_deadline t.d_pool) t.d_retry

(* Admission: run now if a worker is idle, queue if there is room, shed
   with an explicit [`Overloaded] otherwise — bounded latency, not
   unbounded queueing. *)
let submit t ~now ~options task =
  if queued t >= t.d_max_queue && Worker.busy t.d_pool >= workers t then begin
    Metrics.incr m_shed;
    Error `Overloaded
  end
  else begin
    let j =
      {
        j_id = t.d_next_id;
        (* strip the parallelism shape here too: a worker never forks a
           nested pool *)
        j_options = Runner.worker_options options;
        j_task = task;
        j_submitted = now;
        j_attempts = 0;
        j_not_before = now;
      }
    in
    t.d_next_id <- t.d_next_id + 1;
    Queue.add j t.d_fresh;
    assign t now;
    Ok j.j_id
  end

let shutdown t = Worker.shutdown t.d_pool

(* The fault counts are read back from the registry: a server process runs
   one dispatcher, and its parent never resets the registry. *)
let to_json t =
  let count m = Json.Int (Metrics.value m) in
  Json.Obj
    [
      ("workers", Json.Int (workers t));
      ("in_flight", Json.Int (Worker.busy t.d_pool));
      ("queued", Json.Int (queued t));
      ("max_queue", Json.Int t.d_max_queue);
      ( "request_timeout_ms",
        match t.d_timeout_ms with None -> Json.Null | Some ms -> Json.Int ms );
      ( "faults",
        Json.Obj
          [
            ("retries", count m_retries);
            ("shed", count m_shed);
            ("workers_respawned", count m_respawned);
            ("timeouts", count m_timeouts);
            ("worker_lost", count m_worker_lost);
          ] );
    ]
