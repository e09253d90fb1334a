module Clock = Dml_obs.Clock

type error = Exception of string | Crashed of string | Timed_out of float
type 'r outcome = ('r, error) result

let error_to_string = function
  | Exception msg -> "worker exception: " ^ msg
  | Crashed msg -> "worker crashed: " ^ msg
  | Timed_out s -> Printf.sprintf "task timed out after %.1fs" s

let cpu_count () = Domain.recommended_domain_count ()

let run ?jobs ?task_timeout_ms ~worker tasks =
  if tasks = [] then []
  else begin
    let tasks = Array.of_list tasks in
    let n_tasks = Array.length tasks in
    let n_workers = max 1 (min (Option.value jobs ~default:(cpu_count ())) n_tasks) in
    let results = Array.make n_tasks None in
    let completed = ref 0 in
    let finish i r =
      results.(i) <- Some r;
      incr completed
    in
    (* the task queue: fresh indices in order, plus a front-of-queue stack of
       tasks bounced off a worker that died before reading them *)
    let requeued = ref [] in
    let next = ref 0 in
    let take () =
      match !requeued with
      | i :: rest ->
          requeued := rest;
          Some (i, tasks.(i))
      | [] when !next < n_tasks ->
          incr next;
          Some (!next - 1, tasks.(!next - 1))
      | [] -> None
    in
    let requeue i = requeued := i :: !requeued in
    (* crash-looping tasks must terminate: each replacement fork spends from
       this budget, and when it is gone the rest of the queue degrades *)
    let respawns_left = ref (2 * n_workers) in
    let respawn () =
      (!requeued <> [] || !next < n_tasks)
      && !respawns_left > 0
      && (decr respawns_left;
          true)
    in
    (* a write to a dead worker must surface as EPIPE, not kill the parent *)
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> None
    in
    Fun.protect
      ~finally:(fun () -> Option.iter (Sys.set_signal Sys.sigpipe) old_sigpipe)
      (fun () ->
        let pool =
          Worker.create ?timeout_ms:task_timeout_ms ~respawn ~jobs:n_workers (fun () -> worker)
        in
        Fun.protect ~finally:(fun () -> Worker.shutdown pool) @@ fun () ->
        while !completed < n_tasks do
          ignore (Worker.assign pool ~now:(Clock.now ()) ~take ~requeue);
          if Worker.busy pool = 0 then
            (* a live idle worker would have been fed: every worker is gone
               and the respawn budget is spent, so the rest of the queue
               degrades, one error per task *)
            Seq.iter
              (fun (i, _) -> finish i (Error (Crashed "no live workers (respawn limit reached)")))
              (Seq.of_dispenser take)
          else begin
            let timeout =
              match Worker.next_deadline pool with
              | None -> -1. (* no deadlines: block until a reply or an EOF *)
              | Some d -> Float.max 0. (d -. Clock.now ())
            in
            let ready =
              match Unix.select (Worker.fds pool) [] [] timeout with
              | r, _, _ -> r
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
            in
            List.iter
              (function
                | Worker.Reply (i, Ok v) -> finish i (Ok v)
                | Worker.Reply (i, Error msg) -> finish i (Error (Exception msg))
                | Worker.Died (i, status) -> finish i (Error (Crashed status))
                | Worker.Timed_out (i, s) -> finish i (Error (Timed_out s)))
              (Worker.collect pool ~now:(Clock.now ()) ~ready)
          end
        done);
    Array.to_list results
    |> List.map (function Some r -> r | None -> Error (Crashed "internal: task never completed"))
  end
