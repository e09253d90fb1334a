type verdict = Valid | Not_valid of string | Unsupported of string | Timeout of string

type entry = { e_tier : int; e_verdict : verdict }

type t = {
  memo : (string, entry) Lru.t;
  dir : string option;
  max_disk_bytes : int;
  max_disk_entries : int;
  mutable corrupt : int;
  mutable quarantined : int;
  mutable disk_evictions : int;
  mutable writes_since_sweep : int;
  mutable persist_time : float;
}

(* process-wide registry mirrors of the per-store counters *)
let m_evictions = Dml_obs.Metrics.counter "cache.evictions"
let m_corrupt = Dml_obs.Metrics.counter "cache.corrupt"
let m_quarantined = Dml_obs.Metrics.counter "cache.quarantined"
let m_disk_evictions = Dml_obs.Metrics.counter "cache.disk_evictions"
let m_disk_reads = Dml_obs.Metrics.counter "cache.disk_reads"
let m_disk_writes = Dml_obs.Metrics.counter "cache.disk_writes"

(* ------------------------------------------------------------------ *)
(* Persistent layer                                                    *)
(* ------------------------------------------------------------------ *)

let magic = "dml-cache 1"

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let verdict_tag = function Valid -> 'V' | Not_valid _ -> 'N' | Unsupported _ -> 'U' | Timeout _ -> 'T'
let verdict_msg = function Valid -> "" | Not_valid m | Unsupported m | Timeout m -> m

let verdict_of_tag tag msg =
  match tag with
  | 'V' -> Some Valid
  | 'N' -> Some (Not_valid msg)
  | 'U' -> Some (Unsupported msg)
  | 'T' -> Some (Timeout msg)
  | _ -> None

let file_of_key dir key = Filename.concat dir (Digest.to_hex (Digest.string key) ^ ".dmlv")

let encode key entry =
  let msg = verdict_msg entry.e_verdict in
  let payload =
    Printf.sprintf "%s\n%d\n%c\n%d\n%s" key entry.e_tier (verdict_tag entry.e_verdict)
      (String.length msg) msg
  in
  Printf.sprintf "%s\n%s\n%d\n%s" magic
    (Digest.to_hex (Digest.string payload))
    (String.length payload) payload

(* Parse a payload that already passed the checksum; still validates the
   structure so a (vanishingly unlikely) colliding corruption cannot crash
   the parse. *)
let decode_payload key payload =
  match String.index_opt payload '\n' with
  | None -> None
  | Some i1 -> (
      let stored_key = String.sub payload 0 i1 in
      if stored_key <> key then None
      else
        match String.index_from_opt payload (i1 + 1) '\n' with
        | None -> None
        | Some i2 -> (
            match int_of_string_opt (String.sub payload (i1 + 1) (i2 - i1 - 1)) with
            | None -> None
            | Some tier -> (
                if i2 + 2 >= String.length payload || payload.[i2 + 2] <> '\n' then None
                else
                  let tag = payload.[i2 + 1] in
                  match String.index_from_opt payload (i2 + 3) '\n' with
                  | None -> None
                  | Some i3 -> (
                      match int_of_string_opt (String.sub payload (i2 + 3) (i3 - i2 - 3)) with
                      | None -> None
                      | Some len ->
                          if String.length payload - i3 - 1 <> len then None
                          else
                            let msg = String.sub payload (i3 + 1) len in
                            Option.map
                              (fun v -> { e_tier = tier; e_verdict = v })
                              (verdict_of_tag tag msg)))))

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      let contents =
        match really_input_string ic (in_channel_length ic) with
        | s -> Some s
        | exception (End_of_file | Sys_error _) -> None
      in
      close_in_noerr ic;
      contents

(* A disk entry is trusted only after three independent checks: the magic
   line, the payload length, and the MD5 checksum over the payload.  Any
   mismatch — truncation, bit flips, a foreign file — is a miss. *)
let disk_read t key =
  match t.dir with
  | None -> None
  | Some dir -> (
      let path = file_of_key dir key in
      if not (Sys.file_exists path) then None
      else
        let corrupt () =
          t.corrupt <- t.corrupt + 1;
          Dml_obs.Metrics.incr m_corrupt;
          (* quarantine: move the damaged file out of the entry namespace so
             the next lookup is a clean miss instead of re-validating it, and
             so the bytes stay inspectable until the eviction sweep reclaims
             them.  Best-effort: a concurrent writer may have just replaced
             the file, in which case the rename moves (or misses) the
             replacement — either way the store stays consistent because
             every read is validated. *)
          (match Sys.rename path (path ^ ".bad") with
          | () ->
              t.quarantined <- t.quarantined + 1;
              Dml_obs.Metrics.incr m_quarantined
          | exception Sys_error _ -> ());
          None
        in
        match read_file path with
        | None -> corrupt ()
        | Some contents -> (
            match String.index_opt contents '\n' with
            | None -> corrupt ()
            | Some i1 -> (
                if String.sub contents 0 i1 <> magic then corrupt ()
                else
                  match String.index_from_opt contents (i1 + 1) '\n' with
                  | None -> corrupt ()
                  | Some i2 -> (
                      let checksum = String.sub contents (i1 + 1) (i2 - i1 - 1) in
                      match String.index_from_opt contents (i2 + 1) '\n' with
                      | None -> corrupt ()
                      | Some i3 -> (
                          match
                            int_of_string_opt (String.sub contents (i2 + 1) (i3 - i2 - 1))
                          with
                          | None -> corrupt ()
                          | Some len ->
                              if String.length contents - i3 - 1 <> len then corrupt ()
                              else
                                let payload = String.sub contents (i3 + 1) len in
                                if Digest.to_hex (Digest.string payload) <> checksum then
                                  corrupt ()
                                else
                                  (match decode_payload key payload with
                                  | None -> corrupt ()
                                  | Some e -> Some e))))))

(* Test-only fault injection: called with the open temp-file channel before
   the entry is written, so the error path of [disk_write] can be exercised
   deterministically. *)
let write_fault_injection : (out_channel -> unit) ref = ref (fun _ -> ())

(* Temp-file suffix uniqueness needs more than the pid: threads or tasks of
   one process writing the same key concurrently would collide on a pid-only
   name, one of them renaming the other's half-written file into place.  A
   monotonic per-process counter keeps every in-flight temp name distinct
   (worker processes of the parallel pool are already distinct by pid). *)
let tmp_seq = ref 0

(* ------------------------------------------------------------------ *)
(* Disk eviction sweep                                                 *)
(* ------------------------------------------------------------------ *)

(* Temp files left by a writer that died mid-write are reclaimed once they
   are unambiguously stale; live writers rename within milliseconds. *)
let stale_tmp_age_s = 600.
let sweep_write_period = 32

(* Bring the persistent directory back under the byte/entry caps by
   deleting the oldest cache-owned files first (entries and quarantined
   [.bad] files both count — quarantine must not grow unbounded either).
   Concurrent sweepers are safe: deletion is best-effort per file, and a
   file that a concurrent writer just replaced simply costs one re-solve.
   Caps of [<= 0] mean unbounded. *)
let sweep t =
  match t.dir with
  | None -> ()
  | Some dir -> (
      match Sys.readdir dir with
      | exception Sys_error _ -> ()
      | names ->
          let now = Unix.gettimeofday () in
          let files = ref [] in
          Array.iter
            (fun name ->
              let path = Filename.concat dir name in
              let is_tmp =
                (* "<digest>.dmlv.tmp.<pid>.<seq>": an in-flight or orphaned
                   atomic-write staging file *)
                let rec find i =
                  i + 10 <= String.length name
                  && (String.sub name i 10 = ".dmlv.tmp." || find (i + 1))
                in
                find 0
              in
              match Unix.stat path with
              | exception Unix.Unix_error _ -> ()
              | st ->
                  if st.Unix.st_kind <> Unix.S_REG then ()
                  else if is_tmp then begin
                    if now -. st.Unix.st_mtime > stale_tmp_age_s then
                      try Sys.remove path with Sys_error _ -> ()
                  end
                  else if
                    Filename.check_suffix name ".dmlv"
                    || Filename.check_suffix name ".dmlv.bad"
                  then
                    files := (st.Unix.st_mtime, name, path, st.Unix.st_size) :: !files)
            names;
          let files =
            List.sort
              (fun (ma, na, _, _) (mb, nb, _, _) ->
                match compare (ma : float) mb with 0 -> compare na nb | c -> c)
              !files
          in
          let total_bytes = ref (List.fold_left (fun a (_, _, _, s) -> a + s) 0 files) in
          let total_files = ref (List.length files) in
          let over () =
            (t.max_disk_entries > 0 && !total_files > t.max_disk_entries)
            || (t.max_disk_bytes > 0 && !total_bytes > t.max_disk_bytes)
          in
          List.iter
            (fun (_, _, path, size) ->
              if over () then
                match Sys.remove path with
                | () ->
                    total_bytes := !total_bytes - size;
                    decr total_files;
                    t.disk_evictions <- t.disk_evictions + 1;
                    Dml_obs.Metrics.incr m_disk_evictions
                | exception Sys_error _ -> ())
            files)

(* Best-effort atomic write: a unique temp file in the same directory, then
   rename.  Any filesystem error leaves the cache functional (memo-only).
   The channel is closed on every path — including a failing write — before
   the temp file is unlinked. *)
let disk_write t key entry =
  match t.dir with
  | None -> ()
  | Some dir -> (
      let path = file_of_key dir key in
      incr tmp_seq;
      let tmp = Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) !tmp_seq in
      (match open_out_bin tmp with
      | exception Sys_error _ -> ()
      | oc -> (
          match
            !write_fault_injection oc;
            output_string oc (encode key entry);
            close_out oc
          with
          | () -> (
              try Sys.rename tmp path
              with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ()))
          | exception Sys_error _ ->
              close_out_noerr oc;
              (try Sys.remove tmp with Sys_error _ -> ())));
      if t.max_disk_bytes > 0 || t.max_disk_entries > 0 then begin
        t.writes_since_sweep <- t.writes_since_sweep + 1;
        if t.writes_since_sweep >= sweep_write_period then begin
          t.writes_since_sweep <- 0;
          sweep t
        end
      end)

(* ------------------------------------------------------------------ *)
(* Public interface                                                    *)
(* ------------------------------------------------------------------ *)

let memo_capacity = 4096

(* generous but finite: a shared --cache-dir serving a farm of dmld workers
   must not grow without bound *)
let disk_byte_cap = 64 * 1024 * 1024
let disk_entry_cap = 100_000

let create ?(max_entries = memo_capacity) ?dir ?(max_disk_bytes = disk_byte_cap)
    ?(max_disk_entries = disk_entry_cap) () =
  let dir =
    match dir with
    | None -> None
    | Some d -> (
        match mkdir_p d with
        | () -> if Sys.is_directory d then Some d else None
        | exception (Unix.Unix_error _ | Sys_error _) -> None)
  in
  let t =
    {
      memo = Lru.create max_entries;
      dir;
      max_disk_bytes;
      max_disk_entries;
      corrupt = 0;
      quarantined = 0;
      disk_evictions = 0;
      writes_since_sweep = 0;
      persist_time = 0.;
    }
  in
  (* a directory inherited over the caps (say, from a run with larger ones)
     is brought back under them before first use *)
  if max_disk_bytes > 0 || max_disk_entries > 0 then sweep t;
  t

let size t = Lru.length t.memo
let evictions t = Lru.evictions t.memo
let corrupt_entries t = t.corrupt
let quarantined t = t.quarantined
let disk_evictions t = t.disk_evictions
let persist_time t = t.persist_time

let disk_file t key = Option.map (fun dir -> file_of_key dir key) t.dir

let insert_memo t key entry =
  let before = Lru.evictions t.memo in
  Lru.add t.memo key entry;
  Dml_obs.Metrics.incr ~by:(Lru.evictions t.memo - before) m_evictions

let peek t key = Lru.peek t.memo key

let find t key =
  match Lru.find t.memo key with
  | Some e -> Some (e, `Mem)
  | None -> (
      match t.dir with
      | None -> None
      | Some _ -> (
          let t0 = Dml_obs.Clock.now () in
          Dml_obs.Metrics.incr m_disk_reads;
          let r = disk_read t key in
          t.persist_time <- t.persist_time +. (Dml_obs.Clock.now () -. t0);
          match r with
          | None -> None
          | Some e ->
              insert_memo t key e;
              Some (e, `Disk)))

let add t key entry =
  insert_memo t key entry;
  if t.dir <> None then begin
    let t0 = Dml_obs.Clock.now () in
    Dml_obs.Metrics.incr m_disk_writes;
    disk_write t key entry;
    t.persist_time <- t.persist_time +. (Dml_obs.Clock.now () -. t0)
  end
