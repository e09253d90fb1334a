type verdict = Valid | Not_valid of string | Unsupported of string | Timeout of string

type config = { dir : string option }

let default_config = { dir = None }

type snapshot = {
  s_hits : int;
  s_disk_hits : int;
  s_misses : int;
  s_stores : int;
  s_evictions : int;
  s_corrupt : int;
  s_entries : int;
  s_lookup_time : float;
  s_persist_time : float;
}

type entry = { tier : int; verdict : verdict }

(* The persistent layer: one append-only file per directory.  Each record
   is a newline, the MD5 of its payload in hex, a space, the payload's
   length, a space and the payload; a payload holds no newline, so the
   newline that opens a record is where a reader resynchronises after
   damage.  [index] maps each key to the entry of its latest record, so a
   disk hit reads nothing; it holds at most what the log holds, which
   [log_cap] bounds.  [scanned] is how far the file has been read, and a
   tail record still being written is left unread from there. *)
type log = {
  path : string;
  index : (string, entry) Hashtbl.t;
  mutable scanned : int;
}

type t = {
  memo : (string, entry) Lru.t;
  log : log option;
  mutable hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable corrupt : int;
  mutable lookup_time : float;
  mutable persist_time : float;
}

let memo_capacity = 4096
let log_cap = 8 * 1024 * 1024
let log_name = "verdicts.log"

(* [Unix.single_write] writes at most its 64 KiB buffer in one call: a
   longer record could not be appended whole, so it stays in memory. *)
let max_record = 65536

(* process-wide registry mirrors of the per-cache counters *)
let m_lookups = Dml_obs.Metrics.counter "cache.lookups"
let m_hits = Dml_obs.Metrics.counter "cache.hits"
let m_disk_hits = Dml_obs.Metrics.counter "cache.disk_hits"
let m_misses = Dml_obs.Metrics.counter "cache.misses"
let m_stores = Dml_obs.Metrics.counter "cache.stores"
let m_evictions = Dml_obs.Metrics.counter "cache.evictions"
let m_corrupt = Dml_obs.Metrics.counter "cache.corrupt"

(* ------------------------------------------------------------------ *)
(* Records                                                             *)
(* ------------------------------------------------------------------ *)

let tag = function Valid -> "V" | Not_valid _ -> "N" | Unsupported _ -> "U" | Timeout _ -> "T"
let message = function Valid -> "" | Not_valid m | Unsupported m | Timeout m -> m

let of_tag tag msg =
  match tag with
  | "V" -> Some Valid
  | "N" -> Some (Not_valid msg)
  | "U" -> Some (Unsupported msg)
  | "T" -> Some (Timeout msg)
  | _ -> None

(* A field holds no tab and no newline: they, and the backslash, are
   escaped. *)
let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '\t' -> Buffer.add_string b "\\t"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let unescape s =
  let n = String.length s in
  let b = Buffer.create n in
  let rec go i =
    if i = n then Some (Buffer.contents b)
    else if s.[i] <> '\\' then begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
    else
      match if i + 1 < n then s.[i + 1] else ' ' with
      | ('\\' | 't' | 'n') as c ->
          Buffer.add_char b (match c with 't' -> '\t' | 'n' -> '\n' | c -> c);
          go (i + 2)
      | _ -> None
  in
  go 0

let encode key e =
  let payload =
    String.concat "\t"
      [ string_of_int e.tier; tag e.verdict; escape key; escape (message e.verdict) ]
  in
  Printf.sprintf "\n%s %d %s" (Digest.to_hex (Digest.string payload)) (String.length payload) payload

let decode_payload p =
  match String.split_on_char '\t' p with
  | [ tier; tag; key; msg ] -> (
      match (int_of_string_opt tier, unescape key, unescape msg) with
      | Some tier, Some key, Some msg ->
          Option.map (fun verdict -> (key, { tier; verdict })) (of_tag tag msg)
      | _ -> None)
  | _ -> None

type parsed =
  | Record of string * entry * int  (** key, entry, offset just past the record *)
  | Partial  (** a well-formed prefix at the end of the bytes read *)
  | Bad

(* The record that starts at [i] in [buf].  A record that runs past the end
   of [buf] is [Partial] only if no newline follows: appends are whole, so
   a record with a later one behind it is complete or damaged. *)
let parse buf i =
  let n = String.length buf in
  let short () = if String.contains_from buf (i + 1) '\n' then Bad else Partial in
  if i >= n || buf.[i] <> '\n' then Bad
  else if i + 34 > n then short ()
  else if buf.[i + 33] <> ' ' then Bad
  else
    match String.index_from_opt buf (i + 34) ' ' with
    | None -> short ()
    | Some j -> (
        match int_of_string_opt (String.sub buf (i + 34) (j - i - 34)) with
        | None -> Bad
        | Some len when len < 0 || len >= max_record -> Bad
        | Some len -> (
            let stop = j + 1 + len in
            if stop > n then short ()
            else
              let payload = String.sub buf (j + 1) len in
              if Digest.to_hex (Digest.string payload) <> String.sub buf (i + 1) 32 then Bad
              else
                match decode_payload payload with
                | Some (key, e) -> Record (key, e, stop)
                | None -> Bad))

(* ------------------------------------------------------------------ *)
(* The log                                                             *)
(* ------------------------------------------------------------------ *)

let reset log =
  Hashtbl.reset log.index;
  log.scanned <- 0

(* Index the records appended since the last scan.  Damage costs the
   damaged bytes only: parsing resumes at the next newline. *)
let scan t log buf =
  let n = String.length buf in
  let rec go i =
    if i >= n then n
    else if i + 1 < n && buf.[i] = '\n' && buf.[i + 1] = '\n' then go (i + 1) (* an empty line *)
    else
      match parse buf i with
      | Record (key, e, stop) ->
          Hashtbl.replace log.index key e;
          go stop
      | Partial -> i
      | Bad ->
          t.corrupt <- t.corrupt + 1;
          Dml_obs.Metrics.incr m_corrupt;
          go (Option.value ~default:n (String.index_from_opt buf (i + 1) '\n'))
  in
  let stop = go 0 in
  log.scanned <- log.scanned + stop

(* Read what other processes appended.  A log shorter than what was
   scanned was started over: its old offsets mean nothing now. *)
let refresh t log =
  match (Unix.stat log.path).Unix.st_size with
  | exception Unix.Unix_error _ -> ()
  | size when size = log.scanned -> ()
  | size -> (
      if size < log.scanned then reset log;
      match
        In_channel.with_open_bin log.path (fun ic ->
            In_channel.seek ic (Int64.of_int log.scanned);
            In_channel.input_all ic)
      with
      | buf -> scan t log buf
      | exception Sys_error _ -> ())

(* Test-only seam, called with the open descriptor before each append:
   raising from it exercises the failure path, which must close the
   descriptor and leave the cache working from memory. *)
let write_fault_injection : (Unix.file_descr -> unit) ref = ref ignore

(* One [write] per record on an [O_APPEND] descriptor, so concurrent
   writers interleave whole records.  When nobody else appended since the
   last scan, the new record is indexed without reading it back.  The
   append that takes the log past [log_cap] starts it over. *)
let append log key e =
  let r = encode key e in
  let len = String.length r in
  if len < max_record then
    match Unix.openfile log.path [ O_WRONLY; O_APPEND; O_CREAT; O_CLOEXEC ] 0o644 with
    | exception Unix.Unix_error _ -> ()
    | fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            try
              !write_fault_injection fd;
              let written = Unix.single_write_substring fd r 0 len in
              let stop = Unix.lseek fd 0 Unix.SEEK_CUR in
              if stop > log_cap then begin
                Unix.ftruncate fd 0;
                reset log
              end
              else if written = len && stop - len = log.scanned then begin
                Hashtbl.replace log.index key e;
                log.scanned <- stop
              end
            with Unix.Unix_error _ | Sys_error _ -> ())

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A directory that cannot be created leaves the cache memory-only.  A log
   found over the cap starts over. *)
let open_log dir =
  match
    mkdir_p dir;
    Sys.is_directory dir
  with
  | exception (Unix.Unix_error _ | Sys_error _) -> None
  | false -> None
  | true ->
      let path = Filename.concat dir log_name in
      (match (Unix.stat path).Unix.st_size with
      | size when size > log_cap -> ( try Unix.truncate path 0 with Unix.Unix_error _ -> ())
      | _ | (exception Unix.Unix_error _) -> ());
      Some { path; index = Hashtbl.create 256; scanned = 0 }

(* ------------------------------------------------------------------ *)
(* The cache                                                           *)
(* ------------------------------------------------------------------ *)

let timed t f =
  let t0 = Dml_obs.Clock.now () in
  let r = f () in
  t.persist_time <- t.persist_time +. (Dml_obs.Clock.now () -. t0);
  r

let create ?(config = default_config) () =
  let t =
    {
      memo = Lru.create memo_capacity;
      log = Option.bind config.dir open_log;
      hits = 0;
      disk_hits = 0;
      misses = 0;
      stores = 0;
      corrupt = 0;
      lookup_time = 0.;
      persist_time = 0.;
    }
  in
  Option.iter (fun log -> timed t (fun () -> refresh t log)) t.log;
  t

let key ~digest ~method_ = digest ^ ":" ^ method_

let definitive = function Valid | Not_valid _ -> true | Unsupported _ | Timeout _ -> false

let remember t key e =
  let before = Lru.evictions t.memo in
  Lru.add t.memo key e;
  Dml_obs.Metrics.incr ~by:(Lru.evictions t.memo - before) m_evictions

(* The memo first, then the log; a miss in the index first reads what other
   processes appended.  A disk hit is promoted into the memo. *)
let lookup t key =
  match Lru.find t.memo key with
  | Some e -> Some (e, false)
  | None ->
      Option.bind t.log (fun log ->
          timed t (fun () ->
              if not (Hashtbl.mem log.index key) then refresh t log;
              Hashtbl.find_opt log.index key)
          |> Option.map (fun e ->
                 remember t key e;
                 (e, true)))

let find t ~digest ~method_ ~tier =
  let t0 = Dml_obs.Clock.now () in
  Dml_obs.Metrics.incr m_lookups;
  let result =
    match lookup t (key ~digest ~method_) with
    (* a definitive verdict is budget-independent; a circumstantial one
       only tells us what happens with at most the cached resources *)
    | Some (e, from_disk) when definitive e.verdict || tier <= e.tier ->
        if from_disk then begin
          t.disk_hits <- t.disk_hits + 1;
          Dml_obs.Metrics.incr m_disk_hits
        end;
        Some e.verdict
    | _ -> None
  in
  t.lookup_time <- t.lookup_time +. (Dml_obs.Clock.now () -. t0);
  (match result with
  | None ->
      t.misses <- t.misses + 1;
      Dml_obs.Metrics.incr m_misses
  | Some _ ->
      t.hits <- t.hits + 1;
      Dml_obs.Metrics.incr m_hits);
  result

let add t ~digest ~method_ ~tier verdict =
  let k = key ~digest ~method_ in
  let keep_existing =
    match Lru.peek t.memo k with
    | None -> false
    | Some e ->
        (* never downgrade: a definitive verdict survives circumstantial
           ones, and among circumstantial verdicts the larger budget wins *)
        (definitive e.verdict && not (definitive verdict))
        || ((not (definitive e.verdict)) && (not (definitive verdict)) && e.tier >= tier)
  in
  if not keep_existing then begin
    let e = { tier; verdict } in
    remember t k e;
    Option.iter (fun log -> timed t (fun () -> append log k e)) t.log;
    t.stores <- t.stores + 1;
    Dml_obs.Metrics.incr m_stores
  end

let snapshot t =
  {
    s_hits = t.hits;
    s_disk_hits = t.disk_hits;
    s_misses = t.misses;
    s_stores = t.stores;
    s_evictions = Lru.evictions t.memo;
    s_corrupt = t.corrupt;
    s_entries = Lru.length t.memo;
    s_lookup_time = t.lookup_time;
    s_persist_time = t.persist_time;
  }

let diff later earlier =
  {
    s_hits = later.s_hits - earlier.s_hits;
    s_disk_hits = later.s_disk_hits - earlier.s_disk_hits;
    s_misses = later.s_misses - earlier.s_misses;
    s_stores = later.s_stores - earlier.s_stores;
    s_evictions = later.s_evictions - earlier.s_evictions;
    s_corrupt = later.s_corrupt - earlier.s_corrupt;
    s_entries = later.s_entries;
    s_lookup_time = later.s_lookup_time -. earlier.s_lookup_time;
    s_persist_time = later.s_persist_time -. earlier.s_persist_time;
  }

let pp_snapshot fmt s =
  Format.fprintf fmt
    "hits: %d (%d from disk), misses: %d, stores: %d, evictions: %d, entries: %d%s, lookup: \
     %.4fs, persist: %.4fs"
    s.s_hits s.s_disk_hits s.s_misses s.s_stores s.s_evictions s.s_entries
    (if s.s_corrupt > 0 then Printf.sprintf ", corrupt: %d" s.s_corrupt else "")
    s.s_lookup_time s.s_persist_time

let snapshot_to_json s =
  Dml_obs.Json.Obj
    [
      ("hits", Dml_obs.Json.Int s.s_hits);
      ("disk_hits", Dml_obs.Json.Int s.s_disk_hits);
      ("misses", Dml_obs.Json.Int s.s_misses);
      ("stores", Dml_obs.Json.Int s.s_stores);
      ("evictions", Dml_obs.Json.Int s.s_evictions);
      ("corrupt", Dml_obs.Json.Int s.s_corrupt);
      ("entries", Dml_obs.Json.Int s.s_entries);
      ("lookup_s", Dml_obs.Json.Float s.s_lookup_time);
      ("persist_s", Dml_obs.Json.Float s.s_persist_time);
    ]

let config_to_json c =
  Dml_obs.Json.Obj
    [ ("dir", match c.dir with None -> Dml_obs.Json.Null | Some d -> Dml_obs.Json.String d) ]

let digest_goal = Canon.digest
