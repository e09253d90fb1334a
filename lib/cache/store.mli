(** The verdict store: an in-process memo table with LRU eviction, backed
    by an optional persistent on-disk layer.

    The store is policy-free: it maps a string key (digest + method, built
    by {!Cache}) to the last recorded {!entry} and reports where a lookup
    was satisfied.  Budget-tier reuse rules live in {!Cache}.

    Disk entries are self-checking: every file carries a length and an MD5
    checksum over its payload, and a corrupt, truncated or foreign file is
    reported as [None] (never an exception), so a damaged cache directory
    degrades to a cold cache rather than a crash. *)

type verdict =
  | Valid
  | Not_valid of string
  | Unsupported of string
  | Timeout of string
(** A solver verdict; the solver's own type ({!Dml_solver.Solver.verdict}
    re-exports this one and documents the constructors). *)

type entry = { e_tier : int; e_verdict : verdict }

type t

val memo_capacity : int
(** Default capacity of the in-memory table: 4096 entries. *)

val disk_byte_cap : int
(** Default byte cap on the persistent directory: 64 MiB. *)

val disk_entry_cap : int
(** Default file-count cap on the persistent directory: 100k files. *)

val create :
  ?max_entries:int ->
  ?dir:string ->
  ?max_disk_bytes:int ->
  ?max_disk_entries:int ->
  unit ->
  t
(** [max_entries] bounds the in-memory table (default {!memo_capacity};
    [<= 0] means unbounded).  [dir] enables the persistent layer; it is
    created when missing.  A directory that cannot be created or written
    disables persistence silently (the memo table still works).

    [max_disk_bytes]/[max_disk_entries] cap the persistent directory
    (defaults {!disk_byte_cap}/{!disk_entry_cap}; [<= 0] unbounded): when
    either cap is exceeded, {!sweep} deletes the oldest cache-owned files
    first.  With a cap set, a sweep runs at [create] and then every 32
    disk writes.  {!Cache} always uses the
    defaults; the overrides exist for the sweep tests. *)

val find : t -> string -> (entry * [ `Mem | `Disk ]) option
(** Memo-table lookup first, then the persistent layer; a disk hit is
    promoted into the memo table. *)

val peek : t -> string -> entry option
(** Memo-table lookup only: no disk access and no recency update.  Used by
    {!Cache.add} to decide overwrites without paying a second disk read. *)

val add : t -> string -> entry -> unit
(** Insert or overwrite, evicting the least-recently-used entry past
    [max_entries]; with a persistent layer the entry is also written to
    disk (atomically: temp file + rename). *)

val size : t -> int
(** Entries currently in the memo table. *)

val evictions : t -> int
(** LRU evictions performed since [create]. *)

val corrupt_entries : t -> int
(** Disk entries rejected by the length/checksum validation and treated as
    misses. *)

val quarantined : t -> int
(** Of the corrupt entries, how many were successfully renamed aside (to
    [<file>.bad]) so subsequent lookups miss cleanly; the sweep reclaims
    quarantined files along with ordinary entries. *)

val disk_evictions : t -> int
(** Files deleted by the capacity sweep since [create]. *)

val sweep : t -> unit
(** Force a capacity sweep of the persistent directory now: delete the
    oldest cache-owned files ([*.dmlv] entries and [*.dmlv.bad] quarantine
    files, by mtime then name) until both caps hold, and reclaim staging
    temp files older than {!stale_tmp_age_s}.  A no-op without a persistent
    layer.  Safe under concurrent readers, writers and sweepers: every
    deletion is best-effort and every read re-validates. *)

val stale_tmp_age_s : float
(** Age past which an orphaned [*.dmlv.tmp.*] staging file (a writer died
    mid-write) is deleted by the sweep. *)

val persist_time : t -> float
(** Wall-clock seconds spent reading and writing the persistent layer. *)

val disk_file : t -> string -> string option
(** The path a key persists to ([None] without a persistent layer); used by
    the corruption tests. *)

val write_fault_injection : (out_channel -> unit) ref
(** Test-only hook, called with the open temp-file channel before a
    persistent write.  Raising [Sys_error] from it exercises the write
    failure path, which must close the channel and remove the temp file.
    Reset it to [fun _ -> ()] after use. *)
