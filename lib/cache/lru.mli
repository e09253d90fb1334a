(** A bounded table that evicts its least recently used entry: a hash
    table plus a doubly-linked recency list, every operation O(1).  The
    verdict cache's memo, the [dmld] response memo and the
    incremental checker's unit store are all one of these. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create capacity]; a capacity [<= 0] means unbounded. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit becomes the most recently used entry. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Lookup without a recency update. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or overwrite, making the entry the most recently used; a new
    key past the capacity evicts the least recently used entry. *)

val trim : ('k, 'v) t -> int -> unit
(** [trim t n] evicts least recently used entries until at most [n]
    remain, whatever the capacity. *)

val length : ('k, 'v) t -> int

val evictions : ('k, 'v) t -> int
(** Entries evicted since [create]. *)
