(** Length-prefixed frames: the one codec under the worker pools and the
    [dmld] wire protocol.

    Every frame is an 8-byte big-endian payload length followed by the
    payload.  The length prefix lets a reader distinguish a clean shutdown
    (EOF on a frame boundary) from a crash mid-frame, which is what turns a
    dead worker into an isolated per-task error instead of a wedged pool.
    One encoder ({!encode}) and one decoder ({!decode}) carry every frame;
    the blocking readers and writers below are built on them, and the
    server's non-blocking socket loop uses the same pair itself. *)

val encode : string -> string
(** The complete frame (header and payload) carrying the given bytes. *)

val write : Unix.file_descr -> 'a -> unit
(** Marshal [v] and write one frame, looping over partial writes and
    retrying [EINTR].  Raises [Unix.Unix_error] — notably [EPIPE] when the
    peer died — which the pool maps to a task-level error. *)

val write_raw : Unix.file_descr -> string -> unit
(** Write one frame whose payload is the given bytes verbatim — the [dmld]
    protocol's UTF-8 JSON, which stays language-neutral. *)

type decoder
(** An incremental decoder: a byte buffer that frames are consumed from by
    offset. *)

val decoder : unit -> decoder

val input : decoder -> Unix.file_descr -> int -> int
(** One [Unix.read] of at most [n] bytes into the decoder's buffer; returns
    the count read (0 at end of stream).  [Unix.Unix_error] — [EAGAIN] on a
    non-blocking descriptor, [EINTR] — propagates to the caller. *)

val decode :
  ?max:int -> decoder -> [ `Frame of string | `Need of int | `Oversized of int ]
(** Consume the next complete frame and return its payload, or report that
    [n] more bytes are needed before anything can be decided, or that the
    buffered header announces a length outside [[0, max]] (default 256 MiB,
    a sanity cap: a larger header is stream corruption, not an allocation
    request; a length too large for an [int] is reported as
    [max_int]).  An out-of-range header is never consumed: the stream
    cannot be resynchronized past it. *)

val read_raw :
  ?max:int -> Unix.file_descr -> (string, [ `Eof | `Oversized of int | `Error of string ]) result
(** Read one frame, blocking, and return its payload.  [`Eof] only on
    end-of-stream at a frame boundary; a stream that ends inside a frame is
    [`Error].  A header outside [[0, max]] is [`Oversized len] — the
    distinguished rejection the server answers before closing the
    connection.  Reads exactly the frame's bytes, never past them. *)

val read : Unix.file_descr -> ('a, [ `Eof | `Error of string ]) result
(** {!read_raw} at the default 256 MiB cap, then unmarshal; an out-of-range
    header or an unmarshalling failure is [`Error].  The ['a] is whatever
    the writer marshalled — the caller must know the protocol; a type
    mismatch is undefined behaviour exactly as with [Marshal]. *)
