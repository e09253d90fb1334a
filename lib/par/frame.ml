(* 8-byte big-endian length header + payload.  The header is fixed width
   (not a varint) so a reader can always classify a short read: fewer than
   8 bytes at offset 0 is clean EOF or truncation, anything after that is
   truncation.  Two payload encodings share the discipline: [Marshal]
   ([write]/[read], the worker pool) and verbatim bytes
   ([write_raw]/[read_raw], the server's JSON protocol). *)

let header_len = 8

(* 256 MiB.  Far above any real task or reply in this code base; small
   enough that a corrupt header cannot trigger a giant allocation. *)
let max_frame = 256 * 1024 * 1024

let encode payload =
  let n = String.length payload in
  let frame = Bytes.create (header_len + n) in
  Bytes.set_int64_be frame 0 (Int64.of_int n);
  Bytes.blit_string payload 0 frame header_len n;
  Bytes.unsafe_to_string frame

let rec write_all fd s ofs len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s ofs len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (ofs + n) (len - n)
  end

let write_raw fd payload =
  let frame = encode payload in
  write_all fd frame 0 (String.length frame)

let write fd v = write_raw fd (Marshal.to_string v [])

(* The unconsumed bytes are [buf.[pos] .. buf.[stop - 1]].  Consuming a
   frame only advances [pos]; the tail slides to the front when [input]
   needs room, so a burst of frames costs one copy per read, not one per
   frame. *)
type decoder = { mutable buf : Bytes.t; mutable pos : int; mutable stop : int }

let decoder () = { buf = Bytes.empty; pos = 0; stop = 0 }

let input d fd n =
  if d.stop + n > Bytes.length d.buf then begin
    let live = d.stop - d.pos in
    let buf =
      if live + n > Bytes.length d.buf then
        Bytes.create (max (live + n) (2 * Bytes.length d.buf))
      else d.buf
    in
    Bytes.blit d.buf d.pos buf 0 live;
    d.buf <- buf;
    d.pos <- 0;
    d.stop <- live
  end;
  let got = Unix.read fd d.buf d.stop n in
  d.stop <- d.stop + got;
  got

let decode ?(max = max_frame) d =
  let avail = d.stop - d.pos in
  if avail < header_len then `Need (header_len - avail)
  else
    let len64 = Bytes.get_int64_be d.buf d.pos in
    if Int64.compare len64 0L < 0 || Int64.compare len64 (Int64.of_int max) > 0 then
      `Oversized
        (if Int64.compare len64 (Int64.of_int max_int) > 0 then max_int else Int64.to_int len64)
    else
      let len = Int64.to_int len64 in
      if avail < header_len + len then `Need (header_len + len - avail)
      else begin
        let payload = Bytes.sub_string d.buf (d.pos + header_len) len in
        d.pos <- d.pos + header_len + len;
        if d.pos = d.stop then begin
          d.pos <- 0;
          d.stop <- 0
        end;
        `Frame payload
      end

(* The blocking reader reads exactly the bytes the decoder still needs, so
   it never consumes past the end of its frame: the next [read_raw] on the
   same descriptor starts on a frame boundary. *)
let read_raw ?max fd =
  let d = decoder () in
  let rec go () =
    match decode ?max d with
    | `Frame payload -> Ok payload
    | `Oversized n -> Error (`Oversized n)
    | `Need k -> (
        match input d fd k with
        | 0 when d.stop = 0 -> Error `Eof
        | 0 ->
            Error
              (`Error
                (Printf.sprintf "truncated frame (%d bytes read, %d more expected)" d.stop k))
        | _ -> go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let read fd =
  match read_raw fd with
  | Ok payload -> (
      match Marshal.from_string payload 0 with
      | v -> Ok v
      | exception Failure msg -> Error (`Error ("unmarshal failure: " ^ msg)))
  | Error (`Oversized n) -> Error (`Error (Printf.sprintf "corrupt frame header (length %d)" n))
  | Error (`Eof | `Error _) as e -> e
