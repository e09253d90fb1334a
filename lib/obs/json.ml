type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* printing                                                            *)
(* ------------------------------------------------------------------ *)

(* Runs of characters that need no escape go into the buffer in one step. *)
let escape_to buf s =
  Buffer.add_char buf '"';
  let run = ref 0 in
  let flush i = if i > !run then Buffer.add_substring buf s !run (i - !run) in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | ('"' | '\\') as c ->
        flush i;
        Buffer.add_char buf '\\';
        Buffer.add_char buf c;
        run := i + 1
    | '\000' .. '\031' as c ->
        flush i;
        (match c with
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c ->
            Buffer.add_string buf "\\u00";
            Buffer.add_char buf "0123456789abcdef".[Char.code c lsr 4];
            Buffer.add_char buf "0123456789abcdef".[Char.code c land 15]);
        run := i + 1
    | _ -> ()
  done;
  flush (String.length s);
  Buffer.add_char buf '"'

(* [Printf]'s ["%.12g"] and friends end in this primitive; calling it
   directly skips parsing the format on every float. *)
external format_float : string -> float -> string = "caml_format_float"

(* Whether [s17], a ["%.17g"] rendering, shows a value too far from every
   12-significant-digit decimal for ["%.12g"] to round-trip.  A value that
   round-trips through 12 digits lies within half an ulp of that decimal,
   and half an ulp is at most 11.1 units of the 17th significant digit
   (a double carries 52 fraction bits, and the leading digit is at most 9);
   so digits 13 to 17 further than 20 units from 00000 and from 100000
   rule it out.  Only for normal values: a subnormal's ulp is far
   coarser. *)
let needs_17_digits s17 =
  let n = String.length s17 in
  let i = ref 0 and sig_digits = ref 0 and tail = ref 0 in
  while !i < n && String.unsafe_get s17 !i <> 'e' do
    (match String.unsafe_get s17 !i with
    | '0' when !sig_digits = 0 -> ()
    | '0' .. '9' as c ->
        incr sig_digits;
        if !sig_digits > 12 then tail := (!tail * 10) + Char.code c - Char.code '0'
    | _ -> ());
    incr i
  done;
  if !sig_digits <= 12 then false
  else begin
    for _ = !sig_digits + 1 to 17 do
      tail := !tail * 10
    done;
    !tail > 20 && !tail < 100_000 - 20
  end

(* A float must stay a float across a round trip: keep a fraction or an
   exponent in the rendering, and print enough digits to reconstruct the
   exact value (wall-clock timestamps need more than %g's default six):
   the ["%.12g"] form when it round-trips, else ["%.17g"].  Non-finite
   values have no JSON form. *)
let float_to buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (format_float "%.1f" f)
  else
    let s17 = format_float "%.17g" f in
    if Float.abs f >= Float.min_float && needs_17_digits s17 then Buffer.add_string buf s17
    else
      let s12 = format_float "%.12g" f in
      Buffer.add_string buf (if float_of_string s12 = f then s12 else s17)

let newline buf indent level =
  if indent then begin
    Buffer.add_char buf '\n';
    for _ = 1 to 2 * level do
      Buffer.add_char buf ' '
    done
  end

let rec write indent level buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> float_to buf f
  | String s -> escape_to buf s
  | List [] -> Buffer.add_string buf "[]"
  | List (item :: items) ->
      Buffer.add_char buf '[';
      newline buf indent (level + 1);
      write indent (level + 1) buf item;
      write_items indent (level + 1) buf items;
      newline buf indent level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (kv :: kvs) ->
      Buffer.add_char buf '{';
      write_field indent (level + 1) buf kv;
      write_fields indent (level + 1) buf kvs;
      newline buf indent level;
      Buffer.add_char buf '}'

and write_items indent level buf = function
  | [] -> ()
  | item :: items ->
      Buffer.add_char buf ',';
      newline buf indent level;
      write indent level buf item;
      write_items indent level buf items

and write_field indent level buf (k, v) =
  newline buf indent level;
  escape_to buf k;
  Buffer.add_char buf ':';
  if indent then Buffer.add_char buf ' ';
  write indent level buf v

and write_fields indent level buf = function
  | [] -> ()
  | kv :: kvs ->
      Buffer.add_char buf ',';
      write_field indent level buf kv;
      write_fields indent level buf kvs

let render ~indent v =
  let buf = Buffer.create 256 in
  write indent 0 buf v;
  Buffer.contents buf

let to_string v = render ~indent:false v
let to_string_pretty v = render ~indent:true v

(* ------------------------------------------------------------------ *)
(* parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string * int

(* The decoder reads the input in place: no option per lookahead, and a
   string without escapes is one [String.sub]. *)
type reader = { s : string; n : int; mutable pos : int }

let fail r msg = raise (Parse_error (msg, r.pos))
let at_end r = r.pos >= r.n
let cur r = String.unsafe_get r.s r.pos

let rec skip_ws r =
  if not (at_end r) then
    match cur r with
    | ' ' | '\t' | '\n' | '\r' ->
        r.pos <- r.pos + 1;
        skip_ws r
    | _ -> ()

let expect r c =
  if (not (at_end r)) && cur r = c then r.pos <- r.pos + 1
  else fail r (Printf.sprintf "expected %c" c)

let rec matches_at r word i =
  i = String.length word
  || (String.unsafe_get r.s (r.pos + i) = String.unsafe_get word i && matches_at r word (i + 1))

let literal r word value =
  let len = String.length word in
  if r.pos + len <= r.n && matches_at r word 0 then begin
    r.pos <- r.pos + len;
    value
  end
  else fail r ("expected " ^ word)

(* The offset of the first '"' or '\\' at or after [i], or the end. *)
let rec scan_plain r i =
  if i >= r.n then i
  else match String.unsafe_get r.s i with '"' | '\\' -> i | _ -> scan_plain r (i + 1)

(* The rest of a string with escapes, from [r.pos]; [buf] holds what came
   before. *)
let rec string_rest r buf =
  let i = scan_plain r r.pos in
  Buffer.add_substring buf r.s r.pos (i - r.pos);
  r.pos <- i;
  if at_end r then fail r "unterminated string"
  else if cur r = '"' then begin
    r.pos <- i + 1;
    Buffer.contents buf
  end
  else begin
    r.pos <- i + 1;
    if at_end r then fail r "unterminated escape";
    let e = cur r in
    r.pos <- r.pos + 1;
    (match e with
    | '"' | '\\' | '/' -> Buffer.add_char buf e
    | 'n' -> Buffer.add_char buf '\n'
    | 'r' -> Buffer.add_char buf '\r'
    | 't' -> Buffer.add_char buf '\t'
    | 'b' -> Buffer.add_char buf '\b'
    | 'f' -> Buffer.add_char buf '\012'
    | 'u' -> (
        if r.pos + 4 > r.n then fail r "truncated \\u escape";
        let hex = String.sub r.s r.pos 4 in
        r.pos <- r.pos + 4;
        match int_of_string_opt ("0x" ^ hex) with
        | None -> fail r "bad \\u escape"
        | Some code ->
            (* only the escapes this module emits (< 0x20) plus other BMP
               scalars, re-encoded as UTF-8 *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end)
    | _ -> fail r "bad escape");
    string_rest r buf
  end

let parse_string r =
  expect r '"';
  let start = r.pos in
  let i = scan_plain r start in
  if i < r.n && String.unsafe_get r.s i = '"' then begin
    r.pos <- i + 1;
    String.sub r.s start (i - start)
  end
  else string_rest r (Buffer.create (max 16 (2 * (i - start))))

(* A token of at most 18 digits, after an optional minus sign, is an [int]
   read in place; anything else goes through the standard conversions. *)
let plain_int s start stop =
  let first = if String.unsafe_get s start = '-' then start + 1 else start in
  let rec go i acc =
    if i = stop then Some acc
    else
      match String.unsafe_get s i with
      | '0' .. '9' as c -> go (i + 1) ((acc * 10) + Char.code c - Char.code '0')
      | _ -> None
  in
  if stop - first < 1 || stop - first > 18 then None
  else match go first 0 with Some n when first > start -> Some (-n) | v -> v

let parse_number r =
  let start = r.pos in
  let is_float = ref false in
  let continue = ref true in
  while !continue && not (at_end r) do
    match cur r with
    | '0' .. '9' | '-' | '+' -> r.pos <- r.pos + 1
    | '.' | 'e' | 'E' ->
        is_float := true;
        r.pos <- r.pos + 1
    | _ -> continue := false
  done;
  match if !is_float then None else plain_int r.s start r.pos with
  | Some n -> Int n
  | None -> (
      let tok = String.sub r.s start (r.pos - start) in
      if !is_float then
        match float_of_string_opt tok with Some f -> Float f | None -> fail r "bad number"
      else
        match int_of_string_opt tok with
        | Some i -> Int i
        | None -> (
            match float_of_string_opt tok with Some f -> Float f | None -> fail r "bad number"))

let rec parse_value r =
  skip_ws r;
  if at_end r then fail r "unexpected end of input"
  else
    match cur r with
    | '"' -> String (parse_string r)
    | 'n' -> literal r "null" Null
    | 't' -> literal r "true" (Bool true)
    | 'f' -> literal r "false" (Bool false)
    | '-' | '0' .. '9' -> parse_number r
    | '[' ->
        r.pos <- r.pos + 1;
        skip_ws r;
        if (not (at_end r)) && cur r = ']' then begin
          r.pos <- r.pos + 1;
          List []
        end
        else parse_items r []
    | '{' ->
        r.pos <- r.pos + 1;
        skip_ws r;
        if (not (at_end r)) && cur r = '}' then begin
          r.pos <- r.pos + 1;
          Obj []
        end
        else parse_pairs r []
    | c -> fail r (Printf.sprintf "unexpected character %C" c)

and parse_items r acc =
  let v = parse_value r in
  skip_ws r;
  match if at_end r then '\000' else cur r with
  | ',' ->
      r.pos <- r.pos + 1;
      parse_items r (v :: acc)
  | ']' ->
      r.pos <- r.pos + 1;
      List (List.rev (v :: acc))
  | _ -> fail r "expected , or ]"

and parse_pairs r acc =
  skip_ws r;
  let k = parse_string r in
  skip_ws r;
  expect r ':';
  let v = parse_value r in
  skip_ws r;
  match if at_end r then '\000' else cur r with
  | ',' ->
      r.pos <- r.pos + 1;
      parse_pairs r ((k, v) :: acc)
  | '}' ->
      r.pos <- r.pos + 1;
      Obj (List.rev ((k, v) :: acc))
  | _ -> fail r "expected , or }"

let of_string s =
  let r = { s; n = String.length s; pos = 0 } in
  match
    let v = parse_value r in
    skip_ws r;
    if r.pos <> r.n then fail r "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (msg, p) -> Error (Printf.sprintf "%s at offset %d" msg p)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let rec scrub ~keys v =
  match v with
  | Null | Bool _ | Int _ | Float _ | String _ -> v
  | List items -> List (List.map (scrub ~keys) items)
  | Obj kvs ->
      Obj
        (List.map
           (fun (k, v) -> if List.mem k keys then (k, Null) else (k, scrub ~keys v))
           kvs)

let write_file path v =
  match open_out path with
  | exception Sys_error msg -> Error msg
  | oc -> (
      match
        output_string oc (to_string_pretty v);
        output_char oc '\n'
      with
      | () ->
          close_out oc;
          Ok ()
      | exception Sys_error msg ->
          close_out_noerr oc;
          Error msg)
