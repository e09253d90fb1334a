exception Error of string * Loc.t

type state = {
  src : string;
  len : int;
  mutable pos : int;  (* byte offset of the next character *)
  mutable line : int;
  mutable col : int;
  mutable tok_start : int;  (* byte offset of the last token's first character *)
}

let start src ~pos (p : Loc.pos) =
  { src; len = String.length src; pos; line = p.Loc.line; col = p.Loc.col; tok_start = pos }

let current_pos st = { Loc.line = st.line; col = st.col }
let error st start msg = raise (Error (msg, Loc.make start (current_pos st)))

(* Lookahead without allocation: past the end of input both return NUL.
   NUL never starts or continues a token, so wherever "no more input" means
   more than "no match" (comments, string bodies, the token dispatch) the
   code tests [st.pos] against [st.len] itself. *)
let peek st = if st.pos < st.len then String.unsafe_get st.src st.pos else '\000'
let peek2 st = if st.pos + 1 < st.len then String.unsafe_get st.src (st.pos + 1) else '\000'

(* Consume the (existing) next character. *)
let advance st =
  if String.unsafe_get st.src st.pos = '\n' then begin
    st.line <- st.line + 1;
    st.col <- 1
  end
  else st.col <- st.col + 1;
  st.pos <- st.pos + 1

(* Consume [n] characters known to hold no newline. *)
let skip st n =
  st.pos <- st.pos + n;
  st.col <- st.col + n

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_ident_char c = is_alpha c || is_digit c || c = '_' || c = '\''

module Keywords = Hashtbl.Make (String)

let keyword_table =
  let t = Keywords.create 64 in
  List.iter (fun (s, kw) -> Keywords.replace t s kw) Token.keywords;
  t

(* Whitespace and comments, up to the start of the next token.  Comments
   nest; an unterminated one is reported from its outermost opener to the
   end of input. *)
let skip_blanks st =
  let continue = ref true in
  while !continue && st.pos < st.len do
    match String.unsafe_get st.src st.pos with
    | ' ' | '\t' | '\r' -> skip st 1
    | '\n' -> advance st
    | '(' when peek2 st = '*' ->
        let start = current_pos st in
        skip st 2;
        let depth = ref 1 in
        while !depth > 0 do
          if st.pos >= st.len then error st start "unterminated comment";
          match (String.unsafe_get st.src st.pos, peek2 st) with
          | '(', '*' ->
              skip st 2;
              incr depth
          | '*', ')' ->
              skip st 2;
              decr depth
          | _ -> advance st
        done
    | _ -> continue := false
  done

let lex_ident st =
  let j = ref st.pos in
  while !j < st.len && is_ident_char (String.unsafe_get st.src !j) do
    incr j
  done;
  let s = String.sub st.src st.pos (!j - st.pos) in
  skip st (!j - st.pos);
  s

let lex_number st start =
  let n = ref 0 and overflow = ref false in
  while st.pos < st.len && is_digit (String.unsafe_get st.src st.pos) do
    let d = Char.code (String.unsafe_get st.src st.pos) - Char.code '0' in
    if !n > (max_int - d) / 10 then overflow := true else n := (!n * 10) + d;
    skip st 1
  done;
  if !overflow then error st start "integer literal out of range";
  !n

(* string body after the opening quote; handles backslash escapes for
   newline, tab, backslash, and the double quote *)
let lex_string_body st start =
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= st.len then error st start "unterminated string literal";
    match String.unsafe_get st.src st.pos with
    | '"' ->
        skip st 1;
        Buffer.contents buf
    | '\\' ->
        skip st 1;
        let c =
          match peek st with
          | 'n' -> '\n'
          | 't' -> '\t'
          | ('\\' | '"') as c -> c
          | _ -> error st start "illegal escape in string literal"
        in
        skip st 1;
        Buffer.add_char buf c;
        go ()
    | c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ()

let next_token st =
  skip_blanks st;
  st.tok_start <- st.pos;
  let start = current_pos st in
  let open Token in
  let t =
    if st.pos >= st.len then EOF
    else
      match String.unsafe_get st.src st.pos with
      | '0' .. '9' -> INT (lex_number st start)
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> (
          let s = lex_ident st in
          if s = "_" then UNDERSCORE
          else match Keywords.find_opt keyword_table s with Some kw -> kw | None -> ID s)
      | '\'' ->
          skip st 1;
          let s = lex_ident st in
          if s = "" then error st start "expected type variable name after '" else TYVAR s
      | '"' ->
          skip st 1;
          STRING (lex_string_body st start)
      | '#' ->
          skip st 1;
          if peek st <> '"' then error st start "expected a character literal after #";
          skip st 1;
          let s = lex_string_body st start in
          if String.length s = 1 then CHAR s.[0]
          else error st start "character literal must have length 1"
      | c -> (
          let one t =
            skip st 1;
            t
          and two t =
            skip st 2;
            t
          in
          match (c, peek2 st) with
          | '(', _ -> one LPAREN
          | ')', _ -> one RPAREN
          | '[', _ -> one LBRACKET
          | ']', _ -> one RBRACKET
          | '{', _ -> one LBRACE
          | '}', _ -> one RBRACE
          | ',', _ -> one COMMA
          | ';', _ -> one SEMI
          | '|', _ -> one BAR
          | '+', _ -> one PLUS
          | '~', _ -> one TILDE
          | '*', _ -> one STAR
          | '=', '>' -> two DARROW
          | '=', _ -> one EQ
          | '-', '>' -> two ARROW
          | '-', _ -> one MINUS
          | '<', '|' -> two TRIANGLE
          | '<', '=' -> two LE
          | '<', '>' -> two NE
          | '<', _ -> one LT
          | '>', '=' -> two GE
          | '>', _ -> one GT
          | ':', ':' -> two COLONCOLON
          | ':', '=' -> two ASSIGN
          | ':', _ -> one COLON
          | '!', _ -> one BANG
          | '^', _ -> one CARET
          | '/', '\\' -> two WEDGE
          | '\\', '/' -> two VEE
          | _ -> error st start (Printf.sprintf "illegal character %C" c))
  in
  (t, Loc.make start (current_pos st))

let tokenize src =
  let st = start src ~pos:0 { Loc.line = 1; col = 1 } in
  let rec loop acc =
    match next_token st with
    | (Token.EOF, _) as t -> List.rev (t :: acc)
    | t -> loop (t :: acc)
  in
  loop []
