(** Hand-written lexer for the surface language.

    Comments are SML-style [(* ... *)] and nest.  Integer literals are
    decimal, optionally preceded by [~] (handled by the parser as unary
    negation). *)

exception Error of string * Loc.t

(** A lexer positioned in a source text.  The fields are readable so the
    parser can take byte offsets without a call per token. *)
type state = private {
  src : string;
  len : int;
  mutable pos : int;  (** byte offset of the next character *)
  mutable line : int;
  mutable col : int;
  mutable tok_start : int;  (** byte offset of the last token's first character *)
}

val start : string -> pos:int -> Loc.pos -> state
(** A lexer over the whole text that starts at byte [pos], which is at the
    given line and column.  Lexing never looks behind its start, so a lexer
    started at a token boundary yields the same tokens, with the same
    locations, as one started at byte 0. *)

val next_token : state -> Token.t * Loc.t
(** The next token; [EOF] at the end of input, and again on every later
    call.  A token is determined by the bytes from the end of the previous
    one up to one byte past its own end.
    @raise Error as {!tokenize} does. *)

val tokenize : string -> (Token.t * Loc.t) list
(** The whole input as a token stream, ending with [EOF].
    @raise Error on an illegal character, an unterminated comment or
    string, a malformed literal, or an integer literal beyond [max_int]. *)
