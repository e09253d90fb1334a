(** Recursive-descent parser for the surface language.

    The grammar follows the paper's listings: SML-style core expressions and
    clausal function definitions, extended with [where] type ascriptions,
    [{a:g | b}]/[[a:g | b]] quantifiers, [typeref] refinement declarations,
    [assert] signature declarations and [type] abbreviations. *)

exception Error of string * Loc.t

val parse_program : string -> Ast.program
(** @raise Error on a syntax error.
    @raise Lexer.Error on a lexical error. *)

val parse_program_with_spans : string -> Ast.program * (int * int) list
(** Like {!parse_program}, additionally returning the line spans
    (start, end) of the type annotations, in source order — Table 1's
    "annotation lines" metric.  The spans are a return value, not hidden
    state: repeated parses cannot contaminate one another. *)

(** One top-level declaration as parsed, with where it lies in the text.
    Positions are byte offsets. *)
type unit_parse = {
  top : Ast.top;
  spans : (int * int) list;  (** its annotation line spans, in source order *)
  first : int;  (** offset of its first token *)
  first_pos : Loc.pos;  (** line and column of its first token *)
  last : int;  (** offset just past its last token *)
  last_pos : Loc.pos;  (** line and column just past its last token *)
  look : int;
      (** the bytes before [look] determine the declaration and its
          locations: its own tokens, the two tokens of parser lookahead
          after it and the one byte the lexer read to end the second *)
}

val parse_units :
  ?pos:int ->
  ?at:Loc.pos ->
  ?stop:(int -> Loc.pos -> bool) ->
  string ->
  unit_parse list * bool
(** The top-level declarations of the text from byte [pos] (default 0, at
    line 1, column 1, or at [at]) on, in order.  [pos] must be at a
    top-level boundary: the start of the text or the end of a declaration.
    Before each declaration, [stop] sees the offset and position of its
    first token; when it holds, parsing stops there and the second result
    is [true].  Otherwise parsing runs to the end of the text.
    {!parse_program_with_spans} is [parse_units] of the whole text.
    @raise Error and {!Lexer.Error} as {!parse_program} does. *)

val parse_exp : string -> Ast.exp
(** Parse a single expression (used by tests and the REPL-ish examples). *)

val parse_stype : string -> Ast.stype
(** Parse a single type expression. *)
