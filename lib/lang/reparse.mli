(** Unit-grain re-parsing: parse an edited text by lexing and parsing only
    the top-level declarations an edit can reach, and taking the rest from
    the last parse.

    A {!t} is a successfully parsed text, kept declaration by declaration.
    [parse ~last src] diffs [src] against [last]'s text by common byte
    prefix and suffix, reuses the leading declarations the prefix fully
    determines, re-parses from there and stops at the first declaration
    boundary where the rest of the text is the old suffix at the same line
    and column.  The result is always what {!Parser.parse_program_with_spans}
    returns for [src]: the same declarations, locations and annotation
    spans, or the same exception. *)

type t

val parse : ?last:t -> string -> t
(** Parse [src], reusing what it can of [last].
    @raise Parser.Error and {!Lexer.Error} exactly as
    {!Parser.parse_program_with_spans} does on [src]. *)

val program : t -> Ast.program
val spans : t -> (int * int) list
(** The annotation line spans, in source order. *)

val fingerprints : t -> string list
(** One digest per declaration, in program order, of its AST with every
    location: equal exactly when the declaration is the same, token for
    token, at the same source positions.  Computed only for declarations
    that were parsed again. *)

val reparsed : t -> int
(** How many declarations the call that built [t] lexed and parsed. *)
