(** Hand-written lexer for the surface language.

    Comments are SML-style [(* ... *)] and nest.  Integer literals are
    decimal, optionally preceded by [~] (handled by the parser as unary
    negation). *)

exception Error of string * Loc.t

val tokenize : string -> (Token.t * Loc.t) list
(** The whole input as a token stream, ending with [EOF].
    @raise Error on an illegal character, an unterminated comment or
    string, a malformed literal, or an integer literal beyond [max_int]. *)
