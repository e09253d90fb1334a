(** Pretty-printer for the surface language.

    Prints parseable source: for every program [p],
    [Parser.parse_program (to_string p)] succeeds and yields a structurally
    equal AST (checked by property tests through {!Equal}). *)

val pp_sindex : Format.formatter -> Ast.sindex -> unit
val pp_top : Format.formatter -> Ast.top -> unit

val exp_to_string : Ast.exp -> string
val stype_to_string : Ast.stype -> string
val program_to_string : Ast.program -> string

(** Structural equality of surface syntax, ignoring locations. *)
module Equal : sig
  val sindex : Ast.sindex -> Ast.sindex -> bool
  val stype : Ast.stype -> Ast.stype -> bool
  val pat : Ast.pat -> Ast.pat -> bool
  val exp : Ast.exp -> Ast.exp -> bool
  val dec : Ast.dec -> Ast.dec -> bool
  val top : Ast.top -> Ast.top -> bool
  val program : Ast.program -> Ast.program -> bool
end

val erase : Ast.program -> Ast.program
(** The plain ML program a DML program refines: every [where ... <| ...]
    on a [fun] or [val], every explicit [('a){n:nat}] parameter list and
    every [(e : t)] annotation dropped.  Top-level [type], [assert],
    [datatype] and [typeref] declarations are library signatures and are
    kept.  Idempotent. *)
