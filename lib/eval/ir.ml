(* The resolved IR between [Lower] and the backends: what [Compile] builds
   closures from and [Codegen] prints.  Its meaning is set out in
   lower.mli. *)

open Dml_lang
open Dml_mltype

type con = { con : Value.con; exn : bool }

type var =
  | Local of int * int * string  (** depth of the binding activation, slot, name *)
  | Global of int * string  (** id of a top-level binding, name *)
  | Prim of Prims.prim * bool  (** a first-class primitive; [true]: checked flavour *)

type pat =
  | Pwild
  | Pvar of var  (** binds a [Local] or a [Global] *)
  | Pint of int
  | Pbool of bool
  | Pchar of char
  | Pstring of string
  | Ptuple of pat list
  | Pcon of con * pat option

type exp =
  | Int of int
  | Bool of bool
  | Char of char
  | String of string
  | Var of var
  | Con of con * exp option
  | Con_fn of con
  | Tuple of exp list
  | Prim_call of { prim : Prims.prim; checked : bool; args : exp list }
  | Known_call of { key : int; fn : var; spread : int option; args : exp list }
      (** [key]: the callee's {!fundef}; [args]: the tuple's fields, or the
          curried operands, one per parameter slot *)
  | App of exp * exp
  | If of exp * exp * exp
  | Case of exp * (pat * exp) list
  | Fn of pat * int * exp  (** parameter, frame size, body *)
  | Let of dec list * exp
  | Andalso of exp * exp
  | Orelse of exp * exp
  | Raise of exp
  | Handle of exp * (pat * exp) list

and dec = Dexn of string * Mltype.t option | Dval of pat * exp | Dfun of fundef list

and fundef = {
  key : int;  (** unique in the process *)
  var : var;  (** where the function value is stored *)
  arity : int;  (** curried arguments *)
  spread : int option;
  size : int;  (** frame size of the clauses' activation *)
  clauses : (pat list * exp) list;  (** one pattern per parameter slot *)
}

type top =
  | Tdatatype of Ast.datatype_def
  | Tdec of dec * int  (** with the frame size of the activation its code runs in *)

(** The source name of a variable. *)
let var_name = function Local (_, _, x) | Global (_, x) -> x | Prim (p, _) -> p.Prims.name

(** The plain application chain a [Known_call] with [spread = None] stands for. *)
let app_chain fn args = List.fold_left (fun f a -> App (f, a)) (Var fn) args
