(* Typed abstract syntax produced by phase-1 inference.  Every node carries
   its (zonked) ML type; variable and constructor occurrences carry the
   instantiation of their scheme's type variables, which the dependent
   elaborator uses to instantiate dependent signatures at use sites. *)

open Dml_lang

type inst = (string * Mltype.t) list
(* scheme variable -> instantiated type, per occurrence *)

type texp = { tdesc : tdesc; tty : Mltype.t; tloc : Loc.t }

and tdesc =
  | TEint of int
  | TEbool of bool
  | TEchar of char
  | TEstring of string
  | TEvar of string * inst
  | TEcon of string * inst * texp option  (* constructor, possibly applied *)
  | TEtuple of texp list
  | TEapp of texp * texp
  | TEif of texp * texp * texp
  | TEcase of texp * (tpat * texp) list
  | TEfn of tpat * texp
  | TElet of tdec list * texp
  | TEandalso of texp * texp
  | TEorelse of texp * texp
  | TEannot of texp * Ast.stype
  | TEraise of texp
  | TEhandle of texp * (tpat * texp) list

and tpat = { tpdesc : tpdesc; tpty : Mltype.t; tploc : Loc.t }

and tpdesc =
  | TPwild
  | TPvar of string
  | TPint of int
  | TPbool of bool
  | TPchar of char
  | TPstring of string
  | TPtuple of tpat list
  | TPcon of string * inst * tpat option

and tdec =
  | TDval of tpat * texp * Ast.stype option * Mltype.scheme
    (* pattern, body, optional where-annotation, scheme of the bound variable
       (meaningful when the pattern is a single variable) *)
  | TDfun of tfundef list
  | TDexception of string * Mltype.t option

and tfundef = {
  tfname : string;
  tftyparams : string list;
  tfiparams : Ast.quant list;
  tfclauses : (tpat list * texp) list;
  tfannot : Ast.stype option;
  tfscheme : Mltype.scheme;
  tfloc : Loc.t;
}

type ttop =
  | TTdatatype of Ast.datatype_def
  | TTtyperef of Ast.typeref_def
  | TTassert of (string * Ast.stype) list
  | TTtypedef of string * Ast.stype
  | TTdec of tdec

type tprogram = ttop list

(* One-level traversals, as [Ast.iter_exp]/[Ast.iter_dec]: [texp] on each
   immediate sub-expression and [tdec] on each immediate declaration, in
   source order. *)
let iter_texp ~texp ~tdec e =
  match e.tdesc with
  | TEint _ | TEbool _ | TEchar _ | TEstring _ | TEvar _ -> ()
  | TEcon (_, _, arg) -> Option.iter texp arg
  | TEtuple es -> List.iter texp es
  | TEapp (a, b) | TEandalso (a, b) | TEorelse (a, b) ->
      texp a;
      texp b
  | TEif (a, b, c) ->
      texp a;
      texp b;
      texp c
  | TEcase (a, arms) | TEhandle (a, arms) ->
      texp a;
      List.iter (fun (_, b) -> texp b) arms
  | TEfn (_, a) | TEannot (a, _) | TEraise a -> texp a
  | TElet (ds, b) ->
      List.iter tdec ds;
      texp b

let iter_tdec ~texp = function
  | TDval (_, e, _, _) -> texp e
  | TDfun fds -> List.iter (fun fd -> List.iter (fun (_, e) -> texp e) fd.tfclauses) fds
  | TDexception _ -> ()

(* --- zonking: freeze all unification variables after inference ---------- *)

let zonk_inst inst = List.map (fun (v, t) -> (v, Mltype.zonk t)) inst

let rec zonk_texp e =
  let tdesc =
    match e.tdesc with
    | TEint _ | TEbool _ | TEchar _ | TEstring _ -> e.tdesc
    | TEvar (x, inst) -> TEvar (x, zonk_inst inst)
    | TEcon (c, inst, arg) -> TEcon (c, zonk_inst inst, Option.map zonk_texp arg)
    | TEtuple es -> TEtuple (List.map zonk_texp es)
    | TEapp (f, a) -> TEapp (zonk_texp f, zonk_texp a)
    | TEif (a, b, c) -> TEif (zonk_texp a, zonk_texp b, zonk_texp c)
    | TEcase (s, arms) -> TEcase (zonk_texp s, List.map (fun (p, e) -> (zonk_tpat p, zonk_texp e)) arms)
    | TEfn (p, b) -> TEfn (zonk_tpat p, zonk_texp b)
    | TElet (ds, b) -> TElet (List.map zonk_tdec ds, zonk_texp b)
    | TEandalso (a, b) -> TEandalso (zonk_texp a, zonk_texp b)
    | TEorelse (a, b) -> TEorelse (zonk_texp a, zonk_texp b)
    | TEannot (e, t) -> TEannot (zonk_texp e, t)
    | TEraise e -> TEraise (zonk_texp e)
    | TEhandle (e, arms) ->
        TEhandle (zonk_texp e, List.map (fun (p, b) -> (zonk_tpat p, zonk_texp b)) arms)
  in
  { e with tdesc; tty = Mltype.zonk e.tty }

and zonk_tpat p =
  let tpdesc =
    match p.tpdesc with
    | TPwild | TPvar _ | TPint _ | TPbool _ | TPchar _ | TPstring _ -> p.tpdesc
    | TPtuple ps -> TPtuple (List.map zonk_tpat ps)
    | TPcon (c, inst, arg) -> TPcon (c, zonk_inst inst, Option.map zonk_tpat arg)
  in
  { p with tpdesc; tpty = Mltype.zonk p.tpty }

and zonk_tdec = function
  | TDexception (name, arg) -> TDexception (name, Option.map Mltype.zonk arg)
  | TDval (p, e, annot, scheme) ->
      TDval
        ( zonk_tpat p,
          zonk_texp e,
          annot,
          { scheme with Mltype.sbody = Mltype.zonk scheme.Mltype.sbody } )
  | TDfun fds ->
      TDfun
        (List.map
           (fun fd ->
             {
               fd with
               tfclauses =
                 List.map (fun (ps, e) -> (List.map zonk_tpat ps, zonk_texp e)) fd.tfclauses;
               tfscheme =
                 { fd.tfscheme with Mltype.sbody = Mltype.zonk fd.tfscheme.Mltype.sbody };
             })
           fds)

let zonk_ttop = function
  | (TTdatatype _ | TTtyperef _ | TTassert _ | TTtypedef _) as t -> t
  | TTdec d -> TTdec (zonk_tdec d)

let zonk_program p = List.map zonk_ttop p
