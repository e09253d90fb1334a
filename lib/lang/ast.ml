(* Surface abstract syntax.  Index variables and sorts are plain strings
   here; the elaborator resolves them against the quantifiers in scope and
   produces {!Dml_index} values. *)

(* --- surface index expressions ----------------------------------------- *)

type ibinop =
  | Oadd
  | Osub
  | Omul
  | Odiv
  | Omod
  | Omin
  | Omax
  | Olt
  | Ole
  | Oeq
  | One
  | Oge
  | Ogt
  | Oand
  | Oor

type sindex =
  | Siname of string
  | Siconst of int
  | Sibool of bool
  | Sibin of ibinop * sindex * sindex
  | Sineg of sindex
  | Sinot of sindex
  | Siabs of sindex
  | Sisgn of sindex

(* --- surface types ------------------------------------------------------ *)

(* A quantifier group [{a:nat, b:int | cond}] or [[a:nat | cond]]. *)
type quant = { qvars : (string * string) list; qcond : sindex option }

type stype =
  | STvar of string  (* 'a *)
  | STcon of stype list * string * sindex list  (* (t1,..,tk) name (i1,..,im) *)
  | STtuple of stype list  (* t1 * ... * tn, n >= 2; unit is STcon [] "unit" [] *)
  | STarrow of stype * stype
  | STpi of quant * stype  (* {a:g | b} t *)
  | STsigma of quant * stype  (* [a:g | b] t *)

(* --- patterns ------------------------------------------------------------ *)

type pat = { pdesc : pat_desc; ploc : Loc.t }

and pat_desc =
  | Pwild
  | Pvar of string  (* variable or nullary constructor: resolved by scoping *)
  | Pint of int
  | Pbool of bool
  | Pchar of char
  | Pstring of string
  | Ptuple of pat list  (* n >= 2; () is Ptuple [] *)
  | Pcon of string * pat option

(* --- expressions ---------------------------------------------------------- *)

type exp = { edesc : exp_desc; eloc : Loc.t }

and exp_desc =
  | Eint of int
  | Ebool of bool
  | Echar of char
  | Estring of string
  | Evar of string  (* variable or constructor: resolved by scoping *)
  | Etuple of exp list  (* n >= 2; () is Etuple [] *)
  | Eapp of exp * exp
  | Eif of exp * exp * exp
  | Ecase of exp * (pat * exp) list
  | Efn of pat * exp
  | Elet of dec list * exp
  | Eandalso of exp * exp
  | Eorelse of exp * exp
  | Eannot of exp * stype  (* (e : t) *)
  | Eraise of exp
  | Ehandle of exp * (pat * exp) list  (* e handle p => e | ... *)

(* --- declarations ---------------------------------------------------------- *)

and dec = { ddesc : dec_desc; dloc : Loc.t }

and dec_desc =
  | Dval of pat * exp * stype option  (* val p = e [where x <| t] *)
  | Dfun of fundef list  (* fun f ... [and g ...] *)
  | Dexception of string * stype option  (* exception E [of t] *)

and fundef = {
  fname : string;
  ftyparams : string list;  (* fun('a){n:nat} f ... explicit parameters *)
  fiparams : quant list;
  fclauses : (pat list * exp) list;  (* one or more curried patterns per clause *)
  fannot : stype option;  (* the where clause *)
  floc : Loc.t;
}

(* --- top-level -------------------------------------------------------------- *)

type datatype_def = {
  dt_params : string list;  (* type parameters 'a ... *)
  dt_name : string;
  dt_cons : (string * stype option) list;
}

type typeref_def = {
  tr_params : string list;
  tr_name : string;
  tr_sorts : string list;  (* index sorts, e.g. ["nat"] *)
  tr_cons : (string * stype) list;  (* dependent constructor types *)
}

type top =
  | Tdatatype of datatype_def
  | Ttyperef of typeref_def
  | Tassert of (string * stype) list  (* assert x <| t and ... *)
  | Ttypedef of string * stype  (* type name = t (index-level abbreviation) *)
  | Tdec of dec

type program = top list

(* --- helpers ----------------------------------------------------------------- *)

let mk_exp edesc eloc = { edesc; eloc }
let mk_pat pdesc ploc = { pdesc; ploc }
let mk_dec ddesc dloc = { ddesc; dloc }

let unit_exp loc = mk_exp (Etuple []) loc
let unit_pat loc = mk_pat (Ptuple []) loc

(* One-level traversals: [iter_exp] applies [exp] to each immediate
   sub-expression of a node, [dec] to each immediate declaration, and the
   optional [pat] and [typ] to the patterns and type annotations the node
   itself carries; [map_exp] rebuilds the node from the images of its
   sub-expressions and declarations (the order in which it applies them
   is unspecified, so they should be pure).  A pass over the whole tree
   matches the nodes it treats specially and hands every other node to
   one of these, passing itself back in. *)
let iter_exp ?(pat = ignore) ?(typ = ignore) ~exp ~dec e =
  match e.edesc with
  | Eint _ | Ebool _ | Echar _ | Estring _ | Evar _ -> ()
  | Etuple es -> List.iter exp es
  | Eapp (a, b) | Eandalso (a, b) | Eorelse (a, b) ->
      exp a;
      exp b
  | Eif (a, b, c) ->
      exp a;
      exp b;
      exp c
  | Ecase (a, arms) | Ehandle (a, arms) ->
      exp a;
      List.iter
        (fun (p, b) ->
          pat p;
          exp b)
        arms
  | Efn (p, a) ->
      pat p;
      exp a
  | Eannot (a, t) ->
      exp a;
      typ t
  | Eraise a -> exp a
  | Elet (ds, b) ->
      List.iter dec ds;
      exp b

let iter_dec ?(pat = ignore) ?(typ = ignore) ~exp d =
  match d.ddesc with
  | Dval (p, e, t) ->
      pat p;
      exp e;
      Option.iter typ t
  | Dfun fds ->
      List.iter
        (fun fd ->
          List.iter
            (fun (ps, e) ->
              List.iter pat ps;
              exp e)
            fd.fclauses;
          Option.iter typ fd.fannot)
        fds
  | Dexception (_, t) -> Option.iter typ t

let map_exp ~exp ~dec e =
  let arms = List.map (fun (p, b) -> (p, exp b)) in
  let edesc =
    match e.edesc with
    | (Eint _ | Ebool _ | Echar _ | Estring _ | Evar _) as d -> d
    | Etuple es -> Etuple (List.map exp es)
    | Eapp (a, b) -> Eapp (exp a, exp b)
    | Eif (a, b, c) -> Eif (exp a, exp b, exp c)
    | Ecase (a, ms) -> Ecase (exp a, arms ms)
    | Efn (p, a) -> Efn (p, exp a)
    | Elet (ds, b) -> Elet (List.map dec ds, exp b)
    | Eandalso (a, b) -> Eandalso (exp a, exp b)
    | Eorelse (a, b) -> Eorelse (exp a, exp b)
    | Eannot (a, t) -> Eannot (exp a, t)
    | Eraise a -> Eraise (exp a)
    | Ehandle (a, ms) -> Ehandle (exp a, arms ms)
  in
  { e with edesc }

let map_dec ~exp d =
  let ddesc =
    match d.ddesc with
    | Dval (p, e, t) -> Dval (p, exp e, t)
    | Dfun fds ->
        Dfun
          (List.map
             (fun fd -> { fd with fclauses = List.map (fun (ps, b) -> (ps, exp b)) fd.fclauses })
             fds)
    | Dexception _ as dd -> dd
  in
  { d with ddesc }

let rec pat_vars p =
  match p.pdesc with
  | Pwild | Pint _ | Pbool _ | Pchar _ | Pstring _ -> []
  | Pvar x -> [ x ]
  | Ptuple ps -> List.concat_map pat_vars ps
  | Pcon (_, None) -> []
  | Pcon (_, Some p) -> pat_vars p
