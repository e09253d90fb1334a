open Dml_index
open Dml_lang
open Dml_mltype
module SMap = Map.Make (String)

exception Error of string

let errf fmt = Format.kasprintf (fun msg -> raise (Error msg)) fmt

type family = { fam_name : string; fam_tyarity : int; fam_sorts : Idx.sort list }

type dscheme = { ds_tyvars : string list; ds_body : Dtype.t }

type t = {
  families : family SMap.t;
  con_types : Dtype.t SMap.t;
  abbrevs : Ast.stype SMap.t;
  vals : dscheme SMap.t;
  mltyenv : Tyenv.t;
}

let nat_sort =
  let a = Ivar.fresh "a" in
  Idx.Ssubset (a, Idx.Sint, Idx.Bcmp (Idx.Rge, Idx.Ivar a, Idx.Iconst 0))

let resolve_sort = function
  | "int" -> Idx.Sint
  | "bool" -> Idx.Sbool
  | "nat" -> nat_sort
  | s -> errf "unknown index sort %s" s

let builtin mltyenv =
  let families =
    SMap.empty
    |> SMap.add "int" { fam_name = "int"; fam_tyarity = 0; fam_sorts = [ Idx.Sint ] }
    |> SMap.add "bool" { fam_name = "bool"; fam_tyarity = 0; fam_sorts = [ Idx.Sbool ] }
    |> SMap.add "array" { fam_name = "array"; fam_tyarity = 1; fam_sorts = [ nat_sort ] }
    |> SMap.add "exn" { fam_name = "exn"; fam_tyarity = 0; fam_sorts = [] }
    |> SMap.add "ref" { fam_name = "ref"; fam_tyarity = 1; fam_sorts = [] }
    |> SMap.add "string" { fam_name = "string"; fam_tyarity = 0; fam_sorts = [ nat_sort ] }
    |> SMap.add "char" { fam_name = "char"; fam_tyarity = 0; fam_sorts = [] }
  in
  { families; con_types = SMap.empty; abbrevs = SMap.empty; vals = SMap.empty; mltyenv }

type iscope = (Ivar.t * Idx.sort) SMap.t

(* --- surface index resolution ------------------------------------------- *)

type rindex = Rint of Idx.iexp | Rbool of Idx.bexp

let rec resolve_sindex (scope : iscope) (si : Ast.sindex) : rindex =
  match si with
  | Ast.Siconst n -> Rint (Idx.Iconst n)
  | Ast.Sibool b -> Rbool (Idx.Bconst b)
  | Ast.Siname x -> begin
      match SMap.find_opt x scope with
      | None -> errf "unbound index variable %s" x
      | Some (v, g) -> (
          match Idx.base_sort g with
          | Idx.Sint -> Rint (Idx.Ivar v)
          | Idx.Sbool -> Rbool (Idx.Bvar v)
          | Idx.Ssubset _ -> assert false)
    end
  | Ast.Sineg a -> (
      (* [~] is integer negation or boolean negation depending on the
         operand's sort *)
      match resolve_sindex scope a with
      | Rint i -> Rint (Idx.isub (Idx.Iconst 0) i)
      | Rbool b -> Rbool (Idx.bnot b))
  | Ast.Siabs a -> Rint (Idx.Iabs (int_of scope a))
  | Ast.Sisgn a -> Rint (Idx.Isgn (int_of scope a))
  | Ast.Sinot a -> Rbool (Idx.bnot (bool_of scope a))
  | Ast.Sibin (op, a, b) -> (
      match op with
      | Ast.Oadd -> Rint (Idx.iadd (int_of scope a) (int_of scope b))
      | Ast.Osub -> Rint (Idx.isub (int_of scope a) (int_of scope b))
      | Ast.Omul -> Rint (Idx.imul (int_of scope a) (int_of scope b))
      | Ast.Odiv -> Rint (Idx.Idiv (int_of scope a, int_of scope b))
      | Ast.Omod -> Rint (Idx.Imod (int_of scope a, int_of scope b))
      | Ast.Omin -> Rint (Idx.Imin (int_of scope a, int_of scope b))
      | Ast.Omax -> Rint (Idx.Imax (int_of scope a, int_of scope b))
      | Ast.Olt -> Rbool (Idx.cmp Idx.Rlt (int_of scope a) (int_of scope b))
      | Ast.Ole -> Rbool (Idx.cmp Idx.Rle (int_of scope a) (int_of scope b))
      | Ast.Oeq -> Rbool (Idx.cmp Idx.Req (int_of scope a) (int_of scope b))
      | Ast.One -> Rbool (Idx.cmp Idx.Rne (int_of scope a) (int_of scope b))
      | Ast.Oge -> Rbool (Idx.cmp Idx.Rge (int_of scope a) (int_of scope b))
      | Ast.Ogt -> Rbool (Idx.cmp Idx.Rgt (int_of scope a) (int_of scope b))
      | Ast.Oand -> Rbool (Idx.band (bool_of scope a) (bool_of scope b))
      | Ast.Oor -> Rbool (Idx.bor (bool_of scope a) (bool_of scope b)))

and int_of scope si =
  match resolve_sindex scope si with
  | Rint i -> i
  | Rbool _ -> errf "expected an integer index expression"

and bool_of scope si =
  match resolve_sindex scope si with
  | Rbool b -> b
  | Rint _ -> errf "expected a boolean index expression"

let resolve_bexp = bool_of

(* --- quantifier groups ----------------------------------------------------- *)

(* {a:g1, b:g2 | cond}: all variables scope over [cond]; the condition is
   attached as a subset sort on the last binder. *)
let add_quant _env (scope : iscope) (q : Ast.quant) =
  let scope', binders =
    List.fold_left
      (fun (scope, acc) (name, sort_name) ->
        let sort = resolve_sort sort_name in
        let v = Ivar.fresh name in
        (SMap.add name (v, sort) scope, (v, sort) :: acc))
      (scope, []) q.Ast.qvars
  in
  let binders = List.rev binders in
  let binders =
    match q.Ast.qcond with
    | None -> binders
    | Some cond -> (
        let cond = bool_of scope' cond in
        match List.rev binders with
        | [] -> errf "empty quantifier group"
        | (v, g) :: rest -> List.rev ((v, Idx.Ssubset (v, g, cond)) :: rest))
  in
  (scope', binders)

(* --- index argument kinds ---------------------------------------------------- *)

let index_of_sort v g =
  match Idx.base_sort g with
  | Idx.Sint -> Dtype.Iint (Idx.Ivar v)
  | Idx.Sbool -> Dtype.Ibool (Idx.Bvar v)
  | Idx.Ssubset _ -> assert false

(* Wrap a family application with existential indices for the sorts. *)
let existential_family name targs sorts =
  let binders = List.map (fun g -> (Ivar.fresh "e", g)) sorts in
  let idxs = List.map (fun (v, g) -> index_of_sort v g) binders in
  List.fold_right (fun (v, g) body -> Dtype.Dsigma (v, g, body)) binders
    (Dtype.Dcon (name, targs, idxs))

(* --- surface type resolution --------------------------------------------------- *)

let rec resolve_stype env (scope : iscope) (t : Ast.stype) : Dtype.t =
  match t with
  | Ast.STvar v -> Dtype.Dvar v
  | Ast.STtuple ts -> Dtype.Dtuple (List.map (resolve_stype env scope) ts)
  | Ast.STarrow (a, b) -> Dtype.Darrow (resolve_stype env scope a, resolve_stype env scope b)
  | Ast.STpi (q, body) ->
      let scope', binders = add_quant env scope q in
      List.fold_right (fun (v, g) acc -> Dtype.Dpi (v, g, acc)) binders
        (resolve_stype env scope' body)
  | Ast.STsigma (q, body) ->
      let scope', binders = add_quant env scope q in
      List.fold_right (fun (v, g) acc -> Dtype.Dsigma (v, g, acc)) binders
        (resolve_stype env scope' body)
  | Ast.STcon ([], "unit", []) -> Dtype.Dtuple []
  | Ast.STcon (targs, name, idxs) -> begin
      match SMap.find_opt name env.abbrevs with
      | Some body ->
          if targs <> [] || idxs <> [] then errf "type abbreviation %s takes no arguments" name
          else resolve_stype env scope body
      | None -> (
          match SMap.find_opt name env.families with
          | None -> errf "unknown type constructor %s" name
          | Some fam ->
              if List.length targs <> fam.fam_tyarity then
                errf "type constructor %s expects %d type argument(s), got %d" name
                  fam.fam_tyarity (List.length targs);
              let targs = List.map (resolve_stype env scope) targs in
              if idxs = [] && fam.fam_sorts <> [] then
                (* unindexed use of an indexed family: existential *)
                existential_family name targs fam.fam_sorts
              else begin
                if List.length idxs <> List.length fam.fam_sorts then
                  errf "type family %s expects %d index argument(s), got %d" name
                    (List.length fam.fam_sorts) (List.length idxs);
                let resolve_arg si g =
                  match Idx.base_sort g with
                  | Idx.Sint -> Dtype.Iint (int_of scope si)
                  | Idx.Sbool -> Dtype.Ibool (bool_of scope si)
                  | Idx.Ssubset _ -> assert false
                in
                Dtype.Dcon (name, targs, List.map2 resolve_arg idxs fam.fam_sorts)
              end)
    end

(* --- declarations ------------------------------------------------------------------ *)

let add_datatype env (d : Ast.datatype_def) =
  let fam =
    { fam_name = d.Ast.dt_name; fam_tyarity = List.length d.Ast.dt_params; fam_sorts = [] }
  in
  { env with families = SMap.add d.Ast.dt_name fam env.families }

let process_typeref env (tr : Ast.typeref_def) =
  match SMap.find_opt tr.Ast.tr_name env.families with
  | None -> errf "typeref for unknown datatype %s" tr.Ast.tr_name
  | Some fam ->
      let sorts = List.map resolve_sort tr.Ast.tr_sorts in
      let fam = { fam with fam_sorts = sorts } in
      let env = { env with families = SMap.add tr.Ast.tr_name fam env.families } in
      let con_types =
        List.fold_left
          (fun cons (cname, st) ->
            let dt = resolve_stype env SMap.empty st in
            (* validate the shape: after the Pi prefix, the head (or the
               codomain for a unary constructor) must be the refined family
               fully applied *)
            let rec result = function
              | Dtype.Dpi (_, _, t) -> result t
              | Dtype.Darrow (_, r) -> r
              | t -> t
            in
            (match result dt with
            | Dtype.Dcon (n, _, idxs)
              when n = tr.Ast.tr_name && List.length idxs = List.length sorts ->
                ()
            | _ ->
                errf "constructor %s must produce %s with %d index argument(s)" cname
                  tr.Ast.tr_name (List.length sorts));
            SMap.add cname dt cons)
          env.con_types tr.Ast.tr_cons
      in
      { env with con_types }

let add_abbrev env name t = { env with abbrevs = SMap.add name t env.abbrevs }

let free_stype_tyvars st =
  let acc = ref [] in
  let rec go (t : Ast.stype) =
    match t with
    | Ast.STvar v -> if not (List.mem v !acc) then acc := v :: !acc
    | Ast.STcon (args, _, _) -> List.iter go args
    | Ast.STtuple ts -> List.iter go ts
    | Ast.STarrow (a, b) ->
        go a;
        go b
    | Ast.STpi (_, t) | Ast.STsigma (_, t) -> go t
  in
  go st;
  List.rev !acc

let add_val env name ds = { env with vals = SMap.add name ds env.vals }

let add_assert env name st =
  let ds = { ds_tyvars = free_stype_tyvars st; ds_body = resolve_stype env SMap.empty st } in
  add_val env name ds

let find_val env name = SMap.find_opt name env.vals

(* --- embedding ---------------------------------------------------------------------- *)

let rec embed env (t : Mltype.t) : Dtype.t =
  match Mltype.repr t with
  | Mltype.Tqvar v -> Dtype.Dvar v
  | Mltype.Tvar _ ->
      (* phase 1 zonks before phase 2; leftover variables become weak qvars *)
      Dtype.Dvar "_weak"
  | Mltype.Ttuple ts -> Dtype.Dtuple (List.map (embed env) ts)
  | Mltype.Tarrow (a, b) -> Dtype.Darrow (embed env a, embed env b)
  | Mltype.Tcon (name, args) -> (
      let targs = List.map (embed env) args in
      match SMap.find_opt name env.families with
      | Some fam when fam.fam_sorts <> [] -> existential_family name targs fam.fam_sorts
      | Some _ | None -> Dtype.Dcon (name, targs, []))

let con_dtype env cname =
  match SMap.find_opt cname env.con_types with
  | Some dt -> dt
  | None -> (
      match Tyenv.find_con env.mltyenv cname with
      | None -> errf "unknown constructor %s" cname
      | Some ci -> (
          let result =
            Dtype.Dcon
              ( ci.Tyenv.con_tycon,
                List.map (fun v -> Dtype.Dvar v) ci.Tyenv.con_params,
                [] )
          in
          match ci.Tyenv.con_arg with
          | None -> result
          | Some arg -> Dtype.Darrow (embed env arg, result)))

let instantiate ds (inst : Tast.inst) env =
  let s = List.map (fun (v, mlty) -> (v, embed env mlty)) inst in
  Dtype.subst_tyvars s ds.ds_body
