(* Lowering from Tast to the resolved IR; the rules are in lower.mli. *)

open Dml_lang
open Dml_mltype
module M = Map.Make (String)
open Ir

(* [known] is set for a [fun]: its key, curried arity and layout *)
type entry = { var : var; known : (int * int * int option) option }

type env = {
  checked : bool;  (* Checked mode *)
  degraded : (Loc.t -> bool) option;
  scope : entry M.t;
  cons : con M.t;  (* constructors in scope *)
}

(* An activation being lowered: its depth (0 binds globals) and its frame
   size so far. *)
type act = { depth : int; mutable size : int }

let fresh =
  let n = ref 0 in
  fun () ->
    incr n;
    !n

(* Exception tags: 0 and 1 are the run time's own [Subscript] and [Div]
   (Value.exn_value_of); every other exception declaration takes the next. *)
let exn_tag =
  let n = ref 1 in
  fun () ->
    incr n;
    !n

let init mode ?degraded () =
  let exn c = (c.Value.name, { con = c; exn = true }) in
  let cons = M.of_seq (List.to_seq [ exn Value.subscript_exn; exn Value.div_exn ]) in
  { checked = mode = Prims.Checked; degraded; scope = M.empty; cons }

let resolve env x =
  match M.find_opt x env.scope with
  | Some e -> Some e.var
  | None -> Option.map (fun p -> Prim (p, env.checked || env.degraded <> None)) (Prims.find x)

let var env x =
  match resolve env x with
  | Some v -> v
  | None -> raise (Value.Runtime_error ("unbound variable at compile time: " ^ x))

let add env x ?known var = { env with scope = M.add x { var; known } env.scope }

let con env c =
  match M.find_opt c env.cons with
  | Some c -> c
  | None -> raise (Value.Runtime_error ("unbound constructor at compile time: " ^ c))

(* A datatype's constructors take their positions as tags. *)
let datatype env (dt : Ast.datatype_def) =
  let _, cons =
    List.fold_left
      (fun (tag, cons) (c, _) -> (tag + 1, M.add c { con = { Value.tag; name = c }; exn = false } cons))
      (0, env.cons) dt.Ast.dt_cons
  in
  { env with cons }

let bind act x =
  if act.depth = 0 then Global (fresh (), x)
  else begin
    let s = act.size in
    act.size <- s + 1;
    Local (act.depth, s, x)
  end

let rec pat act env (p : Tast.tpat) =
  match p.Tast.tpdesc with
  | Tast.TPwild -> (env, Pwild)
  | Tast.TPvar x ->
      let v = bind act x in
      (add env x v, Pvar v)
  | Tast.TPint n -> (env, Pint n)
  | Tast.TPbool b -> (env, Pbool b)
  | Tast.TPchar c -> (env, Pchar c)
  | Tast.TPstring s -> (env, Pstring s)
  | Tast.TPtuple ps ->
      let env, ps = List.fold_left_map (pat act) env ps in
      (env, Ptuple ps)
  | Tast.TPcon (c, _, None) -> (env, Pcon (con env c, None))
  | Tast.TPcon (c, _, Some argp) ->
      let env', argp = pat act env argp in
      (env', Pcon (con env c, Some argp))

(* The parameter layout of a [fun]: curried arity, and the tuple size when
   every clause takes one n-tuple. *)
let layout (fd : Tast.tfundef) =
  let tuple_size = function
    | [ { Tast.tpdesc = Tast.TPtuple ps; _ } ], _ -> Some (List.length ps)
    | _ -> None
  in
  match fd.Tast.tfclauses with
  | [] -> (0, None)
  | ((pats, _) as c) :: rest ->
      let spread = tuple_size c in
      (List.length pats, if List.for_all (fun c -> tuple_size c = spread) rest then spread else None)

(* The flavour of a saturated primitive call at application [e]. *)
let site_checked env (e : Tast.texp) =
  env.checked || match env.degraded with Some d -> d e.Tast.tloc | None -> false

let rec exp env act (e : Tast.texp) =
  match e.Tast.tdesc with
  | Tast.TEint n -> Int n
  | Tast.TEbool b -> Bool b
  | Tast.TEchar c -> Char c
  | Tast.TEstring s -> String s
  | Tast.TEvar (x, _) -> Var (var env x)
  | Tast.TEcon (c, _, None) -> (
      match Mltype.repr e.Tast.tty with
      | Mltype.Tarrow _ -> Con_fn (con env c)
      | _ -> Con (con env c, None))
  | Tast.TEcon (c, _, Some arg) -> Con (con env c, Some (exp env act arg))
  | Tast.TEtuple es -> Tuple (List.map (exp env act) es)
  | Tast.TEapp (f, a) -> app env act e f a
  | Tast.TEif (c, t, f) -> If (exp env act c, exp env act t, exp env act f)
  | Tast.TEcase (scrut, arms') -> Case (exp env act scrut, arms env act arms')
  | Tast.TEfn (p, body) ->
      let fact = { depth = act.depth + 1; size = 0 } in
      let env', p = pat fact env p in
      let body = exp env' fact body in
      Fn (p, fact.size, body)
  | Tast.TElet (decs, body) ->
      let env', decs = List.fold_left_map (dec act) env decs in
      Let (List.concat decs, exp env' act body)
  | Tast.TEandalso (a, b) -> Andalso (exp env act a, exp env act b)
  | Tast.TEorelse (a, b) -> Orelse (exp env act a, exp env act b)
  | Tast.TEannot (inner, _) -> exp env act inner
  | Tast.TEraise inner -> Raise (exp env act inner)
  | Tast.TEhandle (body, arms') -> Handle (exp env act body, arms env act arms')

and arms env act =
  List.map (fun (p, body) ->
      let env', p = pat act env p in
      (p, exp env' act body))

(* An application lowers with its whole curried spine [head a1 .. an]: a
   saturated call of a primitive or a known [fun] takes the first operands,
   and the rest apply to its result. *)
and app env act e f a =
  (* [site]: the innermost application, [head a1] *)
  let rec spine site (f : Tast.texp) operands =
    match f.Tast.tdesc with
    | Tast.TEapp (g, b) -> spine f g (b :: operands)
    | _ -> (f, site, operands)
  in
  let head, site, operands = spine e f [ a ] in
  let args es = List.map (exp env act) es in
  let call, rest =
    match (head.Tast.tdesc, operands) with
    | Tast.TEvar (x, _), a1 :: rest -> (
        let entry = M.find_opt x env.scope in
        match (entry, (if Option.is_none entry then Prims.find x else None), a1.Tast.tdesc) with
        | None, Some prim, _ when prim.Prims.arity = 1 ->
            (Prim_call { prim; checked = site_checked env site; args = [ exp env act a1 ] }, rest)
        | None, Some prim, Tast.TEtuple es when List.length es = prim.Prims.arity ->
            (Prim_call { prim; checked = site_checked env site; args = args es }, rest)
        | Some { var; known = Some (key, 1, (Some n as spread)) }, _, Tast.TEtuple es
          when List.length es = n ->
            (Known_call { key; fn = var; spread; args = args es }, rest)
        | Some { var; known = Some (key, 1, None) }, _, _ ->
            (Known_call { key; fn = var; spread = None; args = [ exp env act a1 ] }, rest)
        | Some { var; known = Some (key, k, _) }, _, _ when k > 1 && List.length operands >= k ->
            let now = List.filteri (fun i _ -> i < k) operands in
            ( Known_call { key; fn = var; spread = None; args = args now },
              List.filteri (fun i _ -> i >= k) operands )
        | _ -> (App (Var (var env x), exp env act a1), rest))
    | _ -> (exp env act head, operands)
  in
  List.fold_left (fun call a -> App (call, exp env act a)) call rest

(* A declaration in activation [act]; an exception already in scope lowers
   to nothing. *)
and dec act env (d : Tast.tdec) =
  match d with
  | Tast.TDexception (name, _) when M.mem name env.cons -> (env, [])
  | Tast.TDexception (name, arg) ->
      let c = { con = { Value.tag = exn_tag (); name }; exn = true } in
      ({ env with cons = M.add name c env.cons }, [ Dexn (name, arg) ])
  | Tast.TDval (p, e, _, _) ->
      let e = exp env act e in
      let env', p = pat act env p in
      (env', [ Dval (p, e) ])
  | Tast.TDfun fds -> funs act env fds

(* A [fun] group: every name is bound before any clause is lowered. *)
and funs act env fds =
  let group =
    List.map
      (fun (fd : Tast.tfundef) ->
        let arity, spread = layout fd in
        (fd, fresh (), bind act fd.Tast.tfname, arity, spread))
      fds
  in
  let env' =
    List.fold_left
      (fun env (fd, key, var, arity, spread) ->
        add env fd.Tast.tfname ~known:(key, arity, spread) var)
      env group
  in
  let fundef (fd, key, var, arity, spread) =
    let fact = { depth = act.depth + 1; size = Option.value spread ~default:arity } in
    let clause (pats, body) =
      let params =
        match (spread, pats) with
        | Some _, [ { Tast.tpdesc = Tast.TPtuple ps; _ } ] -> ps
        | _ -> pats
      in
      let _, env, params =
        List.fold_left
          (fun (j, env, params) (p : Tast.tpat) ->
            match p.Tast.tpdesc with
            | Tast.TPvar x ->
                let v = Local (fact.depth, j, x) in
                (j + 1, add env x v, Pvar v :: params)
            | _ ->
                let env, p = pat fact env p in
                (j + 1, env, p :: params))
          (0, env', []) params
      in
      (List.rev params, exp env fact body)
    in
    let clauses = List.map clause fd.Tast.tfclauses in
    { key; var; arity; spread; size = fact.size; clauses }
  in
  (env', [ Dfun (List.map fundef group) ])

let exp env e =
  let act = { depth = 1; size = 0 } in
  let e = exp env act e in
  (e, act.size)

let top env (t : Tast.ttop) =
  let globals = { depth = 0; size = 0 } in
  match t with
  | Tast.TTdatatype dt -> (datatype env dt, Some (Tdatatype dt))
  | Tast.TTtyperef _ | Tast.TTassert _ | Tast.TTtypedef _ -> (env, None)
  | Tast.TTdec (Tast.TDval (p, e, _, _)) ->
      let e, size = exp env e in
      let env, p = pat globals env p in
      (env, Some (Tdec (Dval (p, e), size)))
  | Tast.TTdec d -> (
      match dec globals env d with
      | env, [ d ] -> (env, Some (Tdec (d, 0)))
      | env, _ -> (env, None))
