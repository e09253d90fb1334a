open Dml_lang
module SMap = Tyenv.SMap
module M = Mltype

exception Type_error of string * Loc.t

type env = {
  tyenv : Tyenv.t;
  vals : M.scheme SMap.t;
  level : int;
  warnings : (string * Loc.t) list ref;
}

let bind env bindings =
  { env with vals = List.fold_left (fun m (x, s) -> SMap.add x s m) env.vals bindings }

let initial tyenv bindings = bind { tyenv; vals = SMap.empty; level = 0; warnings = ref [] } bindings

let warn env loc fmt = Format.kasprintf (fun msg -> env.warnings := (msg, loc) :: !(env.warnings)) fmt

(* exhaustiveness / redundancy warnings for a pattern matrix *)
let check_coverage env ~what ~loc ~arity rows row_locs =
  match Coverage.check_rows env.tyenv ~arity rows with
  | Error () -> warn env loc "this %s is not exhaustive" what
  | Ok redundant ->
      List.iter
        (fun i ->
          match List.nth_opt row_locs i with
          | Some rloc -> warn env rloc "this %s case is unused" what
          | None -> ())
        redundant

let err loc fmt = Format.kasprintf (fun msg -> raise (Type_error (msg, loc))) fmt

let unify_at loc a b =
  try M.unify a b
  with M.Unify_error _ ->
    err loc "this has type %s but was expected to have type %s" (M.to_string a) (M.to_string b)

let erase_at loc env t =
  try Tyenv.erase env.tyenv t with Tyenv.Error msg -> err loc "%s" msg

(* Names of quantified type variables occurring in a type; used to build the
   scheme after [generalize] has frozen generalisable variables as [Tqvar]. *)
let qvar_names t =
  let acc = ref [] in
  let rec go t =
    match M.repr t with
    | M.Tqvar v -> if not (List.mem v !acc) then acc := v :: !acc
    | M.Tvar _ -> ()
    | M.Tcon (_, args) -> List.iter go args
    | M.Ttuple ts -> List.iter go ts
    | M.Tarrow (a, b) ->
        go a;
        go b
  in
  go t;
  List.rev !acc

(* Note: this quantifies every [Tqvar] in the type, including type variables
   that are rigid in an enclosing scope.  That is harmless for the programs
   in this fragment (evaluation is untyped and phase 2 re-checks dependent
   types with its own scoping) and matches SML's implicit quantification at
   the outermost possible point. *)
let scheme_of t = { M.svars = qvar_names t; sbody = t }

(* The value restriction's non-expansive expressions: only constructor
   applications count as values — a function call (including [ref]) is
   expansive and must not be generalised. *)
let rec is_syntactic_value tyenv (e : Ast.exp) =
  match e.Ast.edesc with
  | Ast.Eint _ | Ast.Ebool _ | Ast.Echar _ | Ast.Estring _ | Ast.Evar _ | Ast.Efn _ -> true
  | Ast.Etuple es -> List.for_all (is_syntactic_value tyenv) es
  | Ast.Eapp ({ edesc = Ast.Evar c; _ }, arg) ->
      Tyenv.find_con tyenv c <> None && is_syntactic_value tyenv arg
  | Ast.Eannot (e, _) -> is_syntactic_value tyenv e
  | _ -> false

let con_mismatch loc c = err loc "constructor %s used with the wrong number of arguments" c

(* --- patterns ------------------------------------------------------------- *)

(* Check a pattern against an expected type, returning the typed pattern and
   the (monomorphic) variable bindings it introduces. *)
let rec check_pat env (p : Ast.pat) expected : Tast.tpat * (string * M.t) list =
  let loc = p.Ast.ploc in
  match p.Ast.pdesc with
  | Ast.Pwild -> ({ Tast.tpdesc = Tast.TPwild; tpty = expected; tploc = loc }, [])
  | Ast.Pint n ->
      unify_at loc expected M.tint;
      ({ Tast.tpdesc = Tast.TPint n; tpty = expected; tploc = loc }, [])
  | Ast.Pbool b ->
      unify_at loc expected M.tbool;
      ({ Tast.tpdesc = Tast.TPbool b; tpty = expected; tploc = loc }, [])
  | Ast.Pchar c ->
      unify_at loc expected M.tchar;
      ({ Tast.tpdesc = Tast.TPchar c; tpty = expected; tploc = loc }, [])
  | Ast.Pstring s ->
      unify_at loc expected M.tstring;
      ({ Tast.tpdesc = Tast.TPstring s; tpty = expected; tploc = loc }, [])
  | Ast.Pvar x -> begin
      match Tyenv.find_con env.tyenv x with
      | Some ci ->
          if ci.Tyenv.con_arg <> None then con_mismatch loc x;
          let t, inst = M.instantiate_mapped ~level:env.level (Tyenv.con_scheme ci) in
          unify_at loc expected t;
          ({ Tast.tpdesc = Tast.TPcon (x, inst, None); tpty = expected; tploc = loc }, [])
      | None -> ({ Tast.tpdesc = Tast.TPvar x; tpty = expected; tploc = loc }, [ (x, expected) ])
    end
  | Ast.Ptuple [] ->
      unify_at loc expected M.tunit;
      ({ Tast.tpdesc = Tast.TPtuple []; tpty = expected; tploc = loc }, [])
  | Ast.Ptuple ps ->
      let elt_types = List.map (fun _ -> M.fresh_var ~level:env.level) ps in
      unify_at loc expected (M.Ttuple elt_types);
      let tps, bindings =
        List.fold_left2
          (fun (tps, bs) p t ->
            let tp, b = check_pat env p t in
            (tp :: tps, bs @ b))
          ([], []) ps elt_types
      in
      ({ Tast.tpdesc = Tast.TPtuple (List.rev tps); tpty = expected; tploc = loc }, bindings)
  | Ast.Pcon (c, arg) -> begin
      match Tyenv.find_con env.tyenv c with
      | None -> err loc "unknown constructor %s" c
      | Some ci -> (
          let t, inst = M.instantiate_mapped ~level:env.level (Tyenv.con_scheme ci) in
          match (arg, M.repr t) with
          | None, _ ->
              if ci.Tyenv.con_arg <> None then con_mismatch loc c;
              unify_at loc expected t;
              ({ Tast.tpdesc = Tast.TPcon (c, inst, None); tpty = expected; tploc = loc }, [])
          | Some parg, M.Tarrow (arg_ty, result_ty) ->
              unify_at loc expected result_ty;
              let tp, bindings = check_pat env parg arg_ty in
              ( { Tast.tpdesc = Tast.TPcon (c, inst, Some tp); tpty = expected; tploc = loc },
                bindings )
          | Some _, _ -> con_mismatch loc c)
    end

let check_no_duplicates loc bindings =
  let rec go seen = function
    | [] -> ()
    | (x, _) :: rest ->
        if List.mem x seen then err loc "variable %s is bound twice in this pattern" x
        else go (x :: seen) rest
  in
  go [] bindings

let bind_monomorphic env bindings =
  {
    env with
    vals = List.fold_left (fun m (x, t) -> SMap.add x (M.mono t) m) env.vals bindings;
  }

(* --- expressions ------------------------------------------------------------ *)

let rec infer_exp env (e : Ast.exp) : Tast.texp =
  let loc = e.Ast.eloc in
  let mk tdesc tty = { Tast.tdesc; tty; tloc = loc } in
  match e.Ast.edesc with
  | Ast.Eint n -> mk (Tast.TEint n) M.tint
  | Ast.Ebool b -> mk (Tast.TEbool b) M.tbool
  | Ast.Echar c -> mk (Tast.TEchar c) M.tchar
  | Ast.Estring s -> mk (Tast.TEstring s) M.tstring
  | Ast.Evar x -> begin
      match Tyenv.find_con env.tyenv x with
      | Some ci ->
          let t, inst = M.instantiate_mapped ~level:env.level (Tyenv.con_scheme ci) in
          mk (Tast.TEcon (x, inst, None)) t
      | None -> (
          match SMap.find_opt x env.vals with
          | Some scheme ->
              let t, inst = M.instantiate_mapped ~level:env.level scheme in
              mk (Tast.TEvar (x, inst)) t
          | None -> err loc "unbound variable %s" x)
    end
  | Ast.Etuple [] -> mk (Tast.TEtuple []) M.tunit
  | Ast.Etuple es ->
      let tes = List.map (infer_exp env) es in
      mk (Tast.TEtuple tes) (M.Ttuple (List.map (fun te -> te.Tast.tty) tes))
  | Ast.Eapp (f, a) -> begin
      let tf = infer_exp env f in
      let ta = infer_exp env a in
      let result = M.fresh_var ~level:env.level in
      unify_at loc tf.Tast.tty (M.Tarrow (ta.Tast.tty, result));
      (* fold constructor applications into the constructor node *)
      match tf.Tast.tdesc with
      | Tast.TEcon (c, inst, None) -> mk (Tast.TEcon (c, inst, Some ta)) result
      | _ -> mk (Tast.TEapp (tf, ta)) result
    end
  | Ast.Eif (c, t, f) ->
      let tc = infer_exp env c in
      unify_at c.Ast.eloc tc.Tast.tty M.tbool;
      let tt = infer_exp env t in
      let tf = infer_exp env f in
      unify_at loc tf.Tast.tty tt.Tast.tty;
      mk (Tast.TEif (tc, tt, tf)) tt.Tast.tty
  | Ast.Ecase (scrut, arms) ->
      let ts = infer_exp env scrut in
      let result = M.fresh_var ~level:env.level in
      let tarms =
        List.map
          (fun (p, body) ->
            let tp, bindings = check_pat env p ts.Tast.tty in
            check_no_duplicates p.Ast.ploc bindings;
            let tbody = infer_exp (bind_monomorphic env bindings) body in
            unify_at body.Ast.eloc tbody.Tast.tty result;
            (tp, tbody))
          arms
      in
      check_coverage env ~what:"case expression" ~loc ~arity:1
        (List.map (fun (tp, _) -> [ tp ]) tarms)
        (List.map (fun (p, _) -> p.Ast.ploc) arms);
      mk (Tast.TEcase (ts, tarms)) result
  | Ast.Efn (p, body) ->
      let arg = M.fresh_var ~level:env.level in
      let tp, bindings = check_pat env p arg in
      check_no_duplicates p.Ast.ploc bindings;
      let tbody = infer_exp (bind_monomorphic env bindings) body in
      check_coverage env ~what:"fn pattern" ~loc ~arity:1 [ [ tp ] ] [ p.Ast.ploc ];
      mk (Tast.TEfn (tp, tbody)) (M.Tarrow (arg, tbody.Tast.tty))
  | Ast.Elet (decs, body) ->
      let env', tdecs =
        List.fold_left
          (fun (env, acc) d ->
            let env', td = infer_dec env d in
            (env', td :: acc))
          (env, []) decs
      in
      let tbody = infer_exp env' body in
      mk (Tast.TElet (List.rev tdecs, tbody)) tbody.Tast.tty
  | Ast.Eandalso (a, b) ->
      let ta = infer_exp env a and tb = infer_exp env b in
      unify_at a.Ast.eloc ta.Tast.tty M.tbool;
      unify_at b.Ast.eloc tb.Tast.tty M.tbool;
      mk (Tast.TEandalso (ta, tb)) M.tbool
  | Ast.Eorelse (a, b) ->
      let ta = infer_exp env a and tb = infer_exp env b in
      unify_at a.Ast.eloc ta.Tast.tty M.tbool;
      unify_at b.Ast.eloc tb.Tast.tty M.tbool;
      mk (Tast.TEorelse (ta, tb)) M.tbool
  | Ast.Eannot (inner, st) ->
      let te = infer_exp env inner in
      unify_at loc te.Tast.tty (erase_at loc env st);
      mk (Tast.TEannot (te, st)) te.Tast.tty
  | Ast.Eraise inner ->
      let te = infer_exp env inner in
      unify_at inner.Ast.eloc te.Tast.tty (M.Tcon ("exn", []));
      (* raise never returns: its type is free *)
      mk (Tast.TEraise te) (M.fresh_var ~level:env.level)
  | Ast.Ehandle (body, arms) ->
      let tbody = infer_exp env body in
      let tarms =
        List.map
          (fun (p, arm) ->
            let tp, bindings = check_pat env p (M.Tcon ("exn", [])) in
            check_no_duplicates p.Ast.ploc bindings;
            let tarm = infer_exp (bind_monomorphic env bindings) arm in
            unify_at arm.Ast.eloc tarm.Tast.tty tbody.Tast.tty;
            (tp, tarm))
          arms
      in
      (* handlers are allowed to be partial (unmatched exceptions re-raise),
         so no exhaustiveness warning; redundancy still warns *)
      (match Coverage.check_rows env.tyenv ~arity:1 (List.map (fun (tp, _) -> [ tp ]) tarms) with
      | Error () -> ()
      | Ok redundant ->
          List.iter
            (fun i ->
              match List.nth_opt arms i with
              | Some (p, _) -> warn env p.Ast.ploc "this handle case is unused"
              | None -> ())
            redundant);
      mk (Tast.TEhandle (tbody, tarms)) tbody.Tast.tty

(* --- declarations ------------------------------------------------------------ *)

and infer_dec env (d : Ast.dec) : env * Tast.tdec =
  let loc = d.Ast.dloc in
  match d.Ast.ddesc with
  | Ast.Dval (p, e, annot) ->
      let inner = { env with level = env.level + 1 } in
      let te = infer_exp inner e in
      Option.iter (fun st -> unify_at loc te.Tast.tty (erase_at loc inner st)) annot;
      let tp, bindings = check_pat inner p te.Tast.tty in
      check_no_duplicates p.Ast.ploc bindings;
      check_coverage env ~what:"val binding" ~loc ~arity:1 [ [ tp ] ] [ p.Ast.ploc ];
      let generalisable = is_syntactic_value env.tyenv e in
      let bound =
        List.map
          (fun (x, t) ->
            let scheme =
              if generalisable then begin
                ignore (M.generalize ~level:env.level t);
                scheme_of t
              end
              else M.mono t
            in
            (x, scheme))
          bindings
      in
      let env' =
        { env with vals = List.fold_left (fun m (x, s) -> SMap.add x s m) env.vals bound }
      in
      let var_scheme =
        match bound with [ (_, s) ] -> s | _ -> M.mono te.Tast.tty
      in
      (env', Tast.TDval (tp, te, annot, var_scheme))
  | Ast.Dexception (name, arg) -> begin
      match Tyenv.add_exception env.tyenv name arg with
      | tyenv ->
          let con_arg =
            match Tyenv.find_con tyenv name with Some ci -> ci.Tyenv.con_arg | None -> None
          in
          ({ env with tyenv }, Tast.TDexception (name, con_arg))
      | exception Tyenv.Error msg -> err loc "%s" msg
    end
  | Ast.Dfun fds ->
      let inner_level = env.level + 1 in
      let inner = { env with level = inner_level } in
      (* assumed types for the mutually recursive group *)
      let assumed =
        List.map
          (fun (fd : Ast.fundef) ->
            let t =
              match fd.Ast.fannot with
              | Some st -> erase_at fd.Ast.floc inner st
              | None -> M.fresh_var ~level:inner_level
            in
            (fd, t))
          fds
      in
      let rec_env =
        {
          inner with
          vals =
            List.fold_left
              (fun m ((fd : Ast.fundef), t) -> SMap.add fd.Ast.fname (M.mono t) m)
              inner.vals assumed;
        }
      in
      let tfds =
        List.map
          (fun ((fd : Ast.fundef), assumed_ty) ->
            let arity =
              match fd.Ast.fclauses with
              | (ps, _) :: _ -> List.length ps
              | [] -> err fd.Ast.floc "function %s has no clauses" fd.Ast.fname
            in
            let tclauses =
              List.map
                (fun (ps, body) ->
                  if List.length ps <> arity then
                    err fd.Ast.floc "clauses of %s have different arities" fd.Ast.fname;
                  (* decompose the assumed type into [arity] arrows *)
                  let arg_tys = List.map (fun _ -> M.fresh_var ~level:inner_level) ps in
                  let body_ty = M.fresh_var ~level:inner_level in
                  let arrow =
                    List.fold_right (fun a acc -> M.Tarrow (a, acc)) arg_tys body_ty
                  in
                  unify_at fd.Ast.floc assumed_ty arrow;
                  let tps, env_with_args =
                    List.fold_left2
                      (fun (tps, env) p t ->
                        let tp, bindings = check_pat rec_env p t in
                        check_no_duplicates p.Ast.ploc bindings;
                        (tp :: tps, bind_monomorphic env bindings))
                      ([], rec_env) ps arg_tys
                  in
                  let tbody = infer_exp env_with_args body in
                  unify_at body.Ast.eloc tbody.Tast.tty body_ty;
                  (List.rev tps, tbody))
                fd.Ast.fclauses
            in
            check_coverage env ~what:(Printf.sprintf "function %s" fd.Ast.fname)
              ~loc:fd.Ast.floc ~arity
              (List.map (fun (tps, _) -> tps) tclauses)
              (List.map
                 (fun (ps, _) ->
                   match ps with p :: _ -> p.Ast.ploc | [] -> fd.Ast.floc)
                 fd.Ast.fclauses);
            (fd, assumed_ty, tclauses))
          assumed
      in
      (* generalise the whole group at the outer level *)
      let tfds =
        List.map
          (fun ((fd : Ast.fundef), assumed_ty, tclauses) ->
            ignore (M.generalize ~level:env.level assumed_ty);
            let scheme = scheme_of assumed_ty in
            {
              Tast.tfname = fd.Ast.fname;
              tftyparams = fd.Ast.ftyparams;
              tfiparams = fd.Ast.fiparams;
              tfclauses = tclauses;
              tfannot = fd.Ast.fannot;
              tfscheme = scheme;
              tfloc = fd.Ast.floc;
            })
          tfds
      in
      let env' =
        {
          env with
          vals =
            List.fold_left
              (fun m (fd : Tast.tfundef) -> SMap.add fd.Tast.tfname fd.Tast.tfscheme m)
              env.vals tfds;
        }
      in
      (env', Tast.TDfun tfds)

(* --- top level ------------------------------------------------------------------ *)

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

let infer_top env (t : Ast.top) : env * Tast.ttop =
  match t with
  | Ast.Tdatatype d -> begin
      match Tyenv.add_datatype env.tyenv d with
      | tyenv -> ({ env with tyenv }, Tast.TTdatatype d)
      | exception Tyenv.Error msg -> raise (Type_error (msg, Loc.dummy))
    end
  | Ast.Ttyperef tr -> begin
      (* structural validation; the index structure is checked in phase 2 *)
      match Tyenv.find_datatype env.tyenv tr.Ast.tr_name with
      | None ->
          raise (Type_error (Printf.sprintf "typeref for unknown datatype %s" tr.Ast.tr_name, Loc.dummy))
      | Some dt ->
          List.iter
            (fun (c, st) ->
              match Tyenv.find_con env.tyenv c with
              | Some ci when ci.Tyenv.con_tycon = tr.Ast.tr_name ->
                  (* the ML erasure of the refined type must match *)
                  let erased = try Tyenv.erase env.tyenv st with Tyenv.Error m -> raise (Type_error (m, Loc.dummy)) in
                  let expected =
                    M.instantiate ~level:1 (Tyenv.con_scheme ci)
                  in
                  (try M.unify erased expected
                   with M.Unify_error _ ->
                     raise
                       (Type_error
                          ( Printf.sprintf
                              "typeref for %s does not erase to its ML constructor type" c,
                            Loc.dummy )))
              | _ ->
                  raise
                    (Type_error
                       ( Printf.sprintf "constructor %s does not belong to datatype %s" c
                           tr.Ast.tr_name,
                         Loc.dummy )))
            tr.Ast.tr_cons;
          ignore dt;
          (env, Tast.TTtyperef tr)
    end
  | Ast.Tassert asserts ->
      let env =
        List.fold_left
          (fun env (name, st) ->
            let erased = try Tyenv.erase env.tyenv st with Tyenv.Error m -> raise (Type_error (m, Loc.dummy)) in
            let scheme = { M.svars = free_stype_tyvars st; sbody = erased } in
            { env with vals = SMap.add name scheme env.vals })
          env asserts
      in
      (env, Tast.TTassert asserts)
  | Ast.Ttypedef (name, st) -> begin
      match Tyenv.add_abbrev env.tyenv name st with
      | tyenv -> ({ env with tyenv }, Tast.TTtypedef (name, st))
      | exception Tyenv.Error msg -> raise (Type_error (msg, Loc.dummy))
    end
  | Ast.Tdec d ->
      let env', td = infer_dec env d in
      (env', Tast.TTdec td)

let infer_program env prog =
  let env', tops =
    List.fold_left
      (fun (env, acc) top ->
        let env', ttop = infer_top env top in
        (env', ttop :: acc))
      (env, []) prog
  in
  (env', Tast.zonk_program (List.rev tops))
