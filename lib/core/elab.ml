open Dml_index
open Dml_lang
open Dml_constr
open Dml_mltype
module SMap = Denv.SMap

exception Error of string * Loc.t

let err loc fmt = Format.kasprintf (fun msg -> raise (Error (msg, loc))) fmt

type obligation = { ob_constr : Constr.t; ob_loc : Loc.t; ob_what : string }

type entry = Euni of Ivar.t * Idx.sort | Ehyp of Idx.bexp

type ctx = {
  denv : Denv.t;
  entries : entry list;  (* innermost first *)
  iscope : Denv.iscope;
  vals : Denv.dscheme SMap.t;
}

type st = { mutable obligations : obligation list }

let initial_ctx denv = { denv; entries = []; iscope = SMap.empty; vals = SMap.empty }

(* Wrap a constraint in the context prefix, innermost entry first. *)
let close_over entries phi =
  List.fold_left
    (fun phi entry ->
      match entry with
      | Euni (v, g) -> Constr.forall v g phi
      | Ehyp b -> Constr.impl b phi)
    phi entries

let emit st ctx ~loc ~what phi =
  let phi = close_over ctx.entries phi in
  if not (Constr.is_top phi) then
    st.obligations <- { ob_constr = phi; ob_loc = loc; ob_what = what } :: st.obligations

let push_uni ctx v g =
  let entries = Euni (v, g) :: ctx.entries in
  let entries =
    match Idx.sort_refinement v g with
    | Idx.Bconst true -> entries
    | refinement -> Ehyp refinement :: entries
  in
  { ctx with entries; iscope = SMap.add (Ivar.name v) (v, g) ctx.iscope }

let push_hyp ctx b =
  match b with Idx.Bconst true -> ctx | _ -> { ctx with entries = Ehyp b :: ctx.entries }

let bind_val ctx x ds = { ctx with vals = SMap.add x ds ctx.vals }
let bind_mono ctx x ty = bind_val ctx x { Denv.ds_tyvars = []; ds_body = ty }

let open_into_ctx ctx ty =
  let opened, ty = Dtype.open_sigmas ty in
  let ctx = List.fold_left (fun ctx (v, g) -> push_uni ctx v g) ctx opened in
  (ctx, ty)

(* Introduce the leading Pi binders of [ty] as fresh universals. *)
let push_pis ctx ty =
  let ctx = ref ctx in
  let pi v g =
    let v' = Ivar.refresh v in
    ctx := push_uni !ctx v' g;
    v'
  in
  let ty = Dtype.open_prefix ~pi ty in
  (!ctx, ty)

let lookup_val ctx x =
  match SMap.find_opt x ctx.vals with Some ds -> Some ds | None -> Denv.find_val ctx.denv x

let resolve_at loc ctx stype =
  try Denv.resolve_stype ctx.denv ctx.iscope stype with Denv.Error msg -> err loc "%s" msg

(* --- coercion with flexible index variables -------------------------------- *)

(* A flexible variable stands for an index to be determined by matching: the
   instantiation of a Pi at an application site, or the witness of a Sigma
   on the expected side.  Matching determines most of them syntactically
   (the eager analogue of the paper's existential-variable elimination);
   undetermined ones are emitted under an explicit existential quantifier
   and handled by {!Constr.eliminate_existentials} at solve time. *)
type flex = { fvar : Ivar.t; fsort : Idx.sort; mutable fsol : Dtype.index option }

type tyflex = { tname : string; tfallback : Dtype.t; mutable tsol : Dtype.t option }

type cstate = {
  mutable added : entry list;  (* opened universals/hypotheses, innermost first *)
  mutable pending : Idx.bexp list;  (* equations to prove *)
  mutable flexes : flex list;  (* newest first *)
  mutable tyflexes : tyflex list;
    (* ML type variables of the applied value's scheme, solved by matching
       the argument's dependent type so that indexed instantiations (e.g.
       ['a := int array(n)]) keep their indices; unsolved ones fall back to
       the embedding of the phase-1 instantiation *)
  cloc : Loc.t;
  cwhat : string;
}

let new_cstate loc what =
  { added = []; pending = []; flexes = []; tyflexes = []; cloc = loc; cwhat = what }

let find_tyflex cs v = List.find_opt (fun t -> t.tname = v) cs.tyflexes

let new_flex cs v g =
  let f = { fvar = Ivar.refresh v; fsort = g; fsol = None } in
  cs.flexes <- f :: cs.flexes;
  f

let find_flex cs v = List.find_opt (fun f -> Ivar.equal f.fvar v) cs.flexes

(* A fresh universal for an actual binder, recorded with its refinement. *)
let open_actual cs v g =
  let v' = Ivar.refresh v in
  cs.added <- Euni (v', g) :: cs.added;
  (match Idx.sort_refinement v' g with
  | Idx.Bconst true -> ()
  | refinement -> cs.added <- Ehyp refinement :: cs.added);
  v'

(* [body] with its binder [v] replaced by [v'] *)
let instantiate v v' body =
  Dtype.subst (Ivar.Map.singleton v (Idx.Ivar v')) (Ivar.Map.singleton v (Idx.Bvar v')) body

(* Substitution of solved flexes into indices. *)
let flex_subst_maps cs =
  List.fold_left
    (fun (im, bm) f ->
      match f.fsol with
      | Some (Dtype.Iint i) -> (Ivar.Map.add f.fvar i im, bm)
      | Some (Dtype.Ibool b) -> (im, Ivar.Map.add f.fvar b bm)
      | None -> (im, bm))
    (Ivar.Map.empty, Ivar.Map.empty)
    cs.flexes

let same_index a b =
  match (a, b) with
  | Dtype.Iint i, Dtype.Iint j -> Idx.equal_iexp i j
  | Dtype.Ibool p, Dtype.Ibool q -> Idx.equal_bexp p q
  | (Dtype.Iint _ | Dtype.Ibool _), _ -> false

(* Structural matching of an actual type against an expected one.

   [variance] controls how an unsolved scheme type variable is instantiated:
   at an invariant occurrence (inside a type constructor's arguments, where
   the value may be read back and written) the variable is bound to the
   other side exactly, preserving its indices (so [sub] on an
   [int array(c) array(r)] row keeps [c]); at a covariant occurrence the
   variable takes its ML embedding (indices existential) and the actual type
   coerces into it (so [3 :: nil] builds an [int list], not an
   [int(3) list]). *)
let rec coerce cs variance actual expected =
  let open Dtype in
  match (actual, expected) with
  | Dvar x, Dvar y when x = y -> ()
  (* scheme type variables solved by matching; these bind the whole type on
     the other side, existential binders included, so they come first *)
  | _, Dvar y when find_tyflex cs y <> None ->
      solve_tyflex cs variance (Option.get (find_tyflex cs y)) ~actual:(Some actual)
        ~expected:None
  | Dvar x, _ when find_tyflex cs x <> None ->
      solve_tyflex cs variance (Option.get (find_tyflex cs x)) ~actual:None
        ~expected:(Some expected)
  (* open actual existentials into the local context *)
  | Dsigma (v, g, body), _ -> coerce cs variance (instantiate v (open_actual cs v g) body) expected
  (* flexible witness for an expected existential *)
  | _, Dsigma (v, g, body) ->
      let f = new_flex cs v g in
      coerce cs variance actual (instantiate v f.fvar body)
  (* flexible instantiation of an actual universal *)
  | Dpi (v, g, body), _ ->
      let f = new_flex cs v g in
      coerce cs variance (instantiate v f.fvar body) expected
  (* checking against a universal: push it *)
  | _, Dpi (v, g, body) -> coerce cs variance actual (instantiate v (open_actual cs v g) body)
  | Dtuple xs, Dtuple ys when List.length xs = List.length ys ->
      List.iter2 (coerce cs variance) xs ys
  | Darrow (a1, b1), Darrow (a2, b2) ->
      coerce cs variance a2 a1;
      coerce cs variance b1 b2
  | Dcon (c1, t1, i1), Dcon (c2, t2, i2)
    when c1 = c2 && List.length t1 = List.length t2 && List.length i1 = List.length i2 ->
      List.iter2 (coerce cs `Inv) t1 t2;
      List.iter2 (match_index cs) i1 i2
  | _ ->
      err cs.cloc "type mismatch in %s: %s does not match %s" cs.cwhat (Dtype.to_string actual)
        (Dtype.to_string expected)

and solve_tyflex cs variance t ~actual ~expected =
  let other = match (actual, expected) with
    | Some a, None -> a
    | None, Some e -> e
    | _ -> assert false
  in
  match t.tsol with
  | Some sol -> begin
      match (actual, expected) with
      | Some a, None -> coerce cs variance a sol
      | None, Some e -> coerce cs variance sol e
      | _ -> assert false
    end
  | None -> (
      match variance with
      | `Inv -> t.tsol <- Some other
      | `Cov ->
          t.tsol <- Some t.tfallback;
          (match (actual, expected) with
          | Some a, None -> coerce cs variance a t.tfallback
          | None, Some e -> coerce cs variance t.tfallback e
          | _ -> assert false))

and match_index cs iact iexp =
  let im, bm = flex_subst_maps cs in
  let iact = Dtype.subst_index im bm iact in
  let iexp = Dtype.subst_index im bm iexp in
  let try_assign candidate other =
    match candidate with
    | Dtype.Iint (Idx.Ivar v) | Dtype.Ibool (Idx.Bvar v) -> (
        match find_flex cs v with
        | Some f when f.fsol = None ->
            (* kind check *)
            (match (Idx.base_sort f.fsort, other) with
            | Idx.Sint, Dtype.Iint _ | Idx.Sbool, Dtype.Ibool _ -> ()
            | _ -> err cs.cloc "index kind mismatch in %s" cs.cwhat);
            f.fsol <- Some other;
            true
        | _ -> false)
    | _ -> false
  in
  if try_assign iexp iact then ()
  else if try_assign iact iexp then ()
  else if same_index iact iexp then () (* reflexive equations carry no content *)
  else
    match Dtype.index_eq iact iexp with
    | eq -> cs.pending <- eq :: cs.pending
    | exception Invalid_argument _ -> err cs.cloc "index kind mismatch in %s" cs.cwhat

(* Finish a coercion: substitute solved flexes, deal with unsolved ones, and
   emit the accumulated obligations.  The existentials opened from actual
   types during the coercion become part of the caller's context (they are
   witnesses whose scope extends over the remaining program), so the
   extended context is returned together with the result type, which has
   solutions applied and undetermined result-only flexes re-generalised as
   Pi binders. *)
let finish_coerce st ctx cs ?result () =
  (* iterate substitution: a solution may mention other flexes *)
  let rec settle n =
    let im, bm = flex_subst_maps cs in
    let changed = ref false in
    List.iter
      (fun f ->
        match f.fsol with
        | Some sol ->
            let sol' = Dtype.subst_index im bm sol in
            if not (same_index sol sol') then begin
              f.fsol <- Some sol';
              changed := true
            end
        | None -> ())
      cs.flexes;
    if !changed && n < 16 then settle (n + 1)
  in
  settle 0;
  (* resolve the scheme type variables: matched solution or ML fallback *)
  let tysub =
    List.map
      (fun t -> (t.tname, match t.tsol with Some sol -> sol | None -> t.tfallback))
      cs.tyflexes
  in
  let result = Option.map (Dtype.subst_tyvars tysub) result in
  let im, bm = flex_subst_maps cs in
  (* refinement obligations for solved flexes; these may mention other
     flexes, so they are collected raw and substituted with everything else *)
  let refinements =
    List.filter_map
      (fun f ->
        match f.fsol with
        | None -> None
        | Some _ -> (
            match Idx.sort_refinement f.fvar f.fsort with
            | Idx.Bconst true -> None
            | refinement -> Some refinement))
      cs.flexes
  in
  let pending =
    List.rev_map (fun b -> Idx.subst_bvar bm (Idx.subst_bexp im b)) (refinements @ cs.pending)
  in
  let result = Option.map (Dtype.subst im bm) result in
  (* classify unsolved flexes *)
  let unsolved = List.filter (fun f -> f.fsol = None) cs.flexes in
  let existentials, regeneralised =
    List.partition
      (fun f ->
        let in_result = match result with Some t -> Dtype.occurs f.fvar t | None -> false in
        if in_result && List.exists (Idx.occurs_bexp f.fvar) pending then
          err cs.cloc "cannot determine index %s in %s" (Ivar.name f.fvar) cs.cwhat;
        not in_result)
      unsolved
  in
  (* an unsolved flex's sort may mention solved ones *)
  let sort f = Idx.subst_sort im bm f.fsort in
  (* existential flexes: refinement becomes part of the existential body *)
  let phi =
    Constr.conj_list
      (List.map Constr.pred pending)
  in
  let phi =
    List.fold_left
      (fun phi f ->
        let refinement = Idx.sort_refinement f.fvar (sort f) in
        let inner = Constr.conj (Constr.pred refinement) phi in
        if Constr.occurs f.fvar inner then Constr.Exists (f.fvar, Idx.base_sort f.fsort, inner)
        else phi)
      phi existentials
  in
  (* opened existential witnesses join the enclosing context *)
  let ctx = { ctx with entries = cs.added @ ctx.entries } in
  emit st ctx ~loc:cs.cloc ~what:cs.cwhat phi;
  (* re-generalise result-only flexes, newest innermost *)
  match result with
  | None -> (ctx, None)
  | Some t ->
      let t =
        List.fold_left (fun t f -> Dtype.Dpi (f.fvar, sort f, t)) t regeneralised
      in
      (ctx, Some t)

let subsume st ctx ~loc ~what actual expected =
  let cs = new_cstate loc what in
  coerce cs `Cov actual expected;
  fst (finish_coerce st ctx cs ())

(* Apply a (possibly Pi-quantified) function type to an argument type.
   [tyvars] gives the ML type variables of the function's scheme with their
   phase-1 instantiation embeddings, to be refined by dependent matching.
   The function type's quantifier prefix is opened in one pass: a Pi binder
   becomes a flex, a Sigma binder a fresh universal. *)
let apply_type st ctx ~loc ~what ?(tyvars = []) fty argty =
  let cs = new_cstate loc what in
  cs.tyflexes <- List.map (fun (v, fallback) -> { tname = v; tfallback = fallback; tsol = None }) tyvars;
  match Dtype.open_prefix ~pi:(fun v g -> (new_flex cs v g).fvar) ~sigma:(open_actual cs) fty with
  | Dtype.Darrow (dom, cod) -> begin
      coerce cs `Cov argty dom;
      match finish_coerce st ctx cs ~result:cod () with
      | ctx, Some t -> (ctx, t)
      | _, None -> assert false
    end
  | t -> err loc "%s: this expression of type %s is not a function" what (Dtype.to_string t)

(* --- helpers ------------------------------------------------------------------ *)

let bool_index_of ty =
  match ty with Dtype.Dcon ("bool", [], [ Dtype.Ibool b ]) -> Some b | _ -> None

let describe_var = function
  | "sub" | "update" | "nth" -> "bound check for"
  | _ -> "use of"

(* --- patterns ------------------------------------------------------------------- *)

(* Dependent pattern checking: the scrutinee has type [sty]; constructor
   quantifiers become fresh universal variables and the equations between
   the constructor's result indices and the scrutinee's indices become
   hypotheses (this is where the implications of Section 3 arise). *)
let rec pat_dep st ctx (p : Tast.tpat) sty =
  let ctx, sty = open_into_ctx ctx sty in
  let loc = p.Tast.tploc in
  match p.Tast.tpdesc with
  | Tast.TPwild -> ctx
  | Tast.TPvar x -> bind_mono ctx x sty
  | Tast.TPint n -> begin
      match sty with
      | Dtype.Dcon ("int", [], [ Dtype.Iint i ]) ->
          push_hyp ctx (Idx.cmp Idx.Req i (Idx.Iconst n))
      | _ -> ctx
    end
  | Tast.TPchar _ -> ctx
  | Tast.TPstring s -> begin
      (* matching a string literal pins the scrutinee's length *)
      match sty with
      | Dtype.Dcon ("string", [], [ Dtype.Iint i ]) ->
          push_hyp ctx (Idx.cmp Idx.Req i (Idx.Iconst (String.length s)))
      | _ -> ctx
    end
  | Tast.TPbool b -> begin
      match bool_index_of sty with
      | Some p -> push_hyp ctx (if b then p else Idx.bnot p)
      | None -> ctx
    end
  | Tast.TPtuple ps -> begin
      match sty with
      | Dtype.Dtuple tys when List.length tys = List.length ps ->
          List.fold_left2 (fun ctx p ty -> pat_dep st ctx p ty) ctx ps tys
      | _ ->
          (* fall back to the ML embedding of the pattern's type *)
          let emb = Denv.embed ctx.denv p.Tast.tpty in
          let ctx, emb = open_into_ctx ctx emb in
          (match emb with
          | Dtype.Dtuple tys when List.length tys = List.length ps ->
              List.fold_left2 (fun ctx p ty -> pat_dep st ctx p ty) ctx ps tys
          | _ -> err loc "tuple pattern against non-tuple type %s" (Dtype.to_string sty))
    end
  | Tast.TPcon (c, inst, argp) -> begin
      let condty =
        try Denv.con_dtype ctx.denv c with Denv.Error msg -> err loc "%s" msg
      in
      let condty =
        Dtype.subst_tyvars (List.map (fun (v, t) -> (v, Denv.embed ctx.denv t)) inst) condty
      in
      (* refresh and universally introduce the constructor's index params *)
      let ctx, body = push_pis ctx condty in
      let argty, resty =
        match body with
        | Dtype.Darrow (a, r) -> (Some a, r)
        | r -> (None, r)
      in
      (* hypotheses equating the constructor's result indices with the
         scrutinee's *)
      let ctx =
        match (resty, sty) with
        | Dtype.Dcon (_, _, ridxs), Dtype.Dcon (_, _, sidxs)
          when List.length ridxs = List.length sidxs ->
            List.fold_left2
              (fun ctx ri si ->
                match Dtype.index_eq ri si with
                | eq -> push_hyp ctx eq
                | exception Invalid_argument _ -> ctx)
              ctx ridxs sidxs
        | _ -> ctx
      in
      match (argp, argty) with
      | None, None -> ctx
      | Some ap, Some at -> pat_dep st ctx ap at
      | Some _, None | None, Some _ -> err loc "constructor %s arity mismatch" c
    end

(* --- expressions -------------------------------------------------------------------- *)

let rec syn st ctx (e : Tast.texp) : ctx * Dtype.t =
  let loc = e.Tast.tloc in
  match e.Tast.tdesc with
  | Tast.TEint n -> (ctx, Dtype.int_ (Idx.Iconst n))
  | Tast.TEbool b -> (ctx, Dtype.bool_ (Idx.Bconst b))
  | Tast.TEchar _ -> (ctx, Dtype.Dcon ("char", [], []))
  | Tast.TEstring s ->
      (* a string literal is a singleton of its length *)
      (ctx, Dtype.Dcon ("string", [], [ Dtype.Iint (Idx.Iconst (String.length s)) ]))
  | Tast.TEvar (x, inst) -> begin
      match lookup_val ctx x with
      | None -> err loc "unbound variable %s (phase 2)" x
      | Some ds ->
          let ty = Denv.instantiate ds inst ctx.denv in
          open_into_ctx ctx ty
    end
  | Tast.TEcon (c, inst, None) ->
      let ty = try Denv.con_dtype ctx.denv c with Denv.Error msg -> err loc "%s" msg in
      let ty = Dtype.subst_tyvars (List.map (fun (v, t) -> (v, Denv.embed ctx.denv t)) inst) ty in
      open_into_ctx ctx ty
  | Tast.TEcon (c, inst, Some arg) ->
      let conty = try Denv.con_dtype ctx.denv c with Denv.Error msg -> err loc "%s" msg in
      let tyvars = List.map (fun (v, t) -> (v, Denv.embed ctx.denv t)) inst in
      let ctx, argty = syn st ctx arg in
      let what = Printf.sprintf "argument of constructor %s" c in
      let ctx, resty = apply_type st ctx ~loc ~what ~tyvars conty argty in
      open_into_ctx ctx resty
  | Tast.TEtuple es ->
      let ctx, tys =
        List.fold_left
          (fun (ctx, tys) e ->
            let ctx, ty = syn st ctx e in
            (ctx, ty :: tys))
          (ctx, []) es
      in
      (ctx, Dtype.Dtuple (List.rev tys))
  | Tast.TEapp (f, a) -> begin
      let what =
        match f.Tast.tdesc with
        | Tast.TEvar (x, _) -> Printf.sprintf "%s %s" (describe_var x) x
        | _ -> "function application"
      in
      (* When the head is a variable of polymorphic signature, defer the
         instantiation of its ML type variables to dependent matching so an
         indexed instantiation (e.g. 'a := int array(n)) keeps its index. *)
      match f.Tast.tdesc with
      | Tast.TEvar (x, inst) when lookup_val ctx x <> None ->
          let ds = Option.get (lookup_val ctx x) in
          let tyvars =
            List.map
              (fun v ->
                match List.assoc_opt v inst with
                | Some mlty -> (v, Denv.embed ctx.denv mlty)
                | None -> (v, Dtype.Dvar v))
              ds.Denv.ds_tyvars
          in
          let ctx, aty = syn st ctx a in
          let ctx, resty = apply_type st ctx ~loc ~what ~tyvars ds.Denv.ds_body aty in
          open_into_ctx ctx resty
      | _ ->
          let ctx, fty = syn st ctx f in
          let ctx, aty = syn st ctx a in
          let ctx, resty = apply_type st ctx ~loc ~what fty aty in
          open_into_ctx ctx resty
    end
  | Tast.TEannot (inner, stype) ->
      let ty = resolve_at loc ctx stype in
      check st ctx inner ty;
      open_into_ctx ctx ty
  | Tast.TEandalso (a, b) -> syn_short_circuit st ctx ~negate_first:false a b
  | Tast.TEorelse (a, b) -> syn_short_circuit st ctx ~negate_first:true a b
  | Tast.TEraise inner ->
      (* the raised value is checked; the raise itself never returns, so its
         type imposes nothing *)
      check st ctx inner (Dtype.Dcon ("exn", [], []));
      (ctx, Denv.embed ctx.denv e.Tast.tty)
  | Tast.TEif _ | Tast.TEcase _ | Tast.TEfn _ | Tast.TElet _ | Tast.TEhandle _ ->
      (* fall back to checking against the ML embedding (conservativity) *)
      let emb = Denv.embed ctx.denv e.Tast.tty in
      check st ctx e emb;
      open_into_ctx ctx emb

(* [a andalso b]: b is checked under the hypothesis that a holds; the
   hypotheses introduced while analysing b are guarded before they escape to
   the surrounding context (b may not have been evaluated).  [orelse] is the
   same with the hypothesis negated. *)
and syn_short_circuit st ctx ~negate_first a b =
  let ctxa, ta = syn st ctx a in
  let ba = bool_index_of ta in
  match ba with
  | None ->
      (* no index information: treat both operands as plain booleans *)
      let ctxb, _ = syn st ctxa b in
      open_into_ctx ctxb Dtype.bool_any
  | Some ba ->
      let hyp = if negate_first then Idx.bnot ba else ba in
      let guarded = push_hyp ctxa hyp in
      let before = List.length guarded.entries in
      let ctxb, tb = syn st guarded b in
      let bb = bool_index_of tb in
      let added_count = List.length ctxb.entries - before in
      let added = List.filteri (fun i _ -> i < added_count) ctxb.entries in
      (* guard hypotheses from b: they hold only when b was evaluated *)
      let transformed =
        List.map
          (function
            | Ehyp h -> Ehyp (Idx.bor (Idx.bnot hyp) h)
            | Euni _ as e -> e)
          added
      in
      let entries = transformed @ ctxa.entries in
      let ctx' = { ctxb with entries } in
      let result =
        match bb with
        | Some bb ->
            if negate_first then Dtype.bool_ (Idx.bor ba bb) else Dtype.bool_ (Idx.band ba bb)
        | None -> Dtype.bool_any
      in
      open_into_ctx ctx' result

and check st ctx (e : Tast.texp) expected =
  let loc = e.Tast.tloc in
  match expected with
  | Dtype.Dpi _ ->
      let ctx, expected = push_pis ctx expected in
      check st ctx e expected
  | _ -> (
      match e.Tast.tdesc with
      | Tast.TEfn (p, body) -> begin
          match expected with
          | Dtype.Darrow (dom, cod) ->
              let ctx = pat_dep st ctx p dom in
              check st ctx body cod
          | _ ->
              err loc "a function cannot have type %s" (Dtype.to_string expected)
        end
      | Tast.TEif (c, t, f) ->
          let ctx, cty = syn st ctx c in
          let hyp = bool_index_of cty in
          let ctx_t = match hyp with Some b -> push_hyp ctx b | None -> ctx in
          let ctx_f = match hyp with Some b -> push_hyp ctx (Idx.bnot b) | None -> ctx in
          check st ctx_t t expected;
          check st ctx_f f expected
      | Tast.TEcase (scrut, arms) ->
          let ctx, sty = syn st ctx scrut in
          List.iter
            (fun (p, body) ->
              let ctx_arm = pat_dep st ctx p sty in
              check st ctx_arm body expected)
            arms
      | Tast.TEhandle (body, arms) ->
          (* the handler's arms see no index information (an exception may
             arrive from anywhere), so each is checked in the plain context *)
          check st ctx body expected;
          List.iter
            (fun (p, arm) ->
              let ctx_arm = pat_dep st ctx p (Dtype.Dcon ("exn", [], [])) in
              check st ctx_arm arm expected)
            arms
      | Tast.TEraise inner ->
          check st ctx inner (Dtype.Dcon ("exn", [], []))
      | Tast.TElet (decs, body) ->
          let ctx = List.fold_left (fun ctx d -> check_dec st ctx d) ctx decs in
          check st ctx body expected
      | Tast.TEannot (inner, stype) ->
          let ty = resolve_at loc ctx stype in
          check st ctx inner ty;
          ignore (subsume st ctx ~loc ~what:"type annotation" ty expected)
      | _ ->
          let ctx, actual = syn st ctx e in
          ignore (subsume st ctx ~loc ~what:"expression" actual expected))

(* --- declarations ---------------------------------------------------------------------- *)

and check_dec st ctx (d : Tast.tdec) : ctx =
  match d with
  | Tast.TDexception (name, arg) ->
      (* mirror the declaration so constructor lookups during elaboration
         (including for let-local exceptions) can resolve it *)
      let mltyenv = Tyenv.add_exception_erased ctx.denv.Denv.mltyenv name arg in
      { ctx with denv = { ctx.denv with Denv.mltyenv } }
  | Tast.TDval (p, e, annot, scheme) -> begin
      match annot with
      | Some stype ->
          let ty = resolve_at p.Tast.tploc ctx stype in
          check st ctx e ty;
          bind_pattern st ctx p ty scheme
      | None ->
          let ctx, ty = syn st ctx e in
          bind_pattern st ctx p ty scheme
    end
  | Tast.TDfun fds ->
      (* resolve signatures: explicit {a:g} parameter groups scope over the
         where-annotation *)
      let resolved =
        List.map
          (fun (fd : Tast.tfundef) ->
            let iscope', binders =
              List.fold_left
                (fun (scope, binders) q ->
                  match Denv.add_quant ctx.denv scope q with
                  | scope', bs -> (scope', binders @ bs)
                  | exception Denv.Error msg -> err fd.Tast.tfloc "%s" msg)
                (ctx.iscope, []) fd.Tast.tfiparams
            in
            let sig_ty =
              match fd.Tast.tfannot with
              | Some st -> (
                  try Denv.resolve_stype ctx.denv iscope' st
                  with Denv.Error msg -> err fd.Tast.tfloc "%s" msg)
              | None -> Denv.embed ctx.denv fd.Tast.tfscheme.Mltype.sbody
            in
            let exported =
              List.fold_right (fun (v, g) acc -> Dtype.Dpi (v, g, acc)) binders sig_ty
            in
            let ds =
              { Denv.ds_tyvars = fd.Tast.tfscheme.Mltype.svars; ds_body = exported }
            in
            (fd, binders, sig_ty, ds))
          fds
      in
      let ctx_rec =
        List.fold_left (fun ctx (fd, _, _, ds) -> bind_val ctx fd.Tast.tfname ds) ctx resolved
      in
      List.iter
        (fun ((fd : Tast.tfundef), binders, sig_ty, _) ->
          let ctx_f = List.fold_left (fun ctx (v, g) -> push_uni ctx v g) ctx_rec binders in
          List.iter (fun clause -> check_clause st ctx_f fd clause sig_ty) fd.Tast.tfclauses)
        resolved;
      List.fold_left (fun ctx (fd, _, _, ds) -> bind_val ctx fd.Tast.tfname ds) ctx resolved

and check_clause st ctx (fd : Tast.tfundef) (pats, body) sig_ty =
  (* push the signature's Pi prefix, then decompose one arrow per pattern *)
  let rec go ctx pats t =
    match pats with
    | [] -> check st ctx body t
    | p :: rest -> (
        let ctx, t = push_pis ctx t in
        match t with
        | Dtype.Darrow (dom, cod) ->
            let ctx = pat_dep st ctx p dom in
            go ctx rest cod
        | _ ->
            err fd.Tast.tfloc "the type of %s has fewer arrows than its clauses have arguments"
              fd.Tast.tfname)
  in
  go ctx pats sig_ty

and bind_pattern st ctx (p : Tast.tpat) ty scheme =
  match p.Tast.tpdesc with
  | Tast.TPvar x ->
      let ctx, ty = open_into_ctx ctx ty in
      bind_val ctx x { Denv.ds_tyvars = scheme.Mltype.svars; ds_body = ty }
  | _ -> pat_dep st ctx p ty

(* --- top level ------------------------------------------------------------------------- *)

type result = { res_denv : Denv.t; res_obligations : obligation list }

(* Staged elaboration: the exact fold of [elaborate], resumable between
   top-level items.  The carried state is the full elaboration context —
   not just the environment — because a top-level [val] whose type opens
   existential indices pushes universal entries ([Euni]/[Ehyp]) that scope
   over every later obligation's quantifier prefix; exporting only [Denv.t]
   between items would silently drop them.  Keeping the context whole makes
   item-at-a-time elaboration equal to whole-program elaboration by
   construction (the incremental checker's correctness hinges on it). *)
type ectx = ctx

let initial_ectx denv = initial_ctx denv

let elaborate_tops ctx tprog =
  let st = { obligations = [] } in
  let final_ctx =
    List.fold_left
      (fun ctx ttop ->
        match ttop with
        | Tast.TTdatatype d -> { ctx with denv = Denv.add_datatype ctx.denv d }
        | Tast.TTtyperef tr -> begin
            match Denv.process_typeref ctx.denv tr with
            | denv -> { ctx with denv }
            | exception Denv.Error msg -> err Loc.dummy "%s" msg
          end
        | Tast.TTassert asserts ->
            List.fold_left
              (fun ctx (name, stype) ->
                match Denv.add_assert ctx.denv name stype with
                | denv -> { ctx with denv }
                | exception Denv.Error msg -> err Loc.dummy "in assert %s: %s" name msg)
              ctx asserts
        | Tast.TTtypedef (name, stype) -> { ctx with denv = Denv.add_abbrev ctx.denv name stype }
        | Tast.TTdec td -> check_dec st ctx td)
      ctx tprog
  in
  (final_ctx, List.rev st.obligations)

let bind_vals ctx bindings = List.fold_left (fun ctx (x, ds) -> bind_val ctx x ds) ctx bindings

let bound_vals ctx names =
  List.filter_map (fun x -> Option.map (fun ds -> (x, ds)) (SMap.find_opt x ctx.vals)) names

let with_tyenv ctx mltyenv = { ctx with denv = { ctx.denv with Denv.mltyenv } }

(* export the top-level term bindings through the environment *)
let export_denv ctx =
  SMap.fold (fun x ds denv -> Denv.add_val denv x ds) ctx.vals ctx.denv

let elaborate denv tprog =
  let final_ctx, obligations = elaborate_tops (initial_ctx denv) tprog in
  { res_denv = export_denv final_ctx; res_obligations = obligations }
