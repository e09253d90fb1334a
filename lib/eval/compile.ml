open Dml_lang
open Dml_mltype
open Value

(* Compile-time environment: names, innermost first.  Run-time environment:
   values in the same order.  Variable access compiles to a list offset,
   computed once. *)
type cenv = string list
type renv = Value.t list

type compiled_env = {
  names : cenv;
  values : renv;
  fast : (string * Prims.fast) list;  (* direct-call primitives *)
  checked_fast : (string * Prims.fast) list;  (* impls for degraded sites *)
  degraded : Loc.t -> bool;  (* sites that must keep their dynamic check *)
  base_len : int;  (* depth of the primitive region at the bottom of [names] *)
  cost : (int -> unit) option;  (* cost-model hook: charges each node's cycles *)
}

exception Match_failure_dml of string

let no_sites _ = false

let empty fast checked_fast degraded cost =
  { names = []; values = []; fast; checked_fast; degraded; base_len = 0; cost }

let bind_values ce bindings =
  List.fold_left
    (fun ce (x, v) -> { ce with names = x :: ce.names; values = v :: ce.values })
    ce bindings

let initial prims = bind_values (empty [] [] no_sites None) prims

(* [table mode] gives the direct-call primitives of one discipline. *)
let with_prims ?degraded ?cost table mode =
  let fast = table mode in
  (* Under graceful degradation, direct calls at degraded sites and every
     first-class (non-direct) use of a primitive get the checked
     implementation; only direct calls at proven sites stay unchecked. *)
  let checked_fast = match degraded with None -> fast | Some _ -> table Prims.Checked in
  let degraded = Option.value degraded ~default:no_sites in
  let ce =
    bind_values
      (empty fast checked_fast degraded cost)
      (List.map (fun (x, f) -> (x, Prims.value_of_fast f)) checked_fast)
  in
  { ce with base_len = List.length ce.names }

let initial_fast mode ?counters ?degraded () =
  with_prims ?degraded (fun mode -> Prims.fast_table mode ?counters ()) mode

let initial_costed ?degraded mode counters =
  let costed mode =
    List.map
      (fun (x, f) -> (x, Prims.with_cost counters (Prims.flat_cost x) f))
      (Prims.fast_table mode ~counters ())
  in
  let tick n = counters.Prims.cycles <- counters.Prims.cycles + n in
  with_prims ?degraded ~cost:tick costed mode

let lookup ce x =
  let rec go names values =
    match (names, values) with
    | n :: _, v :: _ when n = x -> v
    | _ :: ns, _ :: vs -> go ns vs
    | _ -> raise (Runtime_error ("unbound variable at run time: " ^ x))
  in
  go ce.names ce.values

let index_of cenv x =
  let rec go i = function
    | [] -> raise (Runtime_error ("unbound variable at compile time: " ^ x))
    | n :: _ when n = x -> i
    | _ :: ns -> go (i + 1) ns
  in
  go 0 cenv

let access i =
  (* specialised accessors for the common shallow cases *)
  match i with
  | 0 -> fun (renv : renv) -> (match renv with v :: _ -> v | [] -> assert false)
  | 1 -> fun renv -> (match renv with _ :: v :: _ -> v | _ -> assert false)
  | 2 -> fun renv -> (match renv with _ :: _ :: v :: _ -> v | _ -> assert false)
  | _ -> fun renv -> List.nth renv i

(* Compile a pattern into the names it binds (outermost-first) and a matcher
   that produces the bound values in the same order (reversed onto the
   environment by the caller). *)
let rec compile_pat (p : Tast.tpat) : string list * (Value.t -> Value.t list option) =
  match p.Tast.tpdesc with
  | Tast.TPwild -> ([], fun _ -> Some [])
  | Tast.TPvar x -> ([ x ], fun v -> Some [ v ])
  | Tast.TPint n -> ([], function Vint m when m = n -> Some [] | _ -> None)
  | Tast.TPbool b -> ([], function Vbool c when c = b -> Some [] | _ -> None)
  | Tast.TPchar a -> ([], function Vchar b when b = a -> Some [] | _ -> None)
  | Tast.TPstring a -> ([], function Vstring b when b = a -> Some [] | _ -> None)
  | Tast.TPtuple ps ->
      let parts = List.map compile_pat ps in
      let names = List.concat_map fst parts in
      let matchers = List.map snd parts in
      ( names,
        function
        | Vtuple vs when List.length vs = List.length matchers ->
            let rec go ms vs acc =
              match (ms, vs) with
              | [], [] -> Some (List.concat (List.rev acc))
              | m :: ms, v :: vs -> (
                  match m v with Some bound -> go ms vs (bound :: acc) | None -> None)
              | _ -> None
            in
            go matchers vs []
        | _ -> None )
  | Tast.TPcon (c, _, None) ->
      ([], function Vcon (c', None) when c' = c -> Some [] | _ -> None)
  | Tast.TPcon (c, _, Some argp) ->
      let names, m = compile_pat argp in
      ( names,
        function Vcon (c', Some v) when c' = c -> m v | _ -> None )

let extend_cenv cenv names = List.rev_append names cenv
let extend_renv renv values = List.rev_append values renv

type info = {
  ifast : (string * Prims.fast) list;
  ichecked : (string * Prims.fast) list;
  idegraded : Loc.t -> bool;
  ibase : int;
  icost : (int -> unit) option;
}

let info_of ce =
  { ifast = ce.fast; ichecked = ce.checked_fast; idegraded = ce.degraded;
    ibase = ce.base_len; icost = ce.cost }

(* A node's closure charges its cost-model cycles on entry.  Without a hook
   the closure is returned as it is. *)
let charge info n (c : renv -> Value.t) =
  match info.icost with
  | None -> c
  | Some tick ->
      fun renv ->
        tick n;
        c renv

(* Operands run in SML's order, function before argument and then left to
   right.  Calls let-bind their operands, because OCaml leaves the order of
   an application's arguments unspecified; tuple fields go through
   [List.map], which applies its function from the head. *)
let rec compile info cenv (e : Tast.texp) : renv -> Value.t =
  match e.Tast.tdesc with
  | Tast.TEint n ->
      let v = Vint n in
      charge info 1 (fun _ -> v)
  | Tast.TEbool b ->
      let v = Vbool b in
      charge info 1 (fun _ -> v)
  | Tast.TEchar c ->
      let v = Vchar c in
      charge info 1 (fun _ -> v)
  | Tast.TEstring s ->
      let v = Vstring s in
      charge info 1 (fun _ -> v)
  | Tast.TEvar (x, _) -> charge info 1 (access (index_of cenv x))
  | Tast.TEcon (c, _, None) ->
      let v =
        match Mltype.repr e.Tast.tty with
        | Mltype.Tarrow _ -> Vfun (fun v -> Vcon (c, Some v))
        | _ -> Vcon (c, None)
      in
      charge info 1 (fun _ -> v)
  | Tast.TEcon (c, _, Some arg) ->
      let carg = compile info cenv arg in
      charge info 3 (fun renv -> Vcon (c, Some (carg renv)))
  | Tast.TEtuple es ->
      let ces = List.map (compile info cenv) es in
      charge info (2 + List.length es) (fun renv -> Vtuple (List.map (fun c -> c renv) ces))
  | Tast.TEapp (f, a) -> begin
      (* saturated primitive applications compile to direct n-ary calls; the
         cost model charges them only the primitive's own work, as a native
         compiler inlines them *)
      let direct =
        match f.Tast.tdesc with
        | Tast.TEvar (x, _) -> begin
            let table = if info.idegraded e.Tast.tloc then info.ichecked else info.ifast in
            match List.assoc_opt x table with
            | Some fast when index_of cenv x >= List.length cenv - info.ibase -> (
                match (fast, a.Tast.tdesc) with
                | Prims.F1 g, _ ->
                    let ca = compile info cenv a in
                    Some (fun renv -> g (ca renv))
                | Prims.F2 g, Tast.TEtuple [ e1; e2 ] ->
                    let c1 = compile info cenv e1 and c2 = compile info cenv e2 in
                    Some
                      (fun renv ->
                        let v1 = c1 renv in
                        let v2 = c2 renv in
                        g v1 v2)
                | Prims.F3 g, Tast.TEtuple [ e1; e2; e3 ] ->
                    let c1 = compile info cenv e1
                    and c2 = compile info cenv e2
                    and c3 = compile info cenv e3 in
                    Some
                      (fun renv ->
                        let v1 = c1 renv in
                        let v2 = c2 renv in
                        let v3 = c3 renv in
                        g v1 v2 v3)
                | _ -> None)
            | _ -> None
          end
        | _ -> None
      in
      match direct with
      | Some compiled -> compiled
      | None ->
          let cf = compile info cenv f in
          let ca = compile info cenv a in
          charge info 2 (fun renv ->
              let fv = cf renv in
              let av = ca renv in
              as_fun fv av)
    end
  | Tast.TEif (c, t, f) ->
      let cc = compile info cenv c in
      let ct = compile info cenv t in
      let cf = compile info cenv f in
      charge info 1 (fun renv -> if as_bool (cc renv) then ct renv else cf renv)
  | Tast.TEcase (scrut, arms) ->
      let cs = compile info cenv scrut in
      let carms =
        List.map
          (fun (p, body) ->
            let names, matcher = compile_pat p in
            let cbody = compile info (extend_cenv cenv names) body in
            (matcher, cbody))
          arms
      in
      charge info 1 (fun renv ->
          let v = cs renv in
          let rec try_arms = function
            | [] -> raise (Match_failure_dml (Value.to_string v))
            | (matcher, cbody) :: rest -> (
                match matcher v with
                | Some bound -> cbody (extend_renv renv bound)
                | None -> try_arms rest)
          in
          try_arms carms)
  | Tast.TEfn (p, body) ->
      let names, matcher = compile_pat p in
      let cbody = compile info (extend_cenv cenv names) body in
      charge info 3 (fun renv ->
          Vfun
            (fun v ->
              match matcher v with
              | Some bound -> cbody (extend_renv renv bound)
              | None -> raise (Match_failure_dml (Value.to_string v))))
  | Tast.TElet (decs, body) ->
      let rec go cenv = function
        | [] ->
            let cbody = compile info cenv body in
            fun renv -> cbody renv
        | d :: rest ->
            let cenv', cd = compile_dec info cenv d in
            let crest = go cenv' rest in
            fun renv -> crest (cd renv)
      in
      go cenv decs
  | Tast.TEandalso (a, b) ->
      let ca = compile info cenv a in
      let cb = compile info cenv b in
      charge info 1 (fun renv -> if as_bool (ca renv) then cb renv else Vbool false)
  | Tast.TEorelse (a, b) ->
      let ca = compile info cenv a in
      let cb = compile info cenv b in
      charge info 1 (fun renv -> if as_bool (ca renv) then Vbool true else cb renv)
  | Tast.TEannot (inner, _) -> compile info cenv inner
  | Tast.TEraise inner ->
      let ce = compile info cenv inner in
      charge info 2 (fun renv -> raise (Dml_exn (ce renv)))
  | Tast.TEhandle (body, arms) ->
      let cbody = compile info cenv body in
      let carms =
        List.map
          (fun (p, arm) ->
            let names, matcher = compile_pat p in
            let carm = compile info (extend_cenv cenv names) arm in
            (matcher, carm))
          arms
      in
      charge info 1 (fun renv ->
          try cbody renv
          with e -> (
            match Value.exn_value_of e with
            | None -> raise e
            | Some v ->
                let rec try_arms = function
                  | [] -> raise e
                  | (matcher, carm) :: rest -> (
                      match matcher v with
                      | Some bound -> carm (extend_renv renv bound)
                      | None -> try_arms rest)
                in
                try_arms carms))

(* Compile a declaration: returns the extended compile-time environment and
   a run-time environment transformer. *)
and compile_dec info cenv (d : Tast.tdec) : cenv * (renv -> renv) =
  match d with
  | Tast.TDexception _ -> (cenv, fun renv -> renv)
  | Tast.TDval (p, e, _, _) ->
      let ce = compile info cenv e in
      let names, matcher = compile_pat p in
      ( extend_cenv cenv names,
        fun renv ->
          let v = ce renv in
          match matcher v with
          | Some bound -> extend_renv renv bound
          | None -> raise (Match_failure_dml (Value.to_string v)) )
  | Tast.TDfun fds ->
      let fnames = List.map (fun fd -> fd.Tast.tfname) fds in
      let cenv' = extend_cenv cenv fnames in
      let compiled =
        List.map
          (fun (fd : Tast.tfundef) ->
            let arity =
              match fd.Tast.tfclauses with (ps, _) :: _ -> List.length ps | [] -> 0
            in
            let cclauses =
              List.map
                (fun (pats, body) ->
                  let parts = List.map compile_pat pats in
                  let names = List.concat_map fst parts in
                  let matchers = List.map snd parts in
                  let cbody = compile info (extend_cenv cenv' names) body in
                  (matchers, cbody))
                fd.Tast.tfclauses
            in
            (fd.Tast.tfname, arity, cclauses))
          fds
      in
      ( cenv',
        fun renv ->
          (* tie the recursive knot through a reference *)
          let renv_ref = ref renv in
          let make (name, arity, cclauses) =
            let apply args =
              let rec try_clauses = function
                | [] -> raise (Match_failure_dml name)
                | (matchers, cbody) :: rest -> (
                    let rec bind ms args acc =
                      match (ms, args) with
                      | [], [] -> Some (List.concat (List.rev acc))
                      | m :: ms, v :: args -> (
                          match m v with Some b -> bind ms args (b :: acc) | None -> None)
                      | _ -> None
                    in
                    match bind matchers args [] with
                    | Some bound -> cbody (extend_renv !renv_ref bound)
                    | None -> try_clauses rest)
              in
              try_clauses cclauses
            in
            let rec curry collected k =
              if k = 0 then apply (List.rev collected)
              else Vfun (fun v -> curry (v :: collected) (k - 1))
            in
            curry [] arity
          in
          let fvalues = List.map make compiled in
          renv_ref := extend_renv renv fvalues;
          !renv_ref )

let run_program ce (prog : Tast.tprogram) =
  List.fold_left
    (fun ce ttop ->
      match ttop with
      | Tast.TTdec d ->
          let names', transform = compile_dec (info_of ce) ce.names d in
          { ce with names = names'; values = transform ce.values }
      | Tast.TTdatatype _ | Tast.TTtyperef _ | Tast.TTassert _ | Tast.TTtypedef _ -> ce)
    ce prog

let eval_exp ce e = compile (info_of ce) ce.names e ce.values
