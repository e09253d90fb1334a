open Dml_lang
open Dml_mltype
open Value

(* Run-time environment: one frame per activation of a [fn] or of a [fun]
   clause, chained to the frame of the lexically enclosing activation.  Every
   parameter and every [let]/[case]/[handle] binder of an activation has a
   slot of its own, so each slot is written at most once per activation and a
   closure that captures a frame never sees one of its slots change. *)
type frame = { slots : Value.t array; up : frame }

(* Top-level code and top-level functions hang off [root], at depth 0. *)
let rec root = { slots = [||]; up = root }

exception Match_failure_dml of string

(* An activation being compiled: its function-nesting depth (1 for top-level
   code) and how many slots its frame needs so far. *)
type act = { depth : int; mutable size : int }

(* The compiled code of one [fun].  Its parameters sit in the first slots of
   a fresh frame: one slot per curried argument, or one slot per field when
   every clause takes one n-tuple ([spread = Some n]).  [body] tries the
   clauses on a frame whose parameter slots are filled. *)
type fn_code = {
  name : string;
  def_depth : int;  (* depth of the defining activation; 0 at top level *)
  arity : int;  (* curried arguments *)
  spread : int option;
  fact : act;  (* the clauses' activation; its size is final once compiled *)
  mutable body : frame -> Value.t;
}

type var =
  | Slot of int * int  (* depth of the binding activation, slot *)
  | Cell of Value.t ref  (* top-level binding *)
  | Prim of Value.t  (* primitive, as a first-class value *)

(* [known] is set for a [fun] of one curried argument: a call that resolves
   to it statically enters its code without building a [Vfun] application. *)
type entry = { var : var; known : fn_code option }
type scope = (string * entry) list

type compiled_env = {
  globals : scope;  (* top-level bindings and primitives, innermost first *)
  fast : (string * Prims.fast) list;  (* direct-call primitives *)
  checked_fast : (string * Prims.fast) list;  (* impls for degraded sites *)
  degraded : Loc.t -> bool;  (* sites that must keep their dynamic check *)
  cost : (int -> unit) option;  (* cost-model hook: charges each node's cycles *)
}

let no_sites _ = false

(* [table mode] gives the direct-call primitives of one discipline. *)
let with_prims ?degraded ?cost table mode =
  let fast = table mode in
  (* Under graceful degradation, direct calls at degraded sites and every
     first-class (non-direct) use of a primitive get the checked
     implementation; only direct calls at proven sites stay unchecked. *)
  let checked_fast = match degraded with None -> fast | Some _ -> table Prims.Checked in
  let globals =
    List.fold_left
      (fun scope (x, f) -> (x, { var = Prim (Prims.value_of_fast f); known = None }) :: scope)
      [] checked_fast
  in
  { globals; fast; checked_fast; degraded = Option.value degraded ~default:no_sites; cost }

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

let resolve scope x =
  match List.assoc_opt x scope with
  | Some entry -> entry
  | None -> raise (Runtime_error ("unbound variable at compile time: " ^ x))

let lookup ce x =
  match List.assoc_opt x ce.globals with
  | Some { var = Cell c; _ } -> !c
  | Some { var = Prim v; _ } -> v
  | Some { var = Slot _; _ } | None -> raise (Runtime_error ("unbound variable at run time: " ^ x))

(* --- frames ------------------------------------------------------------------ *)

let new_slots n =
  let d = unit_v in
  match n with
  | 0 -> [||]
  | 1 -> [| d |]
  | 2 -> [| d; d |]
  | 3 -> [| d; d; d |]
  | 4 -> [| d; d; d; d |]
  | 5 -> [| d; d; d; d; d |]
  | 6 -> [| d; d; d; d; d; d |]
  | 7 -> [| d; d; d; d; d; d; d |]
  | 8 -> [| d; d; d; d; d; d; d; d |]
  | n -> Array.make n d

let rec hop fr n = if n = 0 then fr else hop fr.up (n - 1)

(* The frame of the activation at depth [target], seen from depth [depth]. *)
let frame_at ~depth ~target : frame -> frame =
  if target = 0 then fun _ -> root
  else
    match depth - target with
    | 0 -> fun fr -> fr
    | 1 -> fun fr -> fr.up
    | 2 -> fun fr -> fr.up.up
    | n -> fun fr -> hop fr n

let access act = function
  | Slot (d, s) -> (
      match act.depth - d with
      | 0 -> fun fr -> Array.unsafe_get fr.slots s
      | 1 -> fun fr -> Array.unsafe_get fr.up.slots s
      | 2 -> fun fr -> Array.unsafe_get fr.up.up.slots s
      | n -> fun fr -> Array.unsafe_get (hop fr n).slots s)
  | Cell c -> fun _ -> !c
  | Prim v -> fun _ -> v

(* Where a pattern variable's value goes: a fresh slot of the activation, or
   a fresh top-level cell. *)
type binder = unit -> var * (frame -> Value.t -> unit)

let slot_binder act : binder =
 fun () ->
  let s = act.size in
  act.size <- s + 1;
  (Slot (act.depth, s), fun fr v -> Array.unsafe_set fr.slots s v)

let cell_binder : binder =
 fun () ->
  let c = ref unit_v in
  (Cell c, fun _ v -> c := v)

let bind_var scope x var = (x, { var; known = None }) :: scope

(* --- patterns ------------------------------------------------------------------ *)

(* A pattern compiles to a matcher that writes the values it binds and says
   whether the value matched.  A failed match may leave some of its slots
   written; nothing reads them. *)
let rec compile_pat (bind : binder) scope (p : Tast.tpat) : scope * (frame -> Value.t -> bool) =
  match p.Tast.tpdesc with
  | Tast.TPwild -> (scope, fun _ _ -> true)
  | Tast.TPvar x ->
      let var, write = bind () in
      ( bind_var scope x var,
        fun fr v ->
          write fr v;
          true )
  | Tast.TPint n -> (scope, fun _ -> function Vint m -> m = n | _ -> false)
  | Tast.TPbool b -> (scope, fun _ -> function Vbool c -> c = b | _ -> false)
  | Tast.TPchar a -> (scope, fun _ -> function Vchar b -> b = a | _ -> false)
  | Tast.TPstring a -> (scope, fun _ -> function Vstring b -> b = a | _ -> false)
  | Tast.TPtuple ps -> (
      let scope, ms =
        List.fold_left
          (fun (scope, ms) p ->
            let scope, m = compile_pat bind scope p in
            (scope, m :: ms))
          (scope, []) ps
      in
      match List.rev ms with
      | [ m1; m2 ] ->
          (scope, fun fr -> function Vtuple [ v1; v2 ] -> m1 fr v1 && m2 fr v2 | _ -> false)
      | [ m1; m2; m3 ] ->
          ( scope,
            fun fr -> function
              | Vtuple [ v1; v2; v3 ] -> m1 fr v1 && m2 fr v2 && m3 fr v3
              | _ -> false )
      | ms ->
          let rec go fr ms vs =
            match (ms, vs) with
            | [], [] -> true
            | m :: ms, v :: vs -> m fr v && go fr ms vs
            | _ -> false
          in
          (scope, fun fr -> function Vtuple vs -> go fr ms vs | _ -> false))
  | Tast.TPcon (c, _, None) -> (scope, fun _ -> function Vcon (c', None) -> c' = c | _ -> false)
  | Tast.TPcon (c, _, Some argp) ->
      let scope, m = compile_pat bind scope argp in
      (scope, fun fr -> function Vcon (c', Some v) when c' = c -> m fr v | _ -> false)

(* --- expressions --------------------------------------------------------------- *)

(* Compilation reads its settings ([info]) from the environment it started
   in.  A node's closure charges its cost-model cycles on entry.  Without a
   hook the closure is returned as it is. *)
let charge (info : compiled_env) n (c : frame -> Value.t) =
  match info.cost with
  | None -> c
  | Some tick ->
      fun fr ->
        tick n;
        c fr

(* The parameter layout of a [fun]: curried arity, and the tuple size when
   every clause takes one n-tuple. *)
let layout (fd : Tast.tfundef) =
  let tuple_size = function [ { Tast.tpdesc = Tast.TPtuple ps; _ } ] -> Some (List.length ps) | _ -> None in
  match fd.Tast.tfclauses with
  | [] -> (0, None)
  | (pats, _) :: rest ->
      let spread = tuple_size pats in
      let spread =
        if spread <> None && List.for_all (fun (ps, _) -> tuple_size ps = spread) rest then spread
        else None
      in
      (List.length pats, spread)

(* A first-class value for a [fun] whose frames hang off [up]. *)
let fun_value code up =
  let frame () = { slots = new_slots code.fact.size; up } in
  let fail () = raise (Match_failure_dml code.name) in
  match (code.spread, code.arity) with
  | Some 2, _ ->
      Vfun
        (function
        | Vtuple [ v0; v1 ] ->
            let fr = frame () in
            Array.unsafe_set fr.slots 0 v0;
            Array.unsafe_set fr.slots 1 v1;
            code.body fr
        | _ -> fail ())
  | Some n, _ ->
      Vfun
        (function
        | Vtuple vs when List.length vs = n ->
            let fr = frame () in
            List.iteri (fun i v -> Array.unsafe_set fr.slots i v) vs;
            code.body fr
        | _ -> fail ())
  | None, 1 ->
      Vfun
        (fun v ->
          let fr = frame () in
          Array.unsafe_set fr.slots 0 v;
          code.body fr)
  | None, k ->
      (* collect the curried arguments, then fill the frame in order *)
      let rec curry collected i =
        if i = k then begin
          let fr = frame () in
          List.iteri (fun j v -> Array.unsafe_set fr.slots (k - 1 - j) v) collected;
          code.body fr
        end
        else Vfun (fun v -> curry (v :: collected) (i + 1))
      in
      curry [] 0

(* Operands run in SML's order, function before argument and then left to
   right: every compound node let-binds its operands, because OCaml leaves
   the order of an application's or constructor's arguments unspecified. *)
let rec compile info act scope (e : Tast.texp) : frame -> Value.t =
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
  | Tast.TEvar (x, _) -> charge info 1 (access act (resolve scope x).var)
  | Tast.TEcon (c, _, None) ->
      let v =
        match Mltype.repr e.Tast.tty with
        | Mltype.Tarrow _ -> Vfun (fun v -> Vcon (c, Some v))
        | _ -> Vcon (c, None)
      in
      charge info 1 (fun _ -> v)
  | Tast.TEcon (c, _, Some arg) ->
      let carg = compile info act scope arg in
      charge info 3 (fun fr -> Vcon (c, Some (carg fr)))
  | Tast.TEtuple es ->
      let ces = List.map (compile info act scope) es in
      charge info
        (2 + List.length es)
        (match ces with
        | [ c1; c2 ] ->
            fun fr ->
              let v1 = c1 fr in
              let v2 = c2 fr in
              Vtuple [ v1; v2 ]
        | [ c1; c2; c3 ] ->
            fun fr ->
              let v1 = c1 fr in
              let v2 = c2 fr in
              let v3 = c3 fr in
              Vtuple [ v1; v2; v3 ]
        | _ -> fun fr -> Vtuple (List.map (fun c -> c fr) ces))
  | Tast.TEapp (f, a) -> compile_app info act scope e f a
  | Tast.TEif (c, t, f) ->
      let cc = compile info act scope c in
      let ct = compile info act scope t in
      let cf = compile info act scope f in
      charge info 1 (fun fr -> if as_bool (cc fr) then ct fr else cf fr)
  | Tast.TEcase (scrut, arms) ->
      let cs = compile info act scope scrut in
      let arms = compile_arms info act scope arms in
      let chain =
        List.fold_right
          (fun (m, cbody) next ->
            let arm fr v = if m fr v then cbody fr else next fr v in
            arm)
          arms
          (fun _ v -> raise (Match_failure_dml (Value.to_string v)))
      in
      charge info 1 (fun fr -> chain fr (cs fr))
  | Tast.TEfn (p, body) ->
      let fact = { depth = act.depth + 1; size = 0 } in
      let scope', m = compile_pat (slot_binder fact) scope p in
      let cbody = compile info fact scope' body in
      charge info 3 (fun fr ->
          Vfun
            (fun v ->
              let fr' = { slots = new_slots fact.size; up = fr } in
              if m fr' v then cbody fr' else raise (Match_failure_dml (Value.to_string v))))
  | Tast.TElet (decs, body) ->
      let rec go scope = function
        | [] -> compile info act scope body
        | d :: rest ->
            let scope', cd = compile_dec info act scope d in
            let crest = go scope' rest in
            fun fr ->
              cd fr;
              crest fr
      in
      go scope decs
  | Tast.TEandalso (a, b) ->
      let ca = compile info act scope a in
      let cb = compile info act scope b in
      charge info 1 (fun fr -> if as_bool (ca fr) then cb fr else Vbool false)
  | Tast.TEorelse (a, b) ->
      let ca = compile info act scope a in
      let cb = compile info act scope b in
      charge info 1 (fun fr -> if as_bool (ca fr) then Vbool true else cb fr)
  | Tast.TEannot (inner, _) -> compile info act scope inner
  | Tast.TEraise inner ->
      let ce = compile info act scope inner in
      charge info 2 (fun fr -> raise (Dml_exn (ce fr)))
  | Tast.TEhandle (body, arms) ->
      let cbody = compile info act scope body in
      let arms = compile_arms info act scope arms in
      charge info 1 (fun fr ->
          try cbody fr
          with e -> (
            match Value.exn_value_of e with
            | None -> raise e
            | Some v ->
                let rec try_arms = function
                  | [] -> raise e
                  | (m, carm) :: rest -> if m fr v then carm fr else try_arms rest
                in
                try_arms arms))

and compile_arms info act scope arms =
  List.map
    (fun (p, body) ->
      let scope', m = compile_pat (slot_binder act) scope p in
      (m, compile info act scope' body))
    arms

and compile_app info act scope e f a =
  let direct =
    match f.Tast.tdesc with
    | Tast.TEvar (x, _) -> (
        match (resolve scope x, a.Tast.tdesc) with
        | { var = Prim _; _ }, _ -> compile_prim_call info act scope e x a
        | { known = Some code; _ }, Tast.TEtuple es when code.spread = Some (List.length es) ->
            (* app 2 + var 1 + tuple 2+n, all charged on entry *)
            Some (charge info (5 + List.length es) (compile_known_call info act scope code es))
        | { known = Some ({ spread = None; _ } as code); _ }, _ ->
            Some (charge info 3 (compile_known_call info act scope code [ a ]))
        | _ -> None)
    | _ -> None
  in
  match direct with
  | Some compiled -> compiled
  | None ->
      let cf = compile info act scope f in
      let ca = compile info act scope a in
      charge info 2 (fun fr ->
          let fv = cf fr in
          let av = ca fr in
          as_fun fv av)

(* Saturated primitive applications compile to direct n-ary calls; the cost
   model charges them only the primitive's own work, as a native compiler
   inlines them. *)
and compile_prim_call info act scope e name a =
  let table = if info.degraded e.Tast.tloc then info.checked_fast else info.fast in
  match (List.assoc_opt name table, a.Tast.tdesc) with
  | Some (Prims.F1 g), _ ->
      let ca = compile info act scope a in
      Some (fun fr -> g (ca fr))
  | Some (Prims.F2 g), Tast.TEtuple [ e1; e2 ] ->
      let c1 = compile info act scope e1 and c2 = compile info act scope e2 in
      Some
        (fun fr ->
          let v1 = c1 fr in
          let v2 = c2 fr in
          g v1 v2)
  | Some (Prims.F3 g), Tast.TEtuple [ e1; e2; e3 ] ->
      let c1 = compile info act scope e1
      and c2 = compile info act scope e2
      and c3 = compile info act scope e3 in
      Some
        (fun fr ->
          let v1 = c1 fr in
          let v2 = c2 fr in
          let v3 = c3 fr in
          g v1 v2 v3)
  | _ -> None

(* A call to a statically known [fun]: the operands go straight into the
   parameter slots of the callee's new frame. *)
and compile_known_call info act scope code operands =
  let up = frame_at ~depth:act.depth ~target:code.def_depth in
  match List.map (compile info act scope) operands with
  | [ c0 ] ->
      fun fr ->
        let s = new_slots code.fact.size in
        Array.unsafe_set s 0 (c0 fr);
        code.body { slots = s; up = up fr }
  | [ c0; c1 ] ->
      fun fr ->
        let s = new_slots code.fact.size in
        Array.unsafe_set s 0 (c0 fr);
        Array.unsafe_set s 1 (c1 fr);
        code.body { slots = s; up = up fr }
  | [ c0; c1; c2 ] ->
      fun fr ->
        let s = new_slots code.fact.size in
        Array.unsafe_set s 0 (c0 fr);
        Array.unsafe_set s 1 (c1 fr);
        Array.unsafe_set s 2 (c2 fr);
        code.body { slots = s; up = up fr }
  | cs ->
      fun fr ->
        let s = new_slots code.fact.size in
        List.iteri (fun i c -> Array.unsafe_set s i (c fr)) cs;
        code.body { slots = s; up = up fr }

(* Compile a declaration in activation [act]: returns the extended scope and
   the code that binds its slots. *)
and compile_dec info act scope (d : Tast.tdec) : scope * (frame -> unit) =
  match d with
  | Tast.TDexception _ -> (scope, ignore)
  | Tast.TDval ({ Tast.tpdesc = Tast.TPwild; _ }, e, _, _) ->
      let ce = compile info act scope e in
      (scope, fun fr -> ignore (ce fr))
  | Tast.TDval (p, e, _, _) ->
      let ce = compile info act scope e in
      let scope', m = compile_pat (slot_binder act) scope p in
      ( scope',
        fun fr ->
          let v = ce fr in
          if not (m fr v) then raise (Match_failure_dml (Value.to_string v)) )
  | Tast.TDfun fds -> compile_funs info act.depth (slot_binder act) scope fds

(* A [fun] group defined in the activation at [depth] (0 at top level): each
   name gets a place from [bind], the clauses compile in one activation per
   function, and the returned code stores the function values. *)
and compile_funs info depth (bind : binder) scope fds : scope * (frame -> unit) =
  let group =
    List.map
      (fun (fd : Tast.tfundef) ->
        let arity, spread = layout fd in
        let nparams = Option.value spread ~default:arity in
        let code =
          {
            name = fd.Tast.tfname;
            def_depth = depth;
            arity;
            spread;
            fact = { depth = depth + 1; size = nparams };
            body = (fun _ -> assert false);
          }
        in
        let var, write = bind () in
        (fd, code, var, write))
      fds
  in
  let scope' =
    List.fold_left
      (fun scope (fd, code, var, _) ->
        (fd.Tast.tfname, { var; known = (if code.arity = 1 then Some code else None) }) :: scope)
      scope group
  in
  List.iter (fun (fd, code, _, _) -> code.body <- compile_clauses info code scope' fd) group;
  (scope', fun fr -> List.iter (fun (_, code, _, write) -> write fr (fun_value code fr)) group)

and compile_clauses info code scope (fd : Tast.tfundef) =
  let act = code.fact in
  let clause (pats, body) =
    let params =
      match (code.spread, pats) with
      | Some _, [ { Tast.tpdesc = Tast.TPtuple ps; _ } ] -> ps
      | _ -> pats
    in
    (* a variable parameter is its slot; other patterns match against it *)
    let _, scope, tests =
      List.fold_left
        (fun (j, scope, tests) (p : Tast.tpat) ->
          match p.Tast.tpdesc with
          | Tast.TPvar x -> (j + 1, bind_var scope x (Slot (act.depth, j)), tests)
          | Tast.TPwild -> (j + 1, scope, tests)
          | _ ->
              let scope, m = compile_pat (slot_binder act) scope p in
              (j + 1, scope, (fun fr -> m fr (Array.unsafe_get fr.slots j)) :: tests))
        (0, scope, []) params
    in
    let test =
      match List.rev tests with
      | [] -> None
      | [ t ] -> Some t
      | ts -> Some (fun fr -> List.for_all (fun t -> t fr) ts)
    in
    (test, compile info act scope body)
  in
  let name = code.name in
  List.fold_right
    (fun (test, cbody) next ->
      match test with None -> cbody | Some t -> fun fr -> if t fr then cbody fr else next fr)
    (List.map clause fd.Tast.tfclauses)
    (fun _ -> raise (Match_failure_dml name))

(* Top-level code runs in an activation of its own at depth 1. *)
let run_top info scope e =
  let act = { depth = 1; size = 0 } in
  let ce = compile info act scope e in
  ce { slots = new_slots act.size; up = root }

let run_program ce (prog : Tast.tprogram) =
  List.fold_left
    (fun ce ttop ->
      match ttop with
      | Tast.TTdec (Tast.TDval (p, e, _, _)) ->
          let v = run_top ce ce.globals e in
          let globals, m = compile_pat cell_binder ce.globals p in
          if not (m root v) then raise (Match_failure_dml (Value.to_string v));
          { ce with globals }
      | Tast.TTdec (Tast.TDfun fds) ->
          let globals, store = compile_funs ce 0 cell_binder ce.globals fds in
          store root;
          { ce with globals }
      | Tast.TTdec (Tast.TDexception _)
      | Tast.TTdatatype _ | Tast.TTtyperef _ | Tast.TTassert _ | Tast.TTtypedef _ -> ce)
    ce prog

let eval_exp ce e = run_top ce ce.globals e
