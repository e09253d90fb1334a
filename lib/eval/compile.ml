open Value

(* Run-time environment: one frame per activation of a [fn] or of a [fun]
   clause, chained to the frame of the lexically enclosing activation.  The
   slots are laid out by [Lower]. *)
type frame = { slots : Value.t array; up : frame }

(* Top-level code and top-level functions hang off [root], at depth 0. *)
let rec root = { slots = [||]; up = root }

exception Match_failure_dml of string

(* The compiled code of one [fun] defined in the activation at [def_depth]
   (0 at top level).  [body] tries the clauses on a frame whose parameter
   slots are filled. *)
type fn_code = { fd : Ir.fundef; def_depth : int; mutable body : frame -> Value.t }

type compiled_env = {
  lower : Lower.env;  (* top-level names in scope *)
  cells : (int, Value.t ref) Hashtbl.t;  (* top-level bindings, by id *)
  fns : (int, fn_code) Hashtbl.t;  (* compiled [fun]s, by key, for known calls *)
  impl : bool -> Prims.prim -> Prims.fast;  (* [true]: the checked flavour *)
  cost : (int -> unit) option;  (* cost-model hook: charges each node's cycles *)
}

(* [table mode] gives the primitive implementations of one discipline. *)
let with_prims ?degraded ?cost table mode =
  let fast = table mode in
  let checked = if mode = Prims.Checked then fast else table Prims.Checked in
  {
    lower = Lower.init mode ?degraded ();
    cells = Hashtbl.create 64;
    fns = Hashtbl.create 64;
    impl = (fun c -> if c then checked else fast);
    cost;
  }

let initial_fast mode ?counters ?degraded () =
  with_prims ?degraded (fun mode -> Prims.fast_table mode ?counters ()) mode

let initial_costed ?degraded mode counters =
  let costed mode =
    let impl = Prims.fast_table mode ~counters () in
    fun p -> Prims.with_cost counters p.Prims.flat_cost (impl p)
  in
  let tick n = counters.Prims.cycles <- counters.Prims.cycles + n in
  with_prims ?degraded ~cost:tick costed mode

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

let access ce depth = function
  | Ir.Local (d, s, _) -> (
      match depth - d with
      | 0 -> fun fr -> Array.unsafe_get fr.slots s
      | 1 -> fun fr -> Array.unsafe_get fr.up.slots s
      | 2 -> fun fr -> Array.unsafe_get fr.up.up.slots s
      | n -> fun fr -> Array.unsafe_get (hop fr n).slots s)
  | Ir.Global (id, _) ->
      let c = Hashtbl.find ce.cells id in
      fun _ -> !c
  | Ir.Prim (p, checked) ->
      let v = Prims.value_of_fast (ce.impl checked p) in
      fun _ -> v

let lookup ce x =
  match Lower.resolve ce.lower x with
  | Some ((Ir.Global _ | Ir.Prim _) as v) -> access ce 1 v root
  | Some (Ir.Local _) | None -> raise (Runtime_error ("unbound variable at run time: " ^ x))

(* Where a pattern variable's value goes: its slot in the current frame, or
   a fresh top-level cell. *)
let binder ce = function
  | Ir.Local (_, s, _) -> fun fr v -> Array.unsafe_set fr.slots s v
  | Ir.Global (id, _) ->
      let c = ref unit_v in
      Hashtbl.replace ce.cells id c;
      fun _ v -> c := v
  | Ir.Prim (p, _) -> invalid_arg ("Compile.binder: " ^ p.Prims.name)

(* --- patterns ------------------------------------------------------------------ *)

(* A pattern compiles to a matcher that writes the values it binds and says
   whether the value matched.  A failed match may leave some of its slots
   written; nothing reads them. *)
let rec compile_pat ce (p : Ir.pat) : frame -> Value.t -> bool =
  match p with
  | Ir.Pwild -> fun _ _ -> true
  | Ir.Pvar v ->
      let write = binder ce v in
      fun fr v ->
        write fr v;
        true
  | Ir.Pint n -> (fun _ -> function Vint m -> m = n | _ -> false)
  | Ir.Pbool b -> (fun _ -> function Vbool c -> c = b | _ -> false)
  | Ir.Pchar a -> (fun _ -> function Vchar b -> b = a | _ -> false)
  | Ir.Pstring a -> (fun _ -> function Vstring b -> b = a | _ -> false)
  | Ir.Ptuple ps -> (
      match List.map (compile_pat ce) ps with
      | [ m1; m2 ] -> (fun fr -> function Vtuple [ v1; v2 ] -> m1 fr v1 && m2 fr v2 | _ -> false)
      | [ m1; m2; m3 ] -> (
          fun fr -> function
          | Vtuple [ v1; v2; v3 ] -> m1 fr v1 && m2 fr v2 && m3 fr v3
          | _ -> false)
      | ms ->
          let rec go fr ms vs =
            match (ms, vs) with
            | [], [] -> true
            | m :: ms, v :: vs -> m fr v && go fr ms vs
            | _ -> false
          in
          fun fr -> function Vtuple vs -> go fr ms vs | _ -> false)
  | Ir.Pcon ({ Ir.con = c; _ }, None) -> (fun _ -> function Vcon (c', None) -> c' = c | _ -> false)
  | Ir.Pcon ({ Ir.con = c; _ }, Some argp) ->
      let m = compile_pat ce argp in
      fun fr -> function Vcon (c', Some v) when c' = c -> m fr v | _ -> false

(* --- expressions --------------------------------------------------------------- *)

(* A node's closure charges its cost-model cycles on entry.  Without a hook
   the closure is returned as it is. *)
let charge ce n (c : frame -> Value.t) =
  match ce.cost with
  | None -> c
  | Some tick ->
      fun fr ->
        tick n;
        c fr

(* A first-class value for a [fun] whose frames hang off [up]. *)
let fun_value code up =
  let size = code.fd.Ir.size in
  let frame () = { slots = new_slots size; up } in
  let fail () = raise (Match_failure_dml (Ir.var_name code.fd.Ir.var)) in
  match (code.fd.Ir.spread, code.fd.Ir.arity) with
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
   the order of an application's or constructor's arguments unspecified.
   [depth] is the depth of the activation being compiled. *)
let rec compile ce depth (e : Ir.exp) : frame -> Value.t =
  let const v = charge ce 1 (fun _ -> v) in
  match e with
  | Ir.Int n -> const (Vint n)
  | Ir.Bool b -> const (Vbool b)
  | Ir.Char c -> const (Vchar c)
  | Ir.String s -> const (Vstring s)
  | Ir.Var v -> charge ce 1 (access ce depth v)
  | Ir.Con ({ Ir.con = c; _ }, None) -> const (Vcon (c, None))
  | Ir.Con_fn { Ir.con = c; _ } -> const (Vfun (fun v -> Vcon (c, Some v)))
  | Ir.Con ({ Ir.con = c; _ }, Some arg) ->
      let carg = compile ce depth arg in
      charge ce 3 (fun fr -> Vcon (c, Some (carg fr)))
  | Ir.Tuple es ->
      let ces = List.map (compile ce depth) es in
      charge ce
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
  | Ir.Prim_call { prim; checked; args } -> compile_prim_call ce depth (ce.impl checked prim) args
  | Ir.Known_call { key; args; _ } ->
      let code = Hashtbl.find ce.fns key in
      (* a tupled call stands for app 2 + var 1 + tuple 2+n, an untupled one
         for app 2 + var 1, all charged on entry *)
      let n = match code.fd.Ir.spread with Some n -> 5 + n | None -> 3 in
      charge ce n (compile_known_call ce depth code args)
  | Ir.App (f, a) ->
      let cf = compile ce depth f in
      let ca = compile ce depth a in
      charge ce 2 (fun fr ->
          let fv = cf fr in
          let av = ca fr in
          as_fun fv av)
  | Ir.If (c, t, f) ->
      let cc = compile ce depth c in
      let ct = compile ce depth t in
      let cf = compile ce depth f in
      charge ce 1 (fun fr -> if as_bool (cc fr) then ct fr else cf fr)
  | Ir.Case (scrut, arms) ->
      let cs = compile ce depth scrut in
      let chain =
        List.fold_right
          (fun (m, cbody) next ->
            let arm fr v = if m fr v then cbody fr else next fr v in
            arm)
          (compile_arms ce depth arms)
          (fun _ v -> raise (Match_failure_dml (Value.to_string v)))
      in
      charge ce 1 (fun fr -> chain fr (cs fr))
  | Ir.Fn (p, size, body) ->
      let m = compile_pat ce p in
      let cbody = compile ce (depth + 1) body in
      charge ce 3 (fun fr ->
          Vfun
            (fun v ->
              let fr' = { slots = new_slots size; up = fr } in
              if m fr' v then cbody fr' else raise (Match_failure_dml (Value.to_string v))))
  | Ir.Let (decs, body) ->
      (* in order: a declaration's cells and functions exist before the code
         after it is compiled *)
      let rec go = function
        | [] -> compile ce depth body
        | d :: rest ->
            let cd = compile_dec ce depth d in
            let crest = go rest in
            fun fr ->
              cd fr;
              crest fr
      in
      go decs
  | Ir.Andalso (a, b) ->
      let ca = compile ce depth a in
      let cb = compile ce depth b in
      charge ce 1 (fun fr -> if as_bool (ca fr) then cb fr else Vbool false)
  | Ir.Orelse (a, b) ->
      let ca = compile ce depth a in
      let cb = compile ce depth b in
      charge ce 1 (fun fr -> if as_bool (ca fr) then Vbool true else cb fr)
  | Ir.Raise inner ->
      let ce' = compile ce depth inner in
      charge ce 2 (fun fr -> raise (Dml_exn (ce' fr)))
  | Ir.Handle (body, arms) ->
      let cbody = compile ce depth body in
      let arms = compile_arms ce depth arms in
      charge ce 1 (fun fr ->
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

and compile_arms ce depth arms =
  List.map
    (fun (p, body) ->
      let m = compile_pat ce p in
      (m, compile ce depth body))
    arms

(* A saturated primitive call is a direct n-ary call; the cost model charges
   it only the primitive's own work, as a native compiler inlines it. *)
and compile_prim_call ce depth impl args =
  match (impl, List.map (compile ce depth) args) with
  | Prims.F1 g, [ ca ] -> fun fr -> g (ca fr)
  | Prims.F2 g, [ c1; c2 ] ->
      fun fr ->
        let v1 = c1 fr in
        let v2 = c2 fr in
        g v1 v2
  | Prims.F3 g, [ c1; c2; c3 ] ->
      fun fr ->
        let v1 = c1 fr in
        let v2 = c2 fr in
        let v3 = c3 fr in
        g v1 v2 v3
  | _ -> invalid_arg "Compile.compile_prim_call: arity"

(* A call to a statically known [fun]: the operands go straight into the
   parameter slots of the callee's new frame. *)
and compile_known_call ce depth code operands =
  let up = frame_at ~depth ~target:code.def_depth in
  let size = code.fd.Ir.size in
  match List.map (compile ce depth) operands with
  | [ c0 ] ->
      fun fr ->
        let s = new_slots size in
        Array.unsafe_set s 0 (c0 fr);
        code.body { slots = s; up = up fr }
  | [ c0; c1 ] ->
      fun fr ->
        let s = new_slots size in
        Array.unsafe_set s 0 (c0 fr);
        Array.unsafe_set s 1 (c1 fr);
        code.body { slots = s; up = up fr }
  | [ c0; c1; c2 ] ->
      fun fr ->
        let s = new_slots size in
        Array.unsafe_set s 0 (c0 fr);
        Array.unsafe_set s 1 (c1 fr);
        Array.unsafe_set s 2 (c2 fr);
        code.body { slots = s; up = up fr }
  | cs ->
      fun fr ->
        let s = new_slots size in
        List.iteri (fun i c -> Array.unsafe_set s i (c fr)) cs;
        code.body { slots = s; up = up fr }

(* The code that binds a declaration's slots in the activation at [depth]. *)
and compile_dec ce depth (d : Ir.dec) : frame -> unit =
  match d with
  | Ir.Dexn _ -> ignore
  | Ir.Dval (Ir.Pwild, e) ->
      let c = compile ce depth e in
      fun fr -> ignore (c fr)
  | Ir.Dval (p, e) ->
      let c = compile ce depth e in
      let m = compile_pat ce p in
      fun fr ->
        let v = c fr in
        if not (m fr v) then raise (Match_failure_dml (Value.to_string v))
  | Ir.Dfun fds -> compile_funs ce depth fds

(* A [fun] group defined in the activation at [depth] (0 at top level): every
   function's place and code record exist before any clause compiles, and
   the returned code stores the function values. *)
and compile_funs ce depth fds =
  let group =
    List.map
      (fun (fd : Ir.fundef) ->
        let code = { fd; def_depth = depth; body = (fun _ -> assert false) } in
        Hashtbl.replace ce.fns fd.Ir.key code;
        (code, binder ce fd.Ir.var))
      fds
  in
  List.iter (fun (code, _) -> code.body <- compile_clauses ce code) group;
  fun fr -> List.iter (fun (code, write) -> write fr (fun_value code fr)) group

(* A variable or wildcard parameter needs no test: [Lower] made a variable
   parameter its slot.  Other parameter patterns match against their slot. *)
and compile_clauses ce code =
  let depth = code.def_depth + 1 in
  let clause (params, body) =
    let tests =
      List.concat
        (List.mapi
           (fun j -> function
             | Ir.Pvar _ | Ir.Pwild -> []
             | p ->
                 let m = compile_pat ce p in
                 [ (fun fr -> m fr (Array.unsafe_get fr.slots j)) ])
           params)
    in
    let test =
      match tests with
      | [] -> None
      | [ t ] -> Some t
      | ts -> Some (fun fr -> List.for_all (fun t -> t fr) ts)
    in
    (test, compile ce depth body)
  in
  let name = Ir.var_name code.fd.Ir.var in
  List.fold_right
    (fun (test, cbody) next ->
      match test with None -> cbody | Some t -> fun fr -> if t fr then cbody fr else next fr)
    (List.map clause code.fd.Ir.clauses)
    (fun _ -> raise (Match_failure_dml name))

(* Top-level code runs in an activation of its own at depth 1. *)
let run_top ce e size = (compile ce 1 e) { slots = new_slots size; up = root }

let run_program ce prog =
  List.fold_left
    (fun ce ttop ->
      let lower, top = Lower.top ce.lower ttop in
      let ce = { ce with lower } in
      (match top with
      | Some (Ir.Tdec (Ir.Dval (p, e), size)) ->
          let v = run_top ce e size in
          if not (compile_pat ce p root v) then raise (Match_failure_dml (Value.to_string v))
      | Some (Ir.Tdec (Ir.Dfun fds, _)) -> compile_funs ce 0 fds root
      | Some (Ir.Tdec (Ir.Dexn _, _)) | Some (Ir.Tdatatype _) | None -> ());
      ce)
    ce prog

let eval_exp ce e =
  let e, size = Lower.exp ce.lower e in
  run_top ce e size
